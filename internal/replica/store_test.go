package replica

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"aprof/internal/profio"
)

func TestCkptStoreStaleRejection(t *testing.T) {
	s, err := openCkptStore("", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.put("a", 10, []byte("ten")); !ok {
		t.Fatal("first put rejected")
	}
	// Same seq and older seq are both stale: a delayed push from a failed
	// primary must never roll the replica backwards.
	if held, ok, _ := s.put("a", 10, []byte("ten-again")); ok || held != 10 {
		t.Fatalf("equal-seq put accepted (held=%d ok=%v)", held, ok)
	}
	if held, ok, _ := s.put("a", 5, []byte("five")); ok || held != 10 {
		t.Fatalf("older put accepted (held=%d ok=%v)", held, ok)
	}
	if _, ok, _ := s.put("a", 11, []byte("eleven")); !ok {
		t.Fatal("newer put rejected")
	}
	seq, data, ok := s.get("a")
	if !ok || seq != 11 || string(data) != "eleven" {
		t.Fatalf("get: seq=%d data=%q ok=%v", seq, data, ok)
	}
}

func TestCkptStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := openCkptStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("APCK checkpoint payload")
	if _, ok, err := s.put("build-42", 4096, want); err != nil || !ok {
		t.Fatalf("put: ok=%v err=%v", ok, err)
	}

	// A "restarted" node (fresh store over the same dir) still serves the
	// replica it confirmed.
	s2, err := openCkptStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq, data, ok := s2.get("build-42")
	if !ok || seq != 4096 || !bytes.Equal(data, want) {
		t.Fatalf("reloaded: seq=%d ok=%v data match=%v", seq, ok, bytes.Equal(data, want))
	}

	s2.drop("build-42")
	if _, _, ok := s2.get("build-42"); ok {
		t.Fatal("dropped session still served")
	}
	s3, err := openCkptStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s3.get("build-42"); ok {
		t.Fatal("dropped session resurrected after reopen")
	}
}

// TestCkptStoreDiscardsTornFiles: a replica log with no intact record —
// torn, empty, bit-flipped, not a log, or a file of the pre-log RCK1
// format — is discarded on reload, never served as a confirmed replica;
// so is the temp file a crash inside a log replacement leaves behind.
func TestCkptStoreDiscardsTornFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := openCkptStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.put("good", 7, []byte("intact")); err != nil || !ok {
		t.Fatalf("put: ok=%v err=%v", ok, err)
	}

	src := filepath.Join(t.TempDir(), "src.rck")
	if err := profio.NewCheckpointLog(src).Append(9, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"torn.rck", whole[:len(whole)/2]},
		{"empty.rck", nil},
		{"flipped.rck", flipByte(whole, len(whole)/2)},
		{"notmagic.rck", []byte("XXXXjunk")},
		{"legacy.rck", []byte("RCK1\x09\x07payload\x00\x00\x00\x00")},
		{".good.rck.tmp3141592", whole},
	} {
		if err := os.WriteFile(filepath.Join(dir, tc.name), tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := openCkptStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	ids := s2.sessions()
	if len(ids) != 1 || ids[0] != "good" {
		t.Fatalf("reload kept %v, want only [good]", ids)
	}
	// The wreckage is cleaned off disk too.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if e.Name() != "good.rck" {
			t.Fatalf("torn file %s survived reload", e.Name())
		}
	}
	// The reloaded log takes further puts, and they survive another reload.
	if _, ok, err := s2.put("good", 8, []byte("newer")); err != nil || !ok {
		t.Fatalf("put after reload: ok=%v err=%v", ok, err)
	}
	s3, err := openCkptStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq, data, ok := s3.get("good"); !ok || seq != 8 || string(data) != "newer" {
		t.Fatalf("second reload: seq=%d data=%q ok=%v", seq, data, ok)
	}
}

func flipByte(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0x01
	return out
}
