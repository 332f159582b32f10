package profio

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"aprof/internal/obs"
	"aprof/internal/repo/backend"
)

func TestCkptStoreStaleRejection(t *testing.T) {
	s, err := OpenCheckpointStore("", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Put("a", 10, []byte("ten")); !ok {
		t.Fatal("first put rejected")
	}
	// Same seq and older seq are both stale: a delayed push from a failed
	// primary must never roll the replica backwards.
	if held, ok, _ := s.Put("a", 10, []byte("ten-again")); ok || held != 10 {
		t.Fatalf("equal-seq put accepted (held=%d ok=%v)", held, ok)
	}
	if held, ok, _ := s.Put("a", 5, []byte("five")); ok || held != 10 {
		t.Fatalf("older put accepted (held=%d ok=%v)", held, ok)
	}
	if _, ok, _ := s.Put("a", 11, []byte("eleven")); !ok {
		t.Fatal("newer put rejected")
	}
	seq, data, ok := s.Get("a")
	if !ok || seq != 11 || string(data) != "eleven" {
		t.Fatalf("get: seq=%d data=%q ok=%v", seq, data, ok)
	}
}

func TestCkptStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenCheckpointStore(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("APCK checkpoint payload")
	if _, ok, err := s.Put("build-42", 4096, want); err != nil || !ok {
		t.Fatalf("put: ok=%v err=%v", ok, err)
	}

	// A "restarted" node (fresh store over the same dir) still serves the
	// replica it confirmed.
	s2, err := OpenCheckpointStore(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq, data, ok := s2.Get("build-42")
	if !ok || seq != 4096 || !bytes.Equal(data, want) {
		t.Fatalf("reloaded: seq=%d ok=%v data match=%v", seq, ok, bytes.Equal(data, want))
	}

	s2.Drop("build-42")
	if _, _, ok := s2.Get("build-42"); ok {
		t.Fatal("dropped session still served")
	}
	s3, err := OpenCheckpointStore(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s3.Get("build-42"); ok {
		t.Fatal("dropped session resurrected after reopen")
	}
}

// TestCkptStoreDiscardsTornFiles: a log with no intact record — torn,
// empty, bit-flipped, not a log, or a file of the pre-log RCK1 format — is
// discarded and counted on reload, never served as a confirmed checkpoint;
// so is the temp file a crash inside a log replacement leaves behind,
// however recently written. Files that are not the store's — other names,
// and the .apck logs of older single-node daemons — are left alone.
func TestCkptStoreDiscardsTornFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenCheckpointStore(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Put("good", 7, []byte("intact")); err != nil || !ok {
		t.Fatalf("put: ok=%v err=%v", ok, err)
	}

	src := filepath.Join(t.TempDir(), "src.rck")
	if err := NewCheckpointLog(src).Append(9, []byte("payload")); err != nil {
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
		{".crashed.rck.tmp2718281828", []byte("x")},
		{".writing.rck.tmp3141592653", []byte("x")},
		{"crashed.apck", whole},
		{".crashed.apck.tmp2718281828", []byte("x")},
		{".notes", []byte("x")},
		{"other.json", []byte("x")},
	} {
		if err := os.WriteFile(filepath.Join(dir, tc.name), tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	discarded := obs.NewRegistry().Scope("test").Counter("discarded")
	s2, err := OpenCheckpointStore(dir, nil, discarded)
	if err != nil {
		t.Fatal(err)
	}
	if n := discarded.Load(); n != 5 {
		t.Errorf("discarded %d logs, want the 5 without an intact record", n)
	}
	for _, id := range []string{"torn", "empty", "flipped", "notmagic", "legacy", "crashed"} {
		if _, _, ok := s2.Get(id); ok {
			t.Errorf("reload serves %s", id)
		}
	}
	// The wreckage is cleaned off disk too; everything else stays.
	entries, _ := os.ReadDir(dir)
	var left []string
	for _, e := range entries {
		left = append(left, e.Name())
	}
	if want := []string{".crashed.apck.tmp2718281828", ".notes", "crashed.apck", "good.rck", "other.json"}; !slices.Equal(left, want) {
		t.Fatalf("reload left %v, want %v", left, want)
	}
	// The reloaded log takes further puts, and they survive another reload.
	if _, ok, err := s2.Put("good", 8, []byte("newer")); err != nil || !ok {
		t.Fatalf("put after reload: ok=%v err=%v", ok, err)
	}
	s3, err := OpenCheckpointStore(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq, data, ok := s3.Get("good"); !ok || seq != 8 || string(data) != "newer" {
		t.Fatalf("second reload: seq=%d data=%q ok=%v", seq, data, ok)
	}
}

// TestCkptStorePutNotBlockedByOtherSession: sessions do not wait on each
// other's disk. While one session's append is held inside its write,
// another session's put, get and drop complete, and the held put lands
// once released.
func TestCkptStorePutNotBlockedByOtherSession(t *testing.T) {
	s, err := OpenCheckpointStore(t.TempDir(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Put("slow", 1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	log := s.byID["slow"].log
	log.size = 0 // the next append replaces the file through writeAtomic
	log.writeAtomic = func(path string, data []byte, perm os.FileMode) error {
		close(entered)
		<-release
		return backend.WriteAtomic(path, data, perm)
	}
	slow := make(chan error, 1)
	go func() {
		_, _, err := s.Put("slow", 2, []byte("two"))
		slow <- err
	}()
	<-entered

	fast := make(chan error, 1)
	go func() {
		_, ok, err := s.Put("fast", 1, []byte("fast"))
		if err == nil && !ok {
			t.Error("fast put rejected")
		}
		if seq, data, ok := s.Get("fast"); !ok || seq != 1 || string(data) != "fast" {
			t.Errorf("fast get: seq=%d data=%q ok=%v", seq, data, ok)
		}
		s.Drop("fast")
		fast <- err
	}()
	select {
	case err := <-fast:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("another session's put waited on the held append")
	}

	close(release)
	if err := <-slow; err != nil {
		t.Fatal(err)
	}
	if seq, data, ok := s.Get("slow"); !ok || seq != 2 || string(data) != "two" {
		t.Fatalf("slow get: seq=%d data=%q ok=%v", seq, data, ok)
	}
}

func flipByte(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0x01
	return out
}
