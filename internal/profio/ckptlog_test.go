package profio

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"aprof/internal/core"
)

// testDocs returns n distinct pseudo-random documents of varying sizes.
func testDocs(n int) [][]byte {
	rng := rand.New(rand.NewSource(int64(n)))
	docs := make([][]byte, n)
	for i := range docs {
		docs[i] = make([]byte, 1+rng.Intn(300))
		rng.Read(docs[i])
	}
	return docs
}

// checkLast requires the log at path to recover (seq, doc).
func checkLast(t *testing.T, path string, seq uint64, doc []byte) {
	t.Helper()
	gotSeq, gotDoc, err := ReadCheckpointLog(path)
	if err != nil {
		t.Fatalf("reading log: %v", err)
	}
	if gotSeq != seq || !bytes.Equal(gotDoc, doc) {
		t.Fatalf("log recovers seq %d (%d bytes), want seq %d (%d bytes)", gotSeq, len(gotDoc), seq, len(doc))
	}
}

// equalDocs returns n distinct pseudo-random documents of size bytes each.
func equalDocs(n, size int) [][]byte {
	rng := rand.New(rand.NewSource(int64(n * size)))
	docs := make([][]byte, n)
	for i := range docs {
		docs[i] = make([]byte, size)
		rng.Read(docs[i])
	}
	return docs
}

// TestCheckpointLogStaysBounded appends records of random, growing and
// equal sizes: every one is the log's last record as soon as Append
// returns; the file never grows past the log header plus ckptLogMaxRecords
// times the record just written; and a record is appended, not the file
// replaced, whenever that bound allows it — so equal-size records replace
// the file on every fifth write.
func TestCheckpointLogStaysBounded(t *testing.T) {
	growing := make([][]byte, 16)
	for i := range growing {
		growing[i] = bytes.Repeat([]byte{byte(i)}, 40+10*i)
	}
	for name, docs := range map[string][][]byte{
		"random":  testDocs(23),
		"growing": growing,
		"equal":   equalDocs(13, 100),
	} {
		path := filepath.Join(t.TempDir(), "s.apck")
		log := NewCheckpointLog(path)
		size, records := 0, 0
		for i, doc := range docs {
			seq := uint64(100 * (i + 1))
			if err := log.Append(seq, doc); err != nil {
				t.Fatal(err)
			}
			checkLast(t, path, seq, doc)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			rec := ckptRecHdrLen + len(doc) + ckptRecCRCLen
			if bound := ckptLogHdrLen + ckptLogMaxRecords*rec; len(raw) > bound {
				t.Fatalf("%s: after append %d the log is %d bytes, bound %d", name, i+1, len(raw), bound)
			}
			if i > 0 && size+rec <= ckptLogHdrLen+ckptLogMaxRecords*rec {
				records++
			} else {
				records = 1
			}
			if n := len(logRecords(t, raw)); n != records {
				t.Fatalf("%s: after append %d the log holds %d records, want %d", name, i+1, n, records)
			}
			if name == "equal" && records != i%ckptLogMaxRecords+1 {
				t.Fatalf("equal-size append %d left %d records, want %d", i+1, records, i%ckptLogMaxRecords+1)
			}
			size = len(raw)
		}
	}
}

// TestCheckpointLogNeverAppendsBehindOthersBytes: a fresh CheckpointLog over
// an existing file — one a crashed writer left with a torn tail, or one
// holding garbage — replaces it on its first write, so the new record is
// never stranded behind bytes recovery cannot get past.
func TestCheckpointLogNeverAppendsBehindOthersBytes(t *testing.T) {
	docs := testDocs(3)
	torn := filepath.Join(t.TempDir(), "torn.apck")
	first := NewCheckpointLog(torn)
	for i, doc := range docs[:2] {
		if err := first.Append(uint64(i+1), doc); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	for name, content := range map[string][]byte{
		"garbage":   []byte("not a log at all"),
		"torn tail": raw[:len(raw)-3],
	} {
		path := filepath.Join(t.TempDir(), "s.apck")
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := NewCheckpointLog(path).Append(3, docs[2]); err != nil {
			t.Fatal(err)
		}
		checkLast(t, path, 3, docs[2])
		after, _ := os.ReadFile(path)
		if n := len(logRecords(t, after)); n != 1 {
			t.Fatalf("%s: first write left %d records, want a one-record log", name, n)
		}
	}
}

// TestCheckpointLogCrashBeforeFsync covers a crash between an append's
// write and its fsync. The file may then keep none of the new record, any
// prefix of it, or — when the size reached the disk but the data did not —
// zeros in its place. Every such image recovers the last synced record,
// and the restarted writer's first append is recoverable behind it.
func TestCheckpointLogCrashBeforeFsync(t *testing.T) {
	docs := testDocs(4)
	dir := t.TempDir()
	path := filepath.Join(dir, "s.apck")
	log := NewCheckpointLog(path)
	for i, doc := range docs[:3] {
		if err := log.Append(uint64(i+1), doc); err != nil {
			t.Fatal(err)
		}
	}
	synced, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := appendCheckpointRecord(nil, 4, docs[3])
	var images [][]byte
	for cut := 0; cut < len(rec); cut++ {
		images = append(images, append(bytes.Clone(synced), rec[:cut]...))
		images = append(images, append(bytes.Clone(synced), make([]byte, cut+1)...))
	}
	for i, img := range images {
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		checkLast(t, path, 3, docs[2])
		if i%16 == 0 {
			restarted := NewCheckpointLog(path)
			if err := restarted.Append(5, docs[3]); err != nil {
				t.Fatal(err)
			}
			checkLast(t, path, 5, docs[3])
		}
	}
}

// TestCheckpointLogCrashMidCompaction interrupts the replacement that
// bounds the log: the temp file is written but the process dies before
// the rename. The log still recovers its previous last record, the stray
// temp file is recognized for the sweep, and the restarted writer's first
// write succeeds.
func TestCheckpointLogCrashMidCompaction(t *testing.T) {
	docs := equalDocs(ckptLogMaxRecords+2, 120)
	dir := t.TempDir()
	path := filepath.Join(dir, "s.rck")
	log := NewCheckpointLog(path)
	for i, doc := range docs[:ckptLogMaxRecords] {
		if err := log.Append(uint64(i+1), doc); err != nil {
			t.Fatal(err)
		}
	}
	errCrash := errors.New("crashed before the rename")
	log.writeAtomic = func(p string, data []byte, perm os.FileMode) error {
		tmp := filepath.Join(filepath.Dir(p), "."+filepath.Base(p)+".tmp"+strconv.Itoa(4242))
		if err := os.WriteFile(tmp, data[:len(data)/2], perm); err != nil {
			return err
		}
		return errCrash
	}

	next := uint64(ckptLogMaxRecords + 1)
	if err := log.Append(next, docs[ckptLogMaxRecords]); !errors.Is(err, errCrash) {
		t.Fatalf("compacting append = %v, want the injected crash", err)
	}
	checkLast(t, path, ckptLogMaxRecords, docs[ckptLogMaxRecords-1])
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var strays []string
	for _, e := range entries {
		if strayCheckpointTemp(e.Name()) {
			strays = append(strays, e.Name())
		}
	}
	if len(strays) != 1 {
		t.Fatalf("stray temp files %v, want the one the crash left", strays)
	}

	log = NewCheckpointLog(path)
	if err := log.Append(next+1, docs[ckptLogMaxRecords+1]); err != nil {
		t.Fatal(err)
	}
	checkLast(t, path, next+1, docs[ckptLogMaxRecords+1])
	raw, _ := os.ReadFile(path)
	if n := len(logRecords(t, raw)); n != 1 {
		t.Fatalf("retried compaction left %d records, want 1", n)
	}
}

func TestStrayCheckpointTemp(t *testing.T) {
	for name, want := range map[string]bool{
		".s.rck.tmp123":       true,
		"..x.rck.tmp9":        true,
		".s.rck.tmp":          false,
		".s.rck.tmp12a":       false,
		"s.rck.tmp123":        false,
		".s.rck":              false,
		".x.tmp1.rck":         false,
		".s.apck.tmp77":       false,
		".s.rck.tmp1.rck":     false,
		".notes":              false,
		".s.rck.tmp123.extra": false,
	} {
		if got := strayCheckpointTemp(name); got != want {
			t.Errorf("strayCheckpointTemp(%q) = %v, want %v", name, got, want)
		}
	}
}

func logHeader() []byte { return append([]byte(ckptLogMagic), ckptLogVersion) }

// checkpointLogFuzzSeeds are log images: empty, header only, intact logs
// of one and three records, a torn three-record log, a bit-flipped one,
// and a log behind a foreign header.
func checkpointLogFuzzSeeds(tb testing.TB) [][]byte {
	docs := testDocs(3)
	one := appendCheckpointRecord(logHeader(), 7, docs[0])
	three := bytes.Clone(one)
	three = appendCheckpointRecord(three, 8, docs[1])
	three = appendCheckpointRecord(three, 9, docs[2])
	flipped := bytes.Clone(three)
	flipped[len(one)+20] ^= 0x10
	return [][]byte{
		nil,
		logHeader(),
		one,
		three,
		three[:len(three)-5],
		flipped,
		append([]byte("APCK\x04"), three[ckptLogHdrLen:]...),
	}
}

// TestGenerateCheckpointLogCorpus regenerates the committed FuzzCheckpointLog
// seed corpus when PROFIO_GEN_TESTDATA is set; a normal run checks that it
// is there.
func TestGenerateCheckpointLogCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzCheckpointLog")
	if os.Getenv("PROFIO_GEN_TESTDATA") != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, s := range checkpointLogFuzzSeeds(t) {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s)) + ")\n"
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) < len(checkpointLogFuzzSeeds(t)) {
		t.Fatalf("checkpoint log corpus missing or short (regenerate with PROFIO_GEN_TESTDATA=1): %v", err)
	}
}

// FuzzCheckpointLog feeds arbitrary bytes to log recovery. It must never
// panic; it fails only with ErrCheckpointCorrupt; and a record it recovers
// is one a writer framed — its framing appears verbatim in the input, and
// a log holding just that record recovers it again.
func FuzzCheckpointLog(f *testing.F) {
	for _, s := range checkpointLogFuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		seq, doc, err := lastCheckpointRecord(raw)
		if err != nil {
			if !errors.Is(err, core.ErrCheckpointCorrupt) {
				t.Fatalf("error does not wrap ErrCheckpointCorrupt: %v", err)
			}
			if !strings.Contains(err.Error(), "checkpoint log") {
				t.Fatalf("error does not say the log is at fault: %v", err)
			}
			return
		}
		rec := appendCheckpointRecord(nil, seq, doc)
		if !bytes.Contains(raw[ckptLogHdrLen:], rec) {
			t.Fatalf("recovered seq %d (%d bytes) is not a framed record of the input", seq, len(doc))
		}
		again, againDoc, err := lastCheckpointRecord(append(logHeader(), rec...))
		if err != nil || again != seq || !bytes.Equal(againDoc, doc) {
			t.Fatalf("re-framed record does not recover: seq %d, err %v", again, err)
		}
	})
}
