package profio

// The torn-checkpoint sweep: a crash can tear the checkpoint log at any
// byte, and a disk can flip any bit of it. Recovery over every possible
// prefix, and over every single-bit corruption, must either resume from
// the last record that is intact in what is left — byte-identical to an
// uninterrupted run — or, when no record is intact, fail with a
// diagnosable ErrCheckpointCorrupt. It must never panic, hang, or resume
// from a torn or corrupt record. A document that reaches the profiler
// without a log around it (one recovered from a replica) is swept the same
// way on its own: its checks must reject every prefix and every flip.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"aprof/internal/core"
	"aprof/internal/trace"
)

// logRecord is one record's place in a log image.
type logRecord struct {
	start, end int // byte range of the whole framed record
	seq        uint64
	doc        []byte
}

// logRecords splits a log image that a CheckpointLog wrote into its
// records, trusting the framing (the image is known to be intact).
func logRecords(t *testing.T, raw []byte) []logRecord {
	t.Helper()
	var recs []logRecord
	for off := ckptLogHdrLen; off < len(raw); {
		n := int(binary.LittleEndian.Uint32(raw[off+8:]))
		end := off + ckptRecHdrLen + n + ckptRecCRCLen
		if end > len(raw) {
			t.Fatalf("record at %d overruns the %d-byte log", off, len(raw))
		}
		recs = append(recs, logRecord{
			start: off, end: end,
			seq: binary.LittleEndian.Uint64(raw[off:]),
			doc: raw[off+ckptRecHdrLen : off+ckptRecHdrLen+n],
		})
		off = end
	}
	return recs
}

// makeKilledCheckpoint runs a stream that crashes after its third batch,
// checkpointing every batch, and returns the trace bytes, the three-record
// log it left behind, and the reference profile bytes.
func makeKilledCheckpoint(t *testing.T) (enc, ckpt, want []byte) {
	t.Helper()
	tr := trace.Random(trace.RandomConfig{Seed: 50, Ops: 600, Threads: 2})
	enc = encodeTrace(t, tr)

	ref, err := ProfileStream(context.Background(), bytes.NewReader(enc), core.DefaultConfig(), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want = writeBytes(t, ref)

	path := filepath.Join(t.TempDir(), "torn.apck")
	_, err = ProfileStream(context.Background(), bytes.NewReader(enc), core.DefaultConfig(), StreamOptions{
		BatchSize:       32,
		CheckpointPath:  path,
		CheckpointEvery: 1,
		OnBatch: func(batch int, delivered uint64) error {
			if batch == 3 {
				return errKill
			}
			return nil
		},
	})
	if !errors.Is(err, errKill) {
		t.Fatalf("crash injection failed: %v", err)
	}
	ckpt, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(logRecords(t, ckpt)); n != 3 {
		t.Fatalf("killed run left %d records, want 3", n)
	}
	return enc, ckpt, want
}

// resumeWith writes blob as the checkpoint log and attempts a resume.
func resumeWith(t *testing.T, dir string, enc, blob []byte) ([]byte, error) {
	t.Helper()
	path := filepath.Join(dir, "ck.apck")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	ps, err := ResumeStream(context.Background(), bytes.NewReader(enc), path, core.DefaultConfig(), StreamOptions{})
	if err != nil {
		return nil, err
	}
	return writeBytes(t, ps), nil
}

// recoverySweep checks one damaged log image against the record recovery
// must pick: recs[k-1], or none when k is 0. Each distinct outcome is also
// resumed once through ResumeStream and compared with the uninterrupted
// run (resumed records the identical bytes of a record already checked).
type recoverySweep struct {
	t       *testing.T
	dir     string
	enc     []byte
	want    []byte
	recs    []logRecord
	resumed map[int]bool
}

func (s *recoverySweep) check(what string, blob []byte, k int) {
	t := s.t
	t.Helper()
	seq, doc, err := lastCheckpointRecord(blob)
	if k == 0 {
		if !errors.Is(err, core.ErrCheckpointCorrupt) {
			t.Fatalf("%s: recovery = (seq %d, %v), want ErrCheckpointCorrupt", what, seq, err)
		}
	} else {
		rec := s.recs[k-1]
		if err != nil {
			t.Fatalf("%s: recovery failed, want record %d: %v", what, k, err)
		}
		if seq != rec.seq || !bytes.Equal(doc, rec.doc) {
			t.Fatalf("%s: recovered seq %d (%d bytes), want record %d (seq %d)", what, seq, len(doc), k, rec.seq)
		}
	}
	if s.resumed[k] {
		return
	}
	s.resumed[k] = true
	got, err := resumeWith(t, s.dir, s.enc, blob)
	switch {
	case k == 0 && !errors.Is(err, core.ErrCheckpointCorrupt):
		t.Fatalf("%s: resume err = %v, want ErrCheckpointCorrupt", what, err)
	case k > 0 && err != nil:
		t.Fatalf("%s: resume from record %d: %v", what, k, err)
	case k > 0 && !bytes.Equal(got, s.want):
		t.Fatalf("%s: resumed from record %d, profile differs from the uninterrupted run", what, k)
	}
}

// TestTornCheckpointEveryPrefix truncates the log at every byte boundary.
// A prefix recovers the last record it holds whole; a prefix holding none
// fails with ErrCheckpointCorrupt.
func TestTornCheckpointEveryPrefix(t *testing.T) {
	enc, ckpt, want := makeKilledCheckpoint(t)
	s := &recoverySweep{t: t, dir: t.TempDir(), enc: enc, want: want, recs: logRecords(t, ckpt), resumed: map[int]bool{}}
	for cut := 0; cut <= len(ckpt); cut++ {
		k := 0
		for k < len(s.recs) && s.recs[k].end <= cut {
			k++
		}
		s.check(fmt.Sprintf("prefix %d/%d", cut, len(ckpt)), ckpt[:cut], k)
	}
	if len(s.resumed) != len(s.recs)+1 {
		t.Fatalf("sweep reached %d outcomes, want %d", len(s.resumed), len(s.recs)+1)
	}
}

// TestCorruptCheckpointEveryBitFlip flips every bit of the log, one at a
// time. A flip in the file header leaves nothing to recover; a flip in
// record k ends the scan there, so recovery takes record k−1.
func TestCorruptCheckpointEveryBitFlip(t *testing.T) {
	enc, ckpt, want := makeKilledCheckpoint(t)
	s := &recoverySweep{t: t, dir: t.TempDir(), enc: enc, want: want, recs: logRecords(t, ckpt), resumed: map[int]bool{}}
	blob := bytes.Clone(ckpt)
	for pos := range blob {
		k := 0
		for k < len(s.recs) && s.recs[k].end <= pos {
			k++
		}
		for bit := 0; bit < 8; bit++ {
			blob[pos] ^= 1 << bit
			s.check(fmt.Sprintf("bit %d of byte %d", bit, pos), blob, k)
			blob[pos] ^= 1 << bit
		}
	}
}

// resumeDoc attempts a resume from an in-memory checkpoint document, the
// path a record recovered from a replica takes without passing a log.
func resumeDoc(t *testing.T, enc, doc []byte) ([]byte, error) {
	t.Helper()
	ps, err := ResumeStreamFrom(context.Background(), bytes.NewReader(enc), doc, core.DefaultConfig(), StreamOptions{})
	if err != nil {
		return nil, err
	}
	return writeBytes(t, ps), nil
}

// TestTornCheckpointDocumentEveryPrefix truncates one APCK document at
// every byte, with no log framing around it to catch the tear: the
// document's own magic, version, length and CRC checks must reject every
// proper prefix as ErrCheckpointCorrupt, and the whole document must
// resume to the byte-identical profile.
func TestTornCheckpointDocumentEveryPrefix(t *testing.T) {
	enc, ckpt, want := makeKilledCheckpoint(t)
	doc := logRecords(t, ckpt)[0].doc
	for cut := 0; cut < len(doc); cut++ {
		if _, err := resumeDoc(t, enc, doc[:cut]); !errors.Is(err, core.ErrCheckpointCorrupt) {
			t.Fatalf("document prefix %d/%d: err = %v, want ErrCheckpointCorrupt", cut, len(doc), err)
		}
	}
	got, err := resumeDoc(t, enc, doc)
	if err != nil {
		t.Fatalf("resume from the whole document: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed profile differs from the uninterrupted run")
	}
}

// TestCorruptCheckpointDocumentEveryBitFlip flips every bit of one APCK
// document, one at a time, with no log CRC in front of it: every flip must
// be caught as ErrCheckpointCorrupt — none may be profiled from silently.
func TestCorruptCheckpointDocumentEveryBitFlip(t *testing.T) {
	enc, ckpt, _ := makeKilledCheckpoint(t)
	doc := bytes.Clone(logRecords(t, ckpt)[0].doc)
	for pos := range doc {
		for bit := 0; bit < 8; bit++ {
			doc[pos] ^= 1 << bit
			if _, err := resumeDoc(t, enc, doc); !errors.Is(err, core.ErrCheckpointCorrupt) {
				t.Fatalf("document bit %d of byte %d flipped: err = %v, want ErrCheckpointCorrupt", bit, pos, err)
			}
			doc[pos] ^= 1 << bit
		}
	}
}

// TestCheckpointTrailingGarbage: bytes after the last record are a torn
// tail; they are ignored and the resume still succeeds.
func TestCheckpointTrailingGarbage(t *testing.T) {
	enc, ckpt, want := makeKilledCheckpoint(t)
	dir := t.TempDir()

	blob := append(bytes.Clone(ckpt), []byte("trailing junk that must be ignored")...)
	got, err := resumeWith(t, dir, enc, blob)
	if err != nil {
		t.Fatalf("resume with trailing garbage: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("trailing garbage changed the resumed profile")
	}
}

// TestCorruptCheckpointErrorIsDiagnosable: the error must say what is
// wrong, not just that something is. A bare APCK document, as versions
// before the log wrote, is not a log; a log record holding a version-3
// document is a log whose checkpoint cannot be resumed.
func TestCorruptCheckpointErrorIsDiagnosable(t *testing.T) {
	enc, ckpt, _ := makeKilledCheckpoint(t)
	dir := t.TempDir()
	first := logRecords(t, ckpt)[0]
	v3 := bytes.Clone(first.doc)
	v3[len("APCK")] = 3

	cases := []struct {
		name string
		blob []byte
		want string
	}{
		{"empty", nil, "corrupt checkpoint"},
		{"bad magic", append([]byte("NOPE"), ckpt[4:]...), "bad magic"},
		{"truncated first record", ckpt[:(first.start+first.end)/2], "no intact record"},
		{"bare document", first.doc, "bad magic"},
		{"version-3 document", appendCheckpointRecord(bytes.Clone(ckpt[:ckptLogHdrLen]), first.seq, v3), "unsupported checkpoint version 3"},
	}
	for _, tc := range cases {
		_, err := resumeWith(t, dir, enc, tc.blob)
		if err == nil {
			t.Fatalf("%s: resume succeeded", tc.name)
		}
		if !errContains(err, tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
		if !errors.Is(err, core.ErrCheckpointCorrupt) {
			t.Errorf("%s: err = %v, not ErrCheckpointCorrupt", tc.name, err)
		}
	}
}
