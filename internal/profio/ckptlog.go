package profio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sync"

	"aprof/internal/core"
	"aprof/internal/repo/backend"
)

// A CheckpointLog is the one on-disk container of checkpoints: a streaming
// run's own file (StreamOptions.CheckpointPath) and each session a
// CheckpointStore holds, on a single aprofd node or a replicating one, are
// one log file each. Successive checkpoints are appended to it as records,
// each made durable by one fsync of the file, instead of rewriting the
// file per checkpoint.
//
// File layout: "APCL" magic and a version byte, then records. A record is
//
//	uint64 seq | uint32 length | length bytes of APCK document | uint32 CRC
//
// all little-endian, the CRC-32 (IEEE) covering seq, length and document.
// The seq is the checkpoint's delivered-event count. Recovery reads the
// records in order and stops at the first one that is short or fails its
// CRC — the torn tail of an append a crash interrupted — and resumes from
// the last intact record before it.
//
// A log never appends behind bytes it has not written itself: the first
// write of a CheckpointLog, and every write that would make the file larger
// than the log header plus ckptLogMaxRecords times the record being
// written, replaces the file with a one-record log through
// backend.WriteAtomic (temp file, fsync, rename, directory fsync). A crash
// leaves the previous durable file or the new one, never a file without an
// intact record. The bound is in bytes, not records, so a session whose
// checkpoints grow — as a profiler's state does — keeps appending to the
// log it installed; for equal-size records the fifth write replaces.
type CheckpointLog struct {
	path string
	// size is the file's length as this log last wrote it; 0 until its
	// first write and after a failed one.
	size int
	// writeAtomic installs a replacement file: backend.WriteAtomic, or in
	// the crash tests a write that dies before the rename.
	writeAtomic func(path string, data []byte, perm os.FileMode) error
}

// recordBufs recycles the buffers records are framed in. Logs live as long
// as one session, and a record is as large as a checkpoint, so a buffer
// per log would be allocated again for every session.
var recordBufs sync.Pool

const (
	ckptLogMagic   = "APCL"
	ckptLogVersion = 1
	ckptLogHdrLen  = len(ckptLogMagic) + 1
	ckptRecHdrLen  = 8 + 4
	ckptRecCRCLen  = 4
	// ckptLogMaxRecords bounds a log file: it never grows past the header
	// plus this many times the record last written to it.
	ckptLogMaxRecords = 4
)

// NewCheckpointLog returns the log at path. Nothing is read or written
// until the first Append.
func NewCheckpointLog(path string) *CheckpointLog {
	return &CheckpointLog{path: path, writeAtomic: backend.WriteAtomic}
}

// Append makes one checkpoint document durable as the log's newest record
// and returns once it is: after the fsync of the appended record, or after
// the replacement file and its directory are synced.
func (l *CheckpointLog) Append(seq uint64, doc []byte) error {
	if uint64(len(doc)) > math.MaxUint32 {
		return fmt.Errorf("profio: checkpoint of %d bytes exceeds the log's record limit", len(doc))
	}
	bp, _ := recordBufs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	buf := append((*bp)[:0], ckptLogMagic...)
	buf = append(buf, ckptLogVersion)
	buf = appendCheckpointRecord(buf, seq, doc)
	rec := len(buf) - ckptLogHdrLen
	size := l.size + rec
	var err error
	if l.size == 0 || size > ckptLogHdrLen+ckptLogMaxRecords*rec {
		size = len(buf)
		err = l.writeAtomic(l.path, buf, 0o644)
	} else {
		err = l.appendRecord(buf[ckptLogHdrLen:])
	}
	*bp = buf
	recordBufs.Put(bp)
	if err != nil {
		// The file may now end in a torn record; the next write replaces
		// it rather than append behind it.
		l.size = 0
		return err
	}
	l.size = size
	return nil
}

// appendRecord appends one framed record to the existing file and syncs it.
func (l *CheckpointLog) appendRecord(rec []byte) error {
	f, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	_, err = f.Write(rec)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// appendCheckpointRecord appends one framed record to buf.
func appendCheckpointRecord(buf []byte, seq uint64, doc []byte) []byte {
	at := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(doc)))
	buf = append(buf, doc...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[at:]))
}

// ReadCheckpointLog returns the last intact record of the log file at path.
// A missing file is reported as such (os.ErrNotExist); a file that is not a
// log, or holds no intact record, wraps core.ErrCheckpointCorrupt.
func ReadCheckpointLog(path string) (seq uint64, doc []byte, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	return lastCheckpointRecord(raw)
}

// lastCheckpointRecord returns the last intact record of a log image. The
// returned document aliases raw.
func lastCheckpointRecord(raw []byte) (seq uint64, doc []byte, err error) {
	if len(raw) < ckptLogHdrLen {
		return 0, nil, fmt.Errorf("%w: checkpoint log header truncated (%d bytes)", core.ErrCheckpointCorrupt, len(raw))
	}
	if string(raw[:len(ckptLogMagic)]) != ckptLogMagic {
		return 0, nil, fmt.Errorf("%w: not a checkpoint log (bad magic %q)", core.ErrCheckpointCorrupt, raw[:len(ckptLogMagic)])
	}
	if v := raw[len(ckptLogMagic)]; v != ckptLogVersion {
		return 0, nil, fmt.Errorf("%w: unsupported checkpoint log version %d", core.ErrCheckpointCorrupt, v)
	}
	found := false
	for rest := raw[ckptLogHdrLen:]; len(rest) >= ckptRecHdrLen+ckptRecCRCLen; {
		n := binary.LittleEndian.Uint32(rest[8:])
		if uint64(n) > uint64(len(rest)-ckptRecHdrLen-ckptRecCRCLen) {
			break
		}
		end := ckptRecHdrLen + int(n)
		if crc32.ChecksumIEEE(rest[:end]) != binary.LittleEndian.Uint32(rest[end:]) {
			break
		}
		seq, doc, found = binary.LittleEndian.Uint64(rest), rest[ckptRecHdrLen:end], true
		rest = rest[end+ckptRecCRCLen:]
	}
	if !found {
		return 0, nil, fmt.Errorf("%w: checkpoint log holds no intact record (torn or corrupt write)", core.ErrCheckpointCorrupt)
	}
	return seq, doc, nil
}
