package repo

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
)

// Pack file format (version 1). A pack is an immutable container of
// checksummed blobs; the repository content-addresses the whole file
// (pack name = hex SHA-256 of its bytes), so packs are never modified in
// place — GC rewrites and deletes them whole.
//
//	offset 0:  magic "APK1" (4 bytes)
//	           blob data, concatenated in header order
//	header:    per blob: type (1) | length (u32 LE) | id (32, SHA-256 of
//	           the blob data) | crc (u32 LE, CRC-32/IEEE of the blob data)
//	footer:    blob count (u32 LE) | header CRC (u32 LE, over the header
//	           bytes) | magic "1KPA" (4 bytes)
//
// The header lives at the END so a pack can be written in one forward
// pass, and a reader can recover every blob's location from the trailing
// fixed-size footer without touching the data region. Offsets are not
// stored — they are derived cumulatively — and the decoder insists the
// derived layout covers the data region exactly, so there is exactly one
// byte encoding of any accepted pack: DecodePack(b).Encode() == b.
const (
	packMagic      = "APK1"
	packEndMagic   = "1KPA"
	packEntrySize  = 1 + 4 + 32 + 4 // type + length + id + crc
	packFooterSize = 4 + 4 + 4      // count + header crc + end magic
	// packTargetSize is the flush threshold for the in-memory pack under
	// construction: once the pending data region exceeds it, the repository
	// seals and saves the pack.
	packTargetSize = 4 << 20
	// maxBlobSize bounds one blob (and therefore one decoder allocation).
	maxBlobSize = 256 << 20
)

// BlobType tags what a blob holds.
type BlobType uint8

// BlobProfile is a whole profile document, addressed by the SHA-256 of
// its bytes. It is the only type this version reads or writes: types 1
// and 2 were the chunks and manifests of version-1 stores, and a pack
// holding them fails to decode, so an old chunk is never served as a
// profile.
const BlobProfile BlobType = 3

func (t BlobType) valid() bool { return t == BlobProfile }

// ID is a blob's content address: the SHA-256 of its bytes.
type ID [32]byte

// IDOf hashes data.
func IDOf(data []byte) ID { return sha256.Sum256(data) }

// String renders the full lowercase-hex form.
func (id ID) String() string { return hex.EncodeToString(id[:]) }

// Short renders the conventional 8-hex-digit prefix for display.
func (id ID) Short() string { return hex.EncodeToString(id[:4]) }

// ParseID parses the 64-hex-digit form.
func ParseID(s string) (ID, error) {
	var id ID
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(id) {
		return id, fmt.Errorf("repo: invalid blob id %q", s)
	}
	copy(id[:], b)
	return id, nil
}

// Blob is one decoded pack entry.
type Blob struct {
	Type BlobType
	ID   ID
	Data []byte
}

// ErrPackCorrupt wraps every structural pack-decode failure, so callers
// can distinguish "damaged pack" from backend I/O errors.
var ErrPackCorrupt = errors.New("repo: corrupt pack")

func packCorrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrPackCorrupt, fmt.Sprintf(format, args...))
}

// EncodePack serializes blobs into the pack byte format. Blob order is
// preserved; the caller is responsible for IDs matching the data (the
// repository always computes them with IDOf).
func EncodePack(blobs []Blob) []byte {
	dataLen := 0
	for i := range blobs {
		dataLen += len(blobs[i].Data)
	}
	buf := bytes.NewBuffer(make([]byte, 0, 4+dataLen+len(blobs)*packEntrySize+packFooterSize))
	buf.WriteString(packMagic)
	for i := range blobs {
		buf.Write(blobs[i].Data)
	}
	header := make([]byte, 0, len(blobs)*packEntrySize)
	var scratch [4]byte
	for i := range blobs {
		b := &blobs[i]
		header = append(header, byte(b.Type))
		binary.LittleEndian.PutUint32(scratch[:], uint32(len(b.Data)))
		header = append(header, scratch[:]...)
		header = append(header, b.ID[:]...)
		binary.LittleEndian.PutUint32(scratch[:], crc32.ChecksumIEEE(b.Data))
		header = append(header, scratch[:]...)
	}
	buf.Write(header)
	binary.Write(buf, binary.LittleEndian, uint32(len(blobs)))
	binary.Write(buf, binary.LittleEndian, crc32.ChecksumIEEE(header))
	buf.WriteString(packEndMagic)
	return buf.Bytes()
}

// packEntry is one blob's location inside a pack, as recovered from the
// header (the index stores these).
type packEntry struct {
	typ     BlobType
	id      ID
	offset  uint32
	length  uint32
	crcWant uint32
}

// decodePackHeader validates the pack's framing and checksummed header and
// returns every blob's derived location, without reading blob data. The
// returned entries are in file order with strictly cumulative offsets.
func decodePackHeader(data []byte) ([]packEntry, error) {
	if len(data) < len(packMagic)+packFooterSize {
		return nil, packCorrupt("short file (%d bytes)", len(data))
	}
	if string(data[:4]) != packMagic {
		return nil, packCorrupt("bad magic")
	}
	foot := data[len(data)-packFooterSize:]
	if string(foot[8:]) != packEndMagic {
		return nil, packCorrupt("bad end magic")
	}
	count := binary.LittleEndian.Uint32(foot[0:4])
	headerCRC := binary.LittleEndian.Uint32(foot[4:8])
	// Bound count by what could possibly fit before allocating anything.
	maxCount := (len(data) - len(packMagic) - packFooterSize) / packEntrySize
	if int64(count) > int64(maxCount) {
		return nil, packCorrupt("blob count %d exceeds file capacity %d", count, maxCount)
	}
	headerStart := len(data) - packFooterSize - int(count)*packEntrySize
	header := data[headerStart : len(data)-packFooterSize]
	if crc32.ChecksumIEEE(header) != headerCRC {
		return nil, packCorrupt("header checksum mismatch")
	}
	entries := make([]packEntry, count)
	offset := uint32(len(packMagic))
	for i := range entries {
		e := header[i*packEntrySize:]
		typ := BlobType(e[0])
		if !typ.valid() {
			return nil, packCorrupt("blob %d: unknown type %d", i, e[0])
		}
		length := binary.LittleEndian.Uint32(e[1:5])
		if length > maxBlobSize {
			return nil, packCorrupt("blob %d: length %d exceeds limit", i, length)
		}
		if int64(offset)+int64(length) > int64(headerStart) {
			return nil, packCorrupt("blob %d: data overruns header", i)
		}
		entries[i] = packEntry{typ: typ, offset: offset, length: length}
		copy(entries[i].id[:], e[5:37])
		entries[i].crcWant = binary.LittleEndian.Uint32(e[37:41])
		offset += length
	}
	// The derived layout must cover the data region exactly: any slack
	// would be bytes no entry accounts for (a torn or tampered pack), and
	// would also break the encode round-trip guarantee.
	if int(offset) != headerStart {
		return nil, packCorrupt("data region is %d bytes, entries cover %d",
			headerStart-len(packMagic), offset-uint32(len(packMagic)))
	}
	return entries, nil
}

// DecodePack fully decodes and verifies a pack: framing, header checksum,
// and every blob's CRC-32 and SHA-256. Every accepted pack re-encodes
// byte-identically: EncodePack(DecodePack(b)) == b.
func DecodePack(data []byte) ([]Blob, error) {
	entries, err := decodePackHeader(data)
	if err != nil {
		return nil, err
	}
	blobs := make([]Blob, len(entries))
	for i, e := range entries {
		blob := data[e.offset : e.offset+e.length]
		if crc32.ChecksumIEEE(blob) != e.crcWant {
			return nil, packCorrupt("blob %d (%s): crc mismatch", i, e.id.Short())
		}
		if IDOf(blob) != e.id {
			return nil, packCorrupt("blob %d: content hash does not match id %s", i, e.id.Short())
		}
		blobs[i] = Blob{Type: e.typ, ID: e.id, Data: blob}
	}
	return blobs, nil
}
