package repo

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
)

// The index maps blob ID → (pack, offset, length, type). It is a pure
// cache: the authoritative copy of this mapping is the pack headers
// themselves, and Open can always rebuild it by scanning them. A cached
// index file (backend type "index") makes reopening a large store cheap;
// it records the exact pack set it covers, so a cache that disagrees with
// the packs actually present — a crash between a pack write and the index
// rewrite, say — is detected and discarded, never trusted.

// indexEntry locates one blob.
type indexEntry struct {
	pack   string // pack name (hex of the pack file's SHA-256)
	typ    BlobType
	offset uint32
	length uint32
}

// index is the in-memory blob location map. packs counts the blobs each
// pack holds in it, so the pack population is known without a walk.
type index struct {
	blobs map[ID]indexEntry
	packs map[string]int
}

func newIndex() *index {
	return &index{blobs: make(map[ID]indexEntry), packs: make(map[string]int)}
}

func (ix *index) lookup(id ID) (indexEntry, bool) {
	e, ok := ix.blobs[id]
	return e, ok
}

func (ix *index) has(id ID) bool {
	_, ok := ix.blobs[id]
	return ok
}

// addPack records every entry of a decoded pack header. Duplicate blob IDs
// (the same content stored in two packs, e.g. after an interrupted GC
// repack) keep the first-seen location — both are valid. With overwrite
// set, the new location takes precedence instead: GC uses this when
// repacking live blobs out of packs about to be deleted.
func (ix *index) addPack(name string, entries []packEntry, overwrite bool) {
	for _, e := range entries {
		old, dup := ix.blobs[e.id]
		if dup {
			if !overwrite {
				continue
			}
			ix.unref(old.pack)
		}
		ix.blobs[e.id] = indexEntry{pack: name, typ: e.typ, offset: e.offset, length: e.length}
		ix.packs[name]++
	}
}

// unref drops one blob from a pack's count, and the pack with its last.
func (ix *index) unref(pack string) {
	ix.packs[pack]--
	if ix.packs[pack] == 0 {
		delete(ix.packs, pack)
	}
}

// dropPack forgets every blob located in the named pack.
func (ix *index) dropPack(name string) {
	for id, e := range ix.blobs {
		if e.pack == name {
			delete(ix.blobs, id)
		}
	}
	delete(ix.packs, name)
}

// packNames returns the sorted set of packs the index references.
func (ix *index) packNames() []string {
	names := make([]string, 0, len(ix.packs))
	for n := range ix.packs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Index cache file format (version 1):
//
//	magic "AIX1" (4)
//	pack count (u32 LE)
//	per pack, sorted by name:
//	    name length (u8) | name | blob count (u32 LE)
//	    per blob, sorted by offset:
//	        type (1) | id (32) | offset (u32 LE) | length (u32 LE)
//	crc (u32 LE, CRC-32/IEEE over everything before it)
//	magic "1XIA" (4)
//
// The encoder emits packs sorted by name and blobs sorted by offset, and
// the decoder rejects any other order (and any duplicate), so an accepted
// index has exactly one byte encoding: EncodeIndex(DecodeIndex(b)) == b.
const (
	indexMagic      = "AIX1"
	indexEndMagic   = "1XIA"
	indexBlobSize   = 1 + 32 + 4 + 4
	indexTrailerLen = 4 + 4
)

// ErrIndexCorrupt wraps every structural index-decode failure.
var ErrIndexCorrupt = errors.New("repo: corrupt index")

func indexCorrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrIndexCorrupt, fmt.Sprintf(format, args...))
}

// IndexPack is the serialized form of one pack's entries.
type IndexPack struct {
	Name  string
	Blobs []IndexBlob
}

// IndexBlob is the serialized form of one blob location.
type IndexBlob struct {
	Type   BlobType
	ID     ID
	Offset uint32
	Length uint32
}

// EncodeIndex serializes the canonical form: packs sorted by name, blobs
// sorted by offset. The input must already be canonical (the repository's
// toIndexPacks produces it); EncodeIndex sorts defensively anyway so the
// emitted bytes are always canonical.
func EncodeIndex(packs []IndexPack) []byte {
	sorted := make([]IndexPack, len(packs))
	copy(sorted, packs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	var buf bytes.Buffer
	buf.WriteString(indexMagic)
	binary.Write(&buf, binary.LittleEndian, uint32(len(sorted)))
	var scratch [4]byte
	for i := range sorted {
		p := &sorted[i]
		blobs := make([]IndexBlob, len(p.Blobs))
		copy(blobs, p.Blobs)
		sort.Slice(blobs, func(a, b int) bool { return blobs[a].Offset < blobs[b].Offset })
		buf.WriteByte(byte(len(p.Name)))
		buf.WriteString(p.Name)
		binary.Write(&buf, binary.LittleEndian, uint32(len(blobs)))
		for _, b := range blobs {
			buf.WriteByte(byte(b.Type))
			buf.Write(b.ID[:])
			binary.LittleEndian.PutUint32(scratch[:], b.Offset)
			buf.Write(scratch[:])
			binary.LittleEndian.PutUint32(scratch[:], b.Length)
			buf.Write(scratch[:])
		}
	}
	binary.LittleEndian.PutUint32(scratch[:], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(scratch[:])
	buf.WriteString(indexEndMagic)
	return buf.Bytes()
}

// DecodeIndex parses and validates an index cache file. It enforces the
// canonical ordering (packs strictly ascending by name, blobs strictly
// ascending by offset within a pack) and bounds every count by the bytes
// actually remaining, so hostile input cannot force a large allocation.
func DecodeIndex(data []byte) ([]IndexPack, error) {
	if len(data) < len(indexMagic)+4+indexTrailerLen {
		return nil, indexCorrupt("short file (%d bytes)", len(data))
	}
	if string(data[:4]) != indexMagic {
		return nil, indexCorrupt("bad magic")
	}
	if string(data[len(data)-4:]) != indexEndMagic {
		return nil, indexCorrupt("bad end magic")
	}
	body := data[:len(data)-indexTrailerLen]
	wantCRC := binary.LittleEndian.Uint32(data[len(data)-8 : len(data)-4])
	if crc32.ChecksumIEEE(body) != wantCRC {
		return nil, indexCorrupt("checksum mismatch")
	}
	pos := 4
	packCount := binary.LittleEndian.Uint32(body[pos : pos+4])
	pos += 4
	// Each pack costs at least 1 (name len) + 1 (name) + 4 (count) bytes.
	if int64(packCount) > int64(len(body)-pos)/6 {
		return nil, indexCorrupt("pack count %d exceeds file capacity", packCount)
	}
	packs := make([]IndexPack, 0, packCount)
	var prevName string
	for pi := uint32(0); pi < packCount; pi++ {
		if pos+1 > len(body) {
			return nil, indexCorrupt("truncated at pack %d name length", pi)
		}
		nameLen := int(body[pos])
		pos++
		if nameLen == 0 {
			return nil, indexCorrupt("pack %d: empty name", pi)
		}
		if pos+nameLen+4 > len(body) {
			return nil, indexCorrupt("truncated at pack %d name", pi)
		}
		name := string(body[pos : pos+nameLen])
		pos += nameLen
		if pi > 0 && name <= prevName {
			return nil, indexCorrupt("pack names not strictly ascending (%q after %q)", name, prevName)
		}
		prevName = name
		blobCount := binary.LittleEndian.Uint32(body[pos : pos+4])
		pos += 4
		if int64(blobCount)*indexBlobSize > int64(len(body)-pos) {
			return nil, indexCorrupt("pack %q: blob count %d exceeds file capacity", name, blobCount)
		}
		blobs := make([]IndexBlob, blobCount)
		for bi := range blobs {
			e := body[pos:]
			typ := BlobType(e[0])
			if !typ.valid() {
				return nil, indexCorrupt("pack %q blob %d: unknown type %d", name, bi, e[0])
			}
			blobs[bi].Type = typ
			copy(blobs[bi].ID[:], e[1:33])
			blobs[bi].Offset = binary.LittleEndian.Uint32(e[33:37])
			blobs[bi].Length = binary.LittleEndian.Uint32(e[37:41])
			if bi > 0 && blobs[bi].Offset <= blobs[bi-1].Offset {
				return nil, indexCorrupt("pack %q: blob offsets not strictly ascending", name)
			}
			pos += indexBlobSize
		}
		packs = append(packs, IndexPack{Name: name, Blobs: blobs})
	}
	if pos != len(body) {
		return nil, indexCorrupt("%d trailing bytes after last pack", len(body)-pos)
	}
	return packs, nil
}

// toIndexPacks converts the in-memory index to its canonical serialized
// form.
func (ix *index) toIndexPacks() []IndexPack {
	byPack := make(map[string][]IndexBlob)
	for id, e := range ix.blobs {
		byPack[e.pack] = append(byPack[e.pack], IndexBlob{Type: e.typ, ID: id, Offset: e.offset, Length: e.length})
	}
	packs := make([]IndexPack, 0, len(byPack))
	for name, blobs := range byPack {
		sort.Slice(blobs, func(i, j int) bool { return blobs[i].Offset < blobs[j].Offset })
		packs = append(packs, IndexPack{Name: name, Blobs: blobs})
	}
	sort.Slice(packs, func(i, j int) bool { return packs[i].Name < packs[j].Name })
	return packs
}

// fromIndexPacks loads a decoded cache file into a fresh in-memory index.
func fromIndexPacks(packs []IndexPack) *index {
	ix := newIndex()
	for _, p := range packs {
		entries := make([]packEntry, len(p.Blobs))
		for i, b := range p.Blobs {
			entries[i] = packEntry{typ: b.Type, id: b.ID, offset: b.Offset, length: b.Length}
		}
		ix.addPack(p.Name, entries, false)
	}
	return ix
}
