package repo

import (
	"bytes"
	"testing"
)

// fuzzSeedPacks builds a few valid packs plus structured corruptions of
// them — the committed corpus under testdata/fuzz adds more.
func fuzzSeedPacks() [][]byte {
	var seeds [][]byte
	small := []byte("hello, profile store")
	doc := []byte(`{"schema":1,"routines":[]}`)
	blobs := []Blob{
		{Type: BlobProfile, ID: IDOf(small), Data: small},
		{Type: BlobProfile, ID: IDOf(doc), Data: doc},
	}
	valid := EncodePack(blobs)
	seeds = append(seeds, valid)
	seeds = append(seeds, EncodePack(nil))
	// Truncations at interesting boundaries.
	seeds = append(seeds, valid[:len(valid)/2], valid[:4], valid[:len(valid)-1])
	// One flipped byte in the data region and one in the footer.
	for _, pos := range []int{5, len(valid) - 3} {
		mut := append([]byte(nil), valid...)
		mut[pos] ^= 0x40
		seeds = append(seeds, mut)
	}
	// A well-framed pack holding a version-1 chunk (type 1), which the
	// decoder must refuse.
	seeds = append(seeds, EncodePack([]Blob{{Type: 1, ID: IDOf(small), Data: small}}))
	return seeds
}

// FuzzPackDecode feeds arbitrary bytes to the pack reader. The contract:
// never panic, never allocate beyond the input's own size class, and
// every ACCEPTED pack must round-trip byte-identically through the
// encoder — the format has exactly one encoding per value.
func FuzzPackDecode(f *testing.F) {
	for _, s := range fuzzSeedPacks() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		blobs, err := DecodePack(data)
		if err != nil {
			return
		}
		reencoded := EncodePack(blobs)
		if !bytes.Equal(reencoded, data) {
			t.Fatalf("accepted pack does not round-trip: %d bytes in, %d bytes out", len(data), len(reencoded))
		}
		// The header-only fast path must agree with the full decode.
		entries, herr := decodePackHeader(data)
		if herr != nil {
			t.Fatalf("DecodePack accepted what decodePackHeader rejects: %v", herr)
		}
		if len(entries) != len(blobs) {
			t.Fatalf("header sees %d blobs, full decode %d", len(entries), len(blobs))
		}
	})
}

// fuzzSeedIndexes mirrors fuzzSeedPacks for the index cache format.
func fuzzSeedIndexes() [][]byte {
	var seeds [][]byte
	packs := []IndexPack{
		{Name: "0b1", Blobs: []IndexBlob{
			{Type: BlobProfile, ID: IDOf([]byte("a")), Offset: 4, Length: 10},
			{Type: BlobProfile, ID: IDOf([]byte("b")), Offset: 14, Length: 20},
		}},
		{Name: "ff2", Blobs: []IndexBlob{
			{Type: BlobProfile, ID: IDOf([]byte("c")), Offset: 4, Length: 1},
		}},
	}
	valid := EncodeIndex(packs)
	seeds = append(seeds, valid, EncodeIndex(nil))
	seeds = append(seeds, valid[:len(valid)/2], valid[:4])
	for _, pos := range []int{6, len(valid) - 6} {
		mut := append([]byte(nil), valid...)
		mut[pos] ^= 0x08
		seeds = append(seeds, mut)
	}
	return seeds
}

// FuzzIndexDecode is the index-cache analogue of FuzzPackDecode: no
// panic, bounded allocation, and accepted decodes re-encode to the exact
// input bytes.
func FuzzIndexDecode(f *testing.F) {
	for _, s := range fuzzSeedIndexes() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		packs, err := DecodeIndex(data)
		if err != nil {
			return
		}
		reencoded := EncodeIndex(packs)
		if !bytes.Equal(reencoded, data) {
			t.Fatalf("accepted index does not round-trip: %d bytes in, %d bytes out", len(data), len(reencoded))
		}
		// A decoded cache must load into the in-memory index without
		// issue and serialize back to the same canonical entry set.
		ix := fromIndexPacks(packs)
		blobCount := 0
		for _, p := range packs {
			blobCount += len(p.Blobs)
		}
		if len(ix.blobs) > blobCount {
			t.Fatalf("in-memory index grew blobs: %d > %d", len(ix.blobs), blobCount)
		}
	})
}
