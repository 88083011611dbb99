package forecast

import (
	"bytes"
	"sort"
	"testing"
)

// fuzzSeedArtifacts encodes one artifact per kind family (baseline,
// tree, forest, GBT) from a small deterministic fit, seeding the fuzz
// corpus with real envelopes so mutations explore the format's interior
// rather than bouncing off the magic check. It also returns a forest's
// envelopes with each column-list corruption (see
// corruptColumnArtifacts), checksums intact.
func fuzzSeedArtifacts(f *testing.F) (seeds, corrupt [][]byte) {
	c := testContext(f, 80, 6, 61)
	c.ForestTrees = 4
	models := append([]Model{AverageModel{}}, flatModels()...)
	for _, m := range models {
		tr, err := m.Fit(c, BeHot, 30, 2, 5)
		if err != nil {
			f.Fatalf("%s: fit: %v", m.Name(), err)
		}
		data, err := EncodeModel(tr)
		if err != nil {
			f.Fatalf("%s: encode: %v", m.Name(), err)
		}
		seeds = append(seeds, data)
		if m.Name() == "RF-R" {
			bad := corruptColumnArtifacts(f, tr)
			names := make([]string, 0, len(bad))
			for name := range bad {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				corrupt = append(corrupt, bad[name])
			}
		}
	}
	return seeds, corrupt
}

// FuzzDecodeModel: DecodeModel on arbitrary bytes must reject corrupt
// input with an error — truncated, bit-flipped, oversized-length and
// misaligned envelopes included — and never panic. Whatever decodes
// cleanly must also re-encode and behave identically when decoded from a
// misaligned buffer (which forces the copy fallback instead of zero-copy
// aliasing).
func FuzzDecodeModel(f *testing.F) {
	seeds, corrupt := fuzzSeedArtifacts(f)
	for _, s := range corrupt {
		f.Add(s)
	}
	for _, s := range seeds {
		f.Add(s)
		f.Add(s[:len(s)-1])
		// Bit-flip corpora: single flips in the integrity block, the meta
		// section and the payload tail — regression seeds for the checksum
		// gate (each must be rejected, never decoded into garbage).
		for _, pos := range []int{8, len(s) / 2, len(s) - 3} {
			mut := append([]byte(nil), s...)
			mut[pos] ^= 0x10
			f.Add(mut)
		}
	}
	f.Add([]byte("HOTM"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeModel(data)
		shifted := make([]byte, len(data)+1)
		copy(shifted[1:], data)
		trOdd, errOdd := DecodeModel(shifted[1:])
		if (err == nil) != (errOdd == nil) {
			t.Fatalf("alignment changed the verdict: aligned err=%v, misaligned err=%v", err, errOdd)
		}
		if err != nil {
			return
		}
		re, err := EncodeModel(tr)
		if err != nil {
			t.Fatalf("decoded artifact does not re-encode: %v", err)
		}
		reOdd, err := EncodeModel(trOdd)
		if err != nil || !bytes.Equal(re, reOdd) {
			t.Fatalf("misaligned decode re-encodes differently (err=%v)", err)
		}
		if tr.Bytes() <= 0 {
			t.Fatal("decoded artifact reports non-positive footprint")
		}
	})
}
