package gmr

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestFlatBytesPinned holds the GMRFLAT1 and GMRDLTA1 layouts fixed: the full
// image and the delta of a churned store hash to recorded digests, so a
// changed byte in a checkpoint payload fails here first. Both carry arena key
// bytes, so the digests also pin the key codec (types.Value.EncodeKey); they
// were recorded at flat image version 3 and delta version 2.
func TestFlatBytesPinned(t *testing.T) {
	img, delta := deltaFixture(t, 42)
	for _, tc := range []struct {
		what string
		data []byte
		want string
	}{
		{"AppendFlat", img, "a3dec726adc689b8d198e52779e16ef6b5f2c5deb221cdf200ad219c5fe3a838"},
		{"AppendFlatDelta", delta, "aa90c2b0102c290e397cafeb8159f9b57db39a7df7df8ce6fdff02d5b9a23d62"},
	} {
		sum := sha256.Sum256(tc.data)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s bytes changed: sha256 %s (%d bytes), pinned %s", tc.what, got, len(tc.data), tc.want)
		}
	}
}
