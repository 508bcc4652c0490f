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
// were recorded at flat image version 2.
func TestFlatBytesPinned(t *testing.T) {
	img, delta := deltaFixture(t, 42)
	for _, tc := range []struct {
		what string
		data []byte
		want string
	}{
		{"AppendFlat", img, "4269a394012a854cdd5f8fc5c92c3455a0d62afc3b7f4106fa7c7be5d4ab9890"},
		{"AppendFlatDelta", delta, "22afd6dd124733398484241313f6eb2ec55b39f07da61f03560e878f08ef9fea"},
	} {
		sum := sha256.Sum256(tc.data)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s bytes changed: sha256 %s (%d bytes), pinned %s", tc.what, got, len(tc.data), tc.want)
		}
	}
}
