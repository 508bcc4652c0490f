package gmr

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestFlatBytesPinned holds the GMRFLAT1 and GMRDLTA1 layouts fixed: the full
// image and the delta of a churned store hash to recorded digests, so a
// changed byte in a checkpoint payload fails here first.
func TestFlatBytesPinned(t *testing.T) {
	img, delta := deltaFixture(t, 42)
	for _, tc := range []struct {
		what string
		data []byte
		want string
	}{
		{"AppendFlat", img, "a2c02952b39c710104edd0c28c69bbf18218ee586dc269f6dddf337e6b42c1f1"},
		{"AppendFlatDelta", delta, "8ec3e2cdf7b59726babf865935eadb7d61ddbe1b36c38702a40280bf1e924a9c"},
	} {
		sum := sha256.Sum256(tc.data)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s bytes changed: sha256 %s (%d bytes), pinned %s", tc.what, got, len(tc.data), tc.want)
		}
	}
}
