package repo

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"anole/internal/testutil"
)

// sharedBundleSHA256 is the SHA-256 of the shared test fixture's bundle
// as WriteBundle encodes it. Every weight, validation F1 and decision
// head parameter feeds it, so any change to training, detection or
// sampling arithmetic, however small, moves it.
const sharedBundleSHA256 = "22049dcfa87a886d4bc72f3857e6c101bd1cf728f7dbdd6cfee37e1c20e42db1"

// TestSharedBundleDigest pins the profiled fixture bit for bit. It runs
// on amd64 only: there Go never fuses a multiply and an add into one
// FMA, which is what makes the arithmetic, and so the digest, fixed;
// other architectures may fuse and land on different (equally valid)
// bits.
func TestSharedBundleDigest(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBundle(&buf, testutil.Shared(t).Bundle); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != sharedBundleSHA256 {
		t.Fatalf("shared bundle SHA-256 %s, want %s", got, sharedBundleSHA256)
	}
}
