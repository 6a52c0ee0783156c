package tkip

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestBatchMatchesEncapsulate pins the Encapsulator against the scalar
// reference: Frame and Batch must produce Encapsulate's frames bit for bit
// at arbitrary TSCs, for partial and multi-group batches, every worker
// count, and a dst slice reused (bodies recycled) across calls.
func TestBatchMatchesEncapsulate(t *testing.T) {
	s, msdu := testSession(), testMSDU()
	e := s.Encapsulator(msdu)
	rng := rand.New(rand.NewSource(1))
	tsc := func() TSC { return TSC(rng.Uint64() & 0xffffffffffff) }
	for i := 0; i < 64; i++ {
		want := s.Encapsulate(msdu, tsc())
		if got := e.Frame(want.TSC); !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("Frame(%#x) differs from Encapsulate", want.TSC)
		}
	}
	for _, n := range []int{1, 31, 33, 2048 + 5} {
		for workers := 1; workers <= 4; workers++ {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				dst := make([]Frame, n)
				for round := 0; round < 2; round++ {
					for i := range dst {
						dst[i].TSC = tsc()
					}
					e.Batch(dst, workers)
					for i, f := range dst {
						want := s.Encapsulate(msdu, f.TSC)
						if !bytes.Equal(f.Body, want.Body) {
							t.Fatalf("round %d frame %d (TSC %#x) differs from Encapsulate", round, i, f.TSC)
						}
					}
				}
			})
		}
	}
}
