package recovery

import (
	"bytes"
	"container/heap"
	"math/rand"
	"testing"
)

// randomChain builds a random pair-likelihood chain of the given length.
func randomChain(rng *rand.Rand, links int) []*PairLikelihoods {
	lks := make([]*PairLikelihoods, links)
	for i := range lks {
		lks[i] = new(PairLikelihoods)
		for j := range lks[i] {
			lks[i][j] = rng.NormFloat64()
		}
	}
	return lks
}

// TestPairDecoderWorkerInvarianceAndReuse pins the PairDecoder contract the
// online runtime depends on: output is bitwise identical for any worker
// count, identical to a fresh single-use decoder's output, and identical
// across repeated Decode calls on one decoder (table reuse never changes
// merge order), including calls with different depths and charsets in
// between.
func TestPairDecoderWorkerInvarianceAndReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	charset := []byte("abcdefghij0123456789")
	lks := randomChain(rng, 6)
	m1, mL := charset[3], charset[7]
	const n = 200

	ref, err := new(PairDecoder).Decode(lks, m1, mL, n, charset)
	if err != nil {
		t.Fatal(err)
	}

	same := func(label string, got []Candidate) {
		t.Helper()
		if len(got) != len(ref) {
			t.Fatalf("%s: %d candidates, want %d", label, len(got), len(ref))
		}
		for i := range got {
			if !bytes.Equal(got[i].Plaintext, ref[i].Plaintext) || got[i].Score != ref[i].Score {
				t.Fatalf("%s: candidate %d differs (%q %v vs %q %v)", label, i,
					got[i].Plaintext, got[i].Score, ref[i].Plaintext, ref[i].Score)
			}
		}
	}

	for _, workers := range []int{1, 2, 5, 16} {
		d := &PairDecoder{Workers: workers}
		got, err := d.Decode(lks, m1, mL, n, charset)
		if err != nil {
			t.Fatal(err)
		}
		same("fresh decoder", got)

		// Interleave decodes with other shapes, then repeat the original:
		// reused capacity must not leak between calls.
		if _, err := d.Decode(lks[:3], 'a', 'b', 17, []byte("abcxyz")); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Decode(lks, m1, mL, 31, nil); err != nil {
			t.Fatal(err)
		}
		got, err = d.Decode(lks, m1, mL, n, charset)
		if err != nil {
			t.Fatal(err)
		}
		same("reused decoder", got)
	}
}

// TestSliceSource checks the CandidateSource adapter drains in order.
func TestSliceSource(t *testing.T) {
	cands := []Candidate{
		{Plaintext: []byte("a"), Score: 3},
		{Plaintext: []byte("b"), Score: 1},
	}
	src := SliceSource(cands)
	for i := 0; i < len(cands); i++ {
		c, ok := src.Next()
		if !ok || !bytes.Equal(c.Plaintext, cands[i].Plaintext) {
			t.Fatalf("candidate %d: got %q ok=%v", i, c.Plaintext, ok)
		}
	}
	if _, ok := src.Next(); ok {
		t.Fatal("source did not report exhaustion")
	}
}

// TestPairLikelihoodsSparseIntoOverwrites confirms Into overwrites stale
// table contents rather than accumulating into them.
func TestPairLikelihoodsSparseIntoOverwrites(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	hist := make([]uint64, 65536)
	for i := range hist {
		hist[i] = uint64(rng.Intn(50))
	}
	cells := []BiasedCell{{K1: 3, K2: 7, P: 2.0 / 65536}}
	want, err := PairLikelihoodsSparse(hist, cells, 1.0/65536)
	if err != nil {
		t.Fatal(err)
	}
	got := new(PairLikelihoods)
	for i := range got {
		got[i] = 1e9 // stale garbage that must be overwritten
	}
	if err := PairLikelihoodsSparseInto(got, hist, cells, 1.0/65536); err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatal("Into path differs from allocating path")
	}
}

// refFrontierHeap is the container/heap frontier heap the typed sift-down
// replaced.
type refFrontierHeap []frontier

func (h refFrontierHeap) Len() int            { return len(h) }
func (h refFrontierHeap) Less(i, j int) bool  { return h[i].score > h[j].score }
func (h refFrontierHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refFrontierHeap) Push(x interface{}) { *h = append(*h, x.(frontier)) }
func (h *refFrontierHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// refDecode is Algorithm 2 as it ran on container/heap: one sequential
// pass, a fresh table per level, heap.Init/Pop/Fix in the merge and the
// pair scores read from the table at every pop.
func refDecode(likelihoods []*PairLikelihoods, m1, mL byte, n int, charset []byte) []Candidate {
	interior := charset
	if interior == nil {
		interior = identityCharset[:]
	}
	L := len(likelihoods) + 1
	levels := make([]*pairLevel, L-1)
	levels[0] = new(pairLevel)
	for _, v := range interior {
		levels[0][v] = []entry2{{score: likelihoods[0].At(m1, v)}}
	}
	for r := 3; r <= L; r++ {
		prev, cur := levels[r-3], new(pairLevel)
		levels[r-2] = cur
		targets := interior
		if r == L {
			targets = []byte{mL}
		}
		lk := likelihoods[r-2]
		for _, v := range targets {
			var fh refFrontierHeap
			for _, pv := range interior {
				if pl := prev[pv]; len(pl) > 0 {
					fh = append(fh, frontier{score: pl[0].score + lk.At(pv, v), pv: pv})
				}
			}
			heap.Init(&fh)
			for len(cur[v]) < n && fh.Len() > 0 {
				top := fh[0]
				cur[v] = append(cur[v], entry2{score: top.score, prevV: top.pv, prevI: top.idx})
				if pl := prev[top.pv]; int(top.idx)+1 < len(pl) {
					fh[0] = frontier{score: pl[top.idx+1].score + lk.At(top.pv, v), pv: top.pv, idx: top.idx + 1}
					heap.Fix(&fh, 0)
				} else {
					heap.Pop(&fh)
				}
			}
		}
	}
	var out []Candidate
	for _, e := range levels[L-2][mL] {
		pt := make([]byte, L)
		pt[0], pt[L-1] = m1, mL
		v, idx := e.prevV, e.prevI
		for r := L - 1; r >= 2; r-- {
			pt[r-1] = v
			ent := levels[r-2][v][idx]
			v, idx = ent.prevV, ent.prevI
		}
		out = append(out, Candidate{Plaintext: pt, Score: e.score})
	}
	return out
}

// TestPairDecoderMatchesContainerHeap pins the typed merge heap bitwise
// against the container/heap merge it replaced. Likelihoods are quantized
// to a handful of integer levels, so scores tie constantly and the heap's
// tie order decides which candidates make each list and in what order:
// plaintexts, scores and order must all agree.
func TestPairDecoderMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	charsets := [][]byte{nil, []byte("abcdefghij0123456789"), []byte("xy")}
	for trial := 0; trial < 12; trial++ {
		lks := make([]*PairLikelihoods, 2+rng.Intn(5))
		levels := 1 + rng.Intn(4)
		for i := range lks {
			lks[i] = new(PairLikelihoods)
			for j := range lks[i] {
				lks[i][j] = float64(rng.Intn(levels))
			}
		}
		charset := charsets[trial%len(charsets)]
		n := []int{1, 7, 64, 300}[trial%4]
		m1, mL := byte('a'+trial), byte('j'-trial%3)
		want := refDecode(lks, m1, mL, n, charset)
		got, err := (&PairDecoder{Workers: 1 + trial%3}).Decode(lks, m1, mL, n, charset)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d candidates, container/heap merge gives %d", trial, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i].Plaintext, want[i].Plaintext) || got[i].Score != want[i].Score {
				t.Fatalf("trial %d: candidate %d is %q %v, container/heap merge gives %q %v",
					trial, i, got[i].Plaintext, got[i].Score, want[i].Plaintext, want[i].Score)
			}
		}
	}
}
