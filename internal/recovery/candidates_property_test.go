package recovery

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestEnumeratorMatchesExhaustiveSort cross-validates the lazy Algorithm-1
// enumerator against brute force: for random likelihood tables over a small
// value alphabet, the first K candidates must be exactly the K best scores
// of the exhaustive enumeration.
func TestEnumeratorMatchesExhaustiveSort(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		L := 2 + rng.Intn(3) // 2..4 positions
		alphabet := 4 + rng.Intn(4)
		lks := make([]*ByteLikelihoods, L)
		for r := range lks {
			var l ByteLikelihoods
			for v := range l {
				l[v] = math.Inf(-1)
			}
			for v := 0; v < alphabet; v++ {
				l[v] = rng.NormFloat64()
			}
			lks[r] = &l
		}
		// Exhaustive scores.
		var all []float64
		var walk func(r int, score float64)
		walk = func(r int, score float64) {
			if r == L {
				all = append(all, score)
				return
			}
			for v := 0; v < alphabet; v++ {
				walk(r+1, score+lks[r][v])
			}
		}
		walk(0, 0)
		sort.Sort(sort.Reverse(sort.Float64Slice(all)))

		K := 10 + rng.Intn(20)
		if K > len(all) {
			K = len(all)
		}
		cands := firstCandidates(t, lks, K)
		if len(cands) != K {
			t.Fatalf("trial %d: got %d candidates, want %d", trial, len(cands), K)
		}
		for i := 0; i < K; i++ {
			if math.Abs(cands[i].Score-all[i]) > 1e-9 {
				t.Fatalf("trial %d rank %d: score %v, exhaustive %v", trial, i, cands[i].Score, all[i])
			}
		}
	}
}

// TestDoubleByteMatchesExhaustiveRandom repeats the cross-validation for
// Algorithm 2 on random chains and charsets.
func TestDoubleByteMatchesExhaustiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 10; trial++ {
		L := 4 + rng.Intn(2) // total length 4..5
		charset := []byte{'a', 'b', 'c', 'd', 'e'}[:3+rng.Intn(3)]
		lks := make([]*PairLikelihoods, L-1)
		for i := range lks {
			lks[i] = new(PairLikelihoods)
			for j := range lks[i] {
				lks[i][j] = rng.NormFloat64()
			}
		}
		m1, mL := charset[0], charset[len(charset)-1]

		var all []float64
		interior := L - 2
		idx := make([]int, interior)
		for {
			pt := make([]byte, L)
			pt[0] = m1
			pt[L-1] = mL
			for i, ci := range idx {
				pt[i+1] = charset[ci]
			}
			all = append(all, ScoreSequence(lks, pt))
			// Odometer.
			k := 0
			for ; k < interior; k++ {
				idx[k]++
				if idx[k] < len(charset) {
					break
				}
				idx[k] = 0
			}
			if k == interior {
				break
			}
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(all)))

		K := 5 + rng.Intn(15)
		if K > len(all) {
			K = len(all)
		}
		cands, err := new(PairDecoder).Decode(lks, m1, mL, K, charset)
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) != K {
			t.Fatalf("trial %d: %d candidates, want %d", trial, len(cands), K)
		}
		for i := 0; i < K; i++ {
			if math.Abs(cands[i].Score-all[i]) > 1e-9 {
				t.Fatalf("trial %d rank %d: score %v, exhaustive %v", trial, i, cands[i].Score, all[i])
			}
		}
	}
}

// TestDoubleByteRequestMoreThanSpace asks for more candidates than exist;
// the list must contain exactly the whole space, still sorted.
func TestDoubleByteRequestMoreThanSpace(t *testing.T) {
	charset := []byte{'x', 'y'}
	lks := make([]*PairLikelihoods, 3) // length 4: m1 + 2 interior + mL
	rng := rand.New(rand.NewSource(5))
	for i := range lks {
		lks[i] = new(PairLikelihoods)
		for j := range lks[i] {
			lks[i][j] = rng.NormFloat64()
		}
	}
	cands, err := new(PairDecoder).Decode(lks, 'x', 'y', 1000, charset)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 4 { // 2^2 interiors
		t.Fatalf("%d candidates, want 4", len(cands))
	}
	seen := map[string]bool{}
	for i, c := range cands {
		if seen[string(c.Plaintext)] {
			t.Fatalf("duplicate %q", c.Plaintext)
		}
		seen[string(c.Plaintext)] = true
		if i > 0 && c.Score > cands[i-1].Score+1e-12 {
			t.Fatal("not sorted")
		}
	}
}

// TestEnumeratorDeepWalkNoDuplicates walks deep into a full 256-value
// space and checks uniqueness and monotonicity.
func TestEnumeratorDeepWalkNoDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	lks := make([]*ByteLikelihoods, 3)
	for r := range lks {
		var l ByteLikelihoods
		for v := range l {
			l[v] = rng.NormFloat64()
		}
		lks[r] = &l
	}
	e, err := NewSingleByteEnumerator(lks)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, 1<<15)
	prev := math.Inf(1)
	for i := 0; i < 1<<15; i++ {
		c, ok := e.Next()
		if !ok {
			t.Fatalf("exhausted at %d of 2^24 space", i)
		}
		if c.Score > prev+1e-9 {
			t.Fatalf("score rose at %d: %v -> %v", i, prev, c.Score)
		}
		prev = c.Score
		k := string(c.Plaintext)
		if seen[k] {
			t.Fatalf("duplicate at %d: %x", i, c.Plaintext)
		}
		seen[k] = true
	}
}
