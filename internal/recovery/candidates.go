package recovery

import (
	"container/heap"
	"errors"
	"math"
	"sort"

	"rc4break/internal/dataset"
)

// Candidate is one plaintext guess with its log-likelihood score.
type Candidate struct {
	Plaintext []byte
	Score     float64
}

// SingleByteEnumerator lazily yields plaintext candidates in decreasing
// likelihood from per-position single-byte log-likelihoods — the role of
// the paper's Algorithm 1. Where Algorithm 1 materializes the N best
// candidates length by length, this enumerator performs a best-first walk
// of the rank lattice, which yields exactly the same order but lets callers
// walk arbitrarily deep lists without choosing N up front. That is what the
// TKIP attack needs: it traverses candidates until one passes the ICV check
// (§5.3, Figures 8 and 9), and the stopping depth is not known in advance.
type SingleByteEnumerator struct {
	// sortedVals[r][rank] is the plaintext byte with the rank-th highest
	// likelihood at position r; sortedScores[r][rank] its log-likelihood.
	sortedVals   [][]byte
	sortedScores [][]float64
	queue        candidateHeap
	seenGuard    map[string]struct{}
}

type heapNode struct {
	score float64
	ranks []uint8 // rank per position into sortedVals
}

type candidateHeap []heapNode

func (h candidateHeap) Len() int            { return len(h) }
func (h candidateHeap) Less(i, j int) bool  { return h[i].score > h[j].score } // max-heap
func (h candidateHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *candidateHeap) Push(x interface{}) { *h = append(*h, x.(heapNode)) }
func (h *candidateHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// NewSingleByteEnumerator builds an enumerator over len(likelihoods)
// plaintext byte positions.
func NewSingleByteEnumerator(likelihoods []*ByteLikelihoods) (*SingleByteEnumerator, error) {
	if len(likelihoods) == 0 {
		return nil, errors.New("recovery: no positions")
	}
	e := &SingleByteEnumerator{
		sortedVals:   make([][]byte, len(likelihoods)),
		sortedScores: make([][]float64, len(likelihoods)),
		seenGuard:    make(map[string]struct{}),
	}
	var first float64
	for r, l := range likelihoods {
		vals := make([]byte, 256)
		for v := range vals {
			vals[v] = byte(v)
		}
		sort.SliceStable(vals, func(a, b int) bool { return l[vals[a]] > l[vals[b]] })
		scores := make([]float64, 256)
		for rank, v := range vals {
			scores[rank] = l[v]
		}
		e.sortedVals[r] = vals
		e.sortedScores[r] = scores
		first += scores[0]
	}
	root := heapNode{score: first, ranks: make([]uint8, len(likelihoods))}
	heap.Push(&e.queue, root)
	e.seenGuard[string(root.ranks)] = struct{}{}
	return e, nil
}

// Next returns the next most likely candidate, or ok == false when the
// space (256^L candidates) is exhausted.
func (e *SingleByteEnumerator) Next() (Candidate, bool) {
	if e.queue.Len() == 0 {
		return Candidate{}, false
	}
	node := heap.Pop(&e.queue).(heapNode)
	// Children: bump the rank at each position. To avoid enumerating the
	// same rank vector twice we only bump positions at or after the last
	// non-zero rank (the standard lattice-enumeration de-duplication),
	// backed by a seen-set for safety at small depths.
	last := 0
	for r := len(node.ranks) - 1; r >= 0; r-- {
		if node.ranks[r] != 0 {
			last = r
			break
		}
	}
	for r := last; r < len(node.ranks); r++ {
		if int(node.ranks[r]) >= 255 {
			continue
		}
		child := heapNode{
			score: node.score - e.sortedScores[r][node.ranks[r]] + e.sortedScores[r][node.ranks[r]+1],
			ranks: append([]uint8(nil), node.ranks...),
		}
		child.ranks[r]++
		key := string(child.ranks)
		if _, dup := e.seenGuard[key]; dup {
			continue
		}
		e.seenGuard[key] = struct{}{}
		heap.Push(&e.queue, child)
	}
	pt := make([]byte, len(node.ranks))
	for r, rank := range node.ranks {
		pt[r] = e.sortedVals[r][rank]
	}
	return Candidate{Plaintext: pt, Score: node.score}, true
}

// CandidateSource yields plaintext candidates in decreasing likelihood —
// the decode-side currency of the online attack runtime. The lazy
// SingleByteEnumerator implements it directly (the TKIP search walks it
// until the ICV oracle accepts, without materializing the tail);
// materialized list-Viterbi output is adapted with SliceSource.
type CandidateSource interface {
	Next() (Candidate, bool)
}

type sliceSource struct{ cands []Candidate }

func (s *sliceSource) Next() (Candidate, bool) {
	if len(s.cands) == 0 {
		return Candidate{}, false
	}
	c := s.cands[0]
	s.cands = s.cands[1:]
	return c, true
}

// SliceSource adapts a materialized candidate list to CandidateSource.
func SliceSource(cands []Candidate) CandidateSource { return &sliceSource{cands: cands} }

// identityCharset is the full 256-value interior used when no charset
// restriction applies.
var identityCharset = func() (cs [256]byte) {
	for i := range cs {
		cs[i] = byte(i)
	}
	return
}()

// pairLevel holds the N-best prefix lists of one chain position, indexed by
// the position's plaintext byte value; values outside the active charset
// keep empty lists.
type pairLevel [256][]entry2

func (lv *pairLevel) reset() {
	for v := range lv {
		lv[v] = lv[v][:0]
	}
}

// PairDecoder runs Algorithm 2 decodes repeatedly, reusing its N-best
// tables between calls and fanning the per-value merges of each chain
// position over a worker pool. The online attack runtime decodes at every
// cadence point, and one decode materializes up to n backpointer entries
// for each of 256 values per position — far too much to reallocate per
// round; a decoder amortizes the tables across the whole run. Results are
// bitwise identical for any Workers value (each target value's merge only
// reads the previous level and writes its own list) and identical to a
// fresh decoder's: reused capacity never changes merge order.
type PairDecoder struct {
	// Workers bounds the per-level merge parallelism; 0 means GOMAXPROCS.
	Workers int
	// levels[r-2] holds the N-best lists of chain position r (paper
	// indexing: 2..L); grown lazily to the longest chain decoded.
	levels []*pairLevel
	// fhs[v] is the merge frontier heap reused by target value v. Within a
	// level each target merges exactly once, so per-value scratch is
	// race-free under the worker pool.
	fhs [256]frontierHeap
}

// Decode implements the paper's Algorithm 2: a list-Viterbi (N-best) decode
// over double-byte likelihoods modeled as a first-order time-inhomogeneous
// HMM (§4.4). likelihoods[r] scores the plaintext pair at positions
// (r+1, r+2) in 1-indexed paper notation; the plaintext has
// len(likelihoods)+1 bytes of which the first and last are known (m1, mL).
// charset, when non-nil, restricts the interior bytes to the allowed set —
// the §6.2 RFC 6265 cookie-alphabet optimization.
func (d *PairDecoder) Decode(likelihoods []*PairLikelihoods, m1, mL byte, n int, charset []byte) ([]Candidate, error) {
	if n <= 0 {
		return nil, errors.New("recovery: need n > 0")
	}
	L := len(likelihoods) + 1 // plaintext length including m1 and mL
	if L < 3 {
		return nil, errors.New("recovery: need at least one unknown byte between m1 and mL")
	}
	interior := charset
	if interior == nil {
		interior = identityCharset[:]
	}
	if len(interior) == 0 {
		return nil, errors.New("recovery: empty charset")
	}
	// Deduplicate the charset (first occurrence wins): the per-level merge
	// fans targets over workers with per-value output lists and scratch, so
	// a duplicated value would be merged concurrently by two goroutines.
	var seen [256]bool
	dedup := interior[:0:0]
	for _, v := range interior {
		if !seen[v] {
			seen[v] = true
			dedup = append(dedup, v)
		}
	}
	interior = dedup
	for len(d.levels) < L-1 {
		d.levels = append(d.levels, new(pairLevel))
	}

	// Position 2 (paper indexing): prefixes m1‖µ2.
	first := d.levels[0]
	first.reset()
	for _, v := range interior {
		first[v] = append(first[v], entry2{score: likelihoods[0].At(m1, v)})
	}

	// Each level merges the N best entries ending in each target value from
	// all predecessor lists. Targets are independent — they share the
	// (read-only) previous level and write disjoint lists — so the merge
	// loop fans out over the worker pool without changing any output bit.
	for r := 3; r <= L; r++ {
		prev, cur := d.levels[r-3], d.levels[r-2]
		cur.reset()
		targets := interior
		if r == L {
			targets = []byte{mL}
		}
		lk := likelihoods[r-2]
		err := dataset.ForShards(d.Workers, len(targets), func(ti int) error {
			v := targets[ti]
			cur[v] = mergeNBest(cur[v], &d.fhs[v], prev, interior, lk, v, n)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	final := d.levels[L-2][mL]
	out := make([]Candidate, len(final))
	for i, e := range final {
		pt := make([]byte, L)
		pt[L-1] = mL
		v, idx := e.prevV, e.prevI
		for r := L - 1; r >= 2; r-- {
			pt[r-1] = v
			ent := d.levels[r-2][v][idx]
			v, idx = ent.prevV, ent.prevI
		}
		pt[0] = m1
		out[i] = Candidate{Plaintext: pt, Score: e.score}
	}
	return out, nil
}

// mergeNBest appends the n best extensions ending in value v to dst
// (len(dst) == 0 on entry; its capacity is reused), drawing from the
// per-predecessor sorted lists with a heap (each predecessor list is
// already sorted, so the best unseen element per predecessor is a frontier).
// fhp is caller-owned heap scratch, reset here and handed back with its
// capacity for the next merge.
func mergeNBest(dst []entry2, fhp *frontierHeap, prev *pairLevel, interior []byte, lk *PairLikelihoods, v byte, n int) []entry2 {
	fh := (*fhp)[:0]
	for _, pv := range interior {
		pl := prev[pv]
		if len(pl) == 0 {
			continue
		}
		fh = append(fh, frontier{score: pl[0].score + lk.At(pv, v), pv: pv, idx: 0})
	}
	heap.Init(&fh)
	for len(dst) < n && fh.Len() > 0 {
		top := fh[0]
		dst = append(dst, entry2{score: top.score, prevV: top.pv, prevI: top.idx})
		pl := prev[top.pv]
		if int(top.idx)+1 < len(pl) {
			fh[0] = frontier{
				score: pl[top.idx+1].score + lk.At(top.pv, v),
				pv:    top.pv,
				idx:   top.idx + 1,
			}
			heap.Fix(&fh, 0)
		} else {
			// Inline heap.Pop without the interface boxing (the popped
			// frontier is discarded): same comparisons, same heap order.
			last := len(fh) - 1
			fh[0] = fh[last]
			fh = fh[:last]
			if last > 1 {
				heap.Fix(&fh, 0)
			}
		}
	}
	*fhp = fh
	return dst
}

// entry2 is one N-best list element: a prefix score plus the backpointer to
// the (value, rank) it extends.
type entry2 struct {
	score float64
	prevV byte
	prevI uint32
}

// frontier is the best unconsumed element of one predecessor list.
type frontier struct {
	score float64
	pv    byte
	idx   uint32
}

type frontierHeap []frontier

func (h frontierHeap) Len() int            { return len(h) }
func (h frontierHeap) Less(i, j int) bool  { return h[i].score > h[j].score }
func (h frontierHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *frontierHeap) Push(x interface{}) { *h = append(*h, x.(frontier)) }
func (h *frontierHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// ScoreSequence computes the total log-likelihood of a full plaintext under
// the double-byte likelihood chain — a convenience for tests and for
// checking where the true plaintext ranks.
func ScoreSequence(likelihoods []*PairLikelihoods, pt []byte) float64 {
	if len(pt) != len(likelihoods)+1 {
		return math.Inf(-1)
	}
	var sum float64
	for r := 0; r < len(likelihoods); r++ {
		sum += likelihoods[r].At(pt[r], pt[r+1])
	}
	return sum
}
