// Package recovery implements the paper's §4 plaintext-recovery machinery:
// Bayesian likelihood estimation from ciphertext statistics (single-byte,
// double-byte, and ABSAB-differential), combination of multiple bias types,
// and generation of plaintext candidate lists in decreasing likelihood
// (Algorithm 1 for single-byte likelihoods, Algorithm 2 — a list-Viterbi —
// for double-byte likelihoods).
//
// All likelihoods are kept in log space for numeric stability, as §4.4
// recommends; only likelihood *ratios* matter for ranking, so constant
// additive terms are dropped freely.
package recovery

import (
	"errors"
	"math"

	"rc4break/internal/biases"
)

// ByteLikelihoods holds log-likelihoods for a single plaintext byte:
// L[µ] ~ log Pr[C | P = µ] (eq. 11/12).
type ByteLikelihoods [256]float64

// PairLikelihoods holds log-likelihoods for a plaintext byte pair:
// L[µ1*256+µ2] ~ log Pr[C | P = (µ1,µ2)] (eq. 13).
type PairLikelihoods [65536]float64

// At returns the log-likelihood of the pair (µ1, µ2).
func (p *PairLikelihoods) At(mu1, mu2 byte) float64 {
	return p[int(mu1)*256+int(mu2)]
}

// Add combines another likelihood table into this one — the eq. 25 product
// of likelihoods, a sum in log space.
func (p *PairLikelihoods) Add(other *PairLikelihoods) {
	for i, v := range other {
		p[i] += v
	}
}

// Best returns the most likely pair.
func (p *PairLikelihoods) Best() (mu1, mu2 byte) {
	best := math.Inf(-1)
	var bi int
	for i, v := range p {
		if v > best {
			best = v
			bi = i
		}
	}
	return byte(bi >> 8), byte(bi & 0xff)
}

// AddByte folds single-byte log-likelihoods for one half of the pair into
// the table (which = 0 for µ1, 1 for µ2) — how single-byte and double-byte
// evidence are combined under eq. 25.
func (p *PairLikelihoods) AddByte(l *ByteLikelihoods, which int) {
	if which == 0 {
		for m1 := 0; m1 < 256; m1++ {
			v := l[m1]
			row := p[m1*256 : m1*256+256]
			for m2 := range row {
				row[m2] += v
			}
		}
		return
	}
	for m1 := 0; m1 < 256; m1++ {
		row := p[m1*256 : m1*256+256]
		for m2 := range row {
			row[m2] += l[m2]
		}
	}
}

// Best returns the most likely byte.
func (l *ByteLikelihoods) Best() byte {
	best := math.Inf(-1)
	var bi int
	for i, v := range l {
		if v > best {
			best = v
			bi = i
		}
	}
	return byte(bi)
}

// SingleByteLikelihoods computes eq. 11/12 for one plaintext byte position:
// given counts[c] of each observed ciphertext byte value and the keystream
// distribution dist[k] = Pr[Z = k] at that position, it returns
// L[µ] = Σ_c counts[c] · log dist[c ⊕ µ] — the log-probability of the
// induced keystream distribution N^µ (eq. 10) under the model. It is the
// one-class case of the spectral path the per-TSC attack uses: one
// LogSpectrum, one SpectralSum.Add, one inverse.
func SingleByteLikelihoods(counts *[256]uint64, dist []float64) (*ByteLikelihoods, error) {
	spec, err := LogSpectrum(dist)
	if err != nil {
		return nil, err
	}
	var acc SpectralSum
	acc.Add(counts[:], spec)
	out := new(ByteLikelihoods)
	acc.Likelihoods(out)
	return out, nil
}

// logDistribution validates a 256-entry probability vector and returns its
// element-wise logarithm.
func logDistribution(dist []float64) (*[256]float64, error) {
	if len(dist) != 256 {
		return nil, errors.New("recovery: keystream distribution must have 256 entries")
	}
	logp := new([256]float64)
	for k, p := range dist {
		if p <= 0 {
			return nil, errors.New("recovery: keystream distribution has non-positive entry")
		}
		logp[k] = math.Log(p)
	}
	return logp, nil
}

// wht is the in-place, unnormalized 256-point Walsh–Hadamard transform:
// x[k] ← Σ_j (−1)^popcount(j&k) x[j]. It is its own inverse up to a factor
// of 256, and it turns the XOR-correlation of eq. 11/12 into a pointwise
// product: H(Σ_c N[c]·g[c⊕·]) = H(N)·H(g).
func wht(x *[256]float64) {
	for h := 1; h < 256; h <<= 1 {
		for i := 0; i < 256; i += 2 * h {
			lo := x[i : i+h : i+h]
			hi := x[i+h : i+2*h : i+2*h]
			for j := range lo {
				a, b := lo[j], hi[j]
				lo[j], hi[j] = a+b, a-b
			}
		}
	}
}

// Spectrum is the Walsh–Hadamard transform of a log keystream
// distribution, pre-scaled by 1/256 (an exact power-of-two scaling) so that
// the inverse transform needs no normalization. Models whose distributions
// never change mid-attack build each spectrum once and share it across
// every decode of every job.
type Spectrum [256]float64

// LogSpectrum validates a 256-entry probability vector and returns the
// spectrum of its element-wise logarithm.
func LogSpectrum(dist []float64) (*Spectrum, error) {
	logp, err := logDistribution(dist)
	if err != nil {
		return nil, err
	}
	wht(logp)
	spec := (*Spectrum)(logp)
	for k := range spec {
		spec[k] /= 256
	}
	return spec, nil
}

// SpectralSum accumulates eq. 11/12 evidence for one plaintext byte position
// in the Walsh–Hadamard domain: Σ_class H(N_class)·Spectrum_class, the §5.1
// product over TSC classes of per-class likelihoods (a sum in log space,
// and the transform is linear). Likelihoods applies the one inverse
// transform per position. The zero value is an empty sum.
//
// The count transform is exact (integer sums stay exact in float64 while a
// class row's total is below 2^53), so the only rounding is one product per
// cell and class, the sum over classes in the caller's order, and the
// inverse's eight butterfly stages. The result is therefore not bitwise the
// direct sum's, but within a relative 1e-12 of it (pinned by the tests
// against the direct reference); adding classes in a fixed order keeps it
// bitwise identical across worker counts.
type SpectralSum [256]float64

// Add folds one class's ciphertext counts (256 entries) against that
// class's spectrum. An all-zero row adds nothing and is skipped — exactly,
// since its transform is all zeros.
func (s *SpectralSum) Add(counts []uint64, spec *Spectrum) {
	counts = counts[:256]
	var x [256]float64
	nonzero := false
	for c, n := range counts {
		if n != 0 {
			nonzero = true
		}
		x[c] = float64(n)
	}
	if !nonzero {
		return
	}
	wht(&x)
	for k := range s {
		s[k] += x[k] * spec[k]
	}
}

// Likelihoods writes the accumulated log-likelihoods L[µ] into out
// (overwriting it) — one inverse transform.
func (s *SpectralSum) Likelihoods(out *ByteLikelihoods) {
	*out = ByteLikelihoods(*s)
	wht((*[256]float64)(out))
}

// PairLikelihoodsNaive computes the full eq. 13 double-byte likelihood:
// hist[c1*256+c2] counts observed ciphertext digraphs, dist is the full
// 65536-cell keystream digraph distribution. O(2^32) work — kept as the
// reference implementation and as the ablation baseline for eq. 15.
func PairLikelihoodsNaive(hist []uint64, dist []float64) (*PairLikelihoods, error) {
	if len(hist) != 65536 || len(dist) != 65536 {
		return nil, errors.New("recovery: histogram and distribution must have 65536 entries")
	}
	logp := make([]float64, 65536)
	for k, p := range dist {
		if p <= 0 {
			return nil, errors.New("recovery: digraph distribution has non-positive entry")
		}
		logp[k] = math.Log(p)
	}
	out := new(PairLikelihoods)
	for mu1 := 0; mu1 < 256; mu1++ {
		for mu2 := 0; mu2 < 256; mu2++ {
			var sum float64
			for c1 := 0; c1 < 256; c1++ {
				row := hist[c1*256 : c1*256+256]
				lrow := logp[(c1^mu1)*256 : (c1^mu1)*256+256]
				for c2, n := range row {
					if n != 0 {
						sum += float64(n) * lrow[c2^mu2]
					}
				}
			}
			out[mu1*256+mu2] = sum
		}
	}
	return out, nil
}

// BiasedCell is one dependent digraph cell for the eq. 15 optimized
// likelihood: keystream pair (K1, K2) occurs with probability P; all other
// cells are modeled uniform.
type BiasedCell struct {
	K1, K2 byte
	P      float64
}

// PairLikelihoodsSparse computes the eq. 15 optimized double-byte
// likelihood: only the biased cells contribute beyond a constant, so
//
//	log λ(µ1,µ2) = Σ_cells N_cell · (log p_cell - log u) + |C| log u
//
// and the constant |C| log u is dropped. With |cells| ≈ 10 this is the
// paper's "roughly 2^19 operations instead of 2^32".
func PairLikelihoodsSparse(hist []uint64, cells []BiasedCell, u float64) (*PairLikelihoods, error) {
	out := new(PairLikelihoods)
	if err := PairLikelihoodsSparseInto(out, hist, cells, u); err != nil {
		return nil, err
	}
	return out, nil
}

// PairLikelihoodsSparseInto is PairLikelihoodsSparse writing into a
// caller-owned table (overwritten, not accumulated) — the allocation-free
// form for repeated decodes over growing evidence. Each 65536-cell table is
// half a megabyte; the online runtime recomputes one per chain link at
// every cadence point, so the tables must be reused, not reallocated.
func PairLikelihoodsSparseInto(out *PairLikelihoods, hist []uint64, cells []BiasedCell, u float64) error {
	if len(hist) != 65536 {
		return errors.New("recovery: histogram must have 65536 entries")
	}
	if u <= 0 {
		return errors.New("recovery: non-positive uniform probability")
	}
	logu := math.Log(u)
	*out = PairLikelihoods{}
	for _, cell := range cells {
		if cell.P <= 0 {
			return errors.New("recovery: non-positive cell probability")
		}
		w := math.Log(cell.P) - logu
		for mu1 := 0; mu1 < 256; mu1++ {
			c1 := int(cell.K1) ^ mu1
			row := hist[c1*256 : c1*256+256]
			orow := out[mu1*256 : mu1*256+256]
			k2 := int(cell.K2)
			for mu2 := 0; mu2 < 256; mu2++ {
				if n := row[k2^mu2]; n != 0 {
					orow[mu2] += float64(n) * w
				}
			}
		}
	}
	return nil
}

// FMPairLikelihoods computes the double-byte likelihood at PRGA counter i
// using the long-term Fluhrer–McGrew model via the sparse eq. 15 path.
func FMPairLikelihoods(hist []uint64, i int) (*PairLikelihoods, error) {
	out := new(PairLikelihoods)
	if err := FMPairLikelihoodsInto(out, hist, i); err != nil {
		return nil, err
	}
	return out, nil
}

// FMPairLikelihoodsInto is FMPairLikelihoods into a caller-owned table.
func FMPairLikelihoodsInto(out *PairLikelihoods, hist []uint64, i int) error {
	fm := biases.FMCells(i)
	cells := make([]BiasedCell, len(fm))
	for n, c := range fm {
		cells[n] = BiasedCell{K1: c.X, K2: c.Y, P: c.P}
	}
	return PairLikelihoodsSparseInto(out, hist, cells, biases.UPair)
}

// ABSABPairLikelihoods computes eq. 17–24: the likelihood of the plaintext
// pair (µ1, µ2) from Mantin's ABSAB bias at one gap. hist counts observed
// ciphertext differentials Ĉ = (C_r ⊕ C_{r+2+g}, C_{r+1} ⊕ C_{r+3+g}),
// known1/known2 are the known plaintext bytes at the far end of the gap,
// and gap is g. Only the (0,0) differential cell is biased (probability
// α(g)), so eq. 22 collapses the likelihood to a function of the count of
// ciphertext differentials equal to each candidate differential:
//
//	log λ(µ̂) = |µ̂| · [log α - log((1-α)/(2^16-1))] + const.
func ABSABPairLikelihoods(hist []uint64, gap int, known1, known2 byte) (*PairLikelihoods, error) {
	if len(hist) != 65536 {
		return nil, errors.New("recovery: histogram must have 65536 entries")
	}
	if gap < 0 {
		return nil, errors.New("recovery: negative gap")
	}
	w := ABSABWeight(gap)
	out := new(PairLikelihoods)
	for mu1 := 0; mu1 < 256; mu1++ {
		d1 := mu1 ^ int(known1)
		row := hist[d1*256 : d1*256+256]
		orow := out[mu1*256 : mu1*256+256]
		k2 := int(known2)
		for mu2 := 0; mu2 < 256; mu2++ {
			if n := row[mu2^k2]; n != 0 {
				orow[mu2] = float64(n) * w
			}
		}
	}
	return out, nil
}

// ABSABWeight is the per-observation log-likelihood increment of one
// ciphertext differential matching a candidate differential at gap g:
// log α(g) − log((1−α(g))/(2^16−1)). Collectors that fold ABSAB evidence
// incrementally (one add per observed differential) use this weight; the
// result is identical to histogramming followed by ABSABPairLikelihoods.
func ABSABWeight(gap int) float64 {
	a := biases.ABSABAlpha(gap)
	return math.Log(a) - math.Log((1-a)/65535)
}
