package recovery

import (
	"math"
	"math/rand"
	"testing"
)

// directLikelihoods is the direct eq. 11/12 sum the spectral path replaced,
// kept as the reference: it accumulates L[µ] += Σ_c counts[c]·logp[c⊕µ]
// into out, 65,536 multiply-adds per call. Four µ values share each pass of
// the count row; each keeps its own accumulator summing in c order, so
// every output is bitwise identical to the naive scalar loop (zero-count
// terms add ±0, an identity for every reachable partial sum, logp being
// ≤ 0).
func directLikelihoods(out *ByteLikelihoods, counts []uint64, logp *[256]float64) {
	counts = counts[:256]
	for mu := 0; mu < 256; mu += 4 {
		var s0, s1, s2, s3 float64
		for c, cnt := range counts {
			n := float64(cnt)
			k := (c ^ mu) & 255
			// µ+1..µ+3 differ from µ only in the low two bits, so their
			// indices are k^1, k^2, k^3 — the same aligned 4-group of logp.
			s0 += n * logp[k]
			s1 += n * logp[k^1]
			s2 += n * logp[k^2]
			s3 += n * logp[k^3]
		}
		out[mu] += s0
		out[mu+1] += s1
		out[mu+2] += s2
		out[mu+3] += s3
	}
}

// spectralTolerance is the largest relative difference the spectral path
// may show against the direct sum, entry by entry.
const spectralTolerance = 1e-12

// randomDist is a 256-entry distribution of one of three shapes:
// "synthetic" (independent uniform weights, log-probabilities spread over
// several nats), "model" (the per-TSC shape: relative Gaussian biases of
// 2^-9 around uniform, quantized at 2^30 and add-one smoothed) and
// "trained" (a shallow training run: 2^10 keys over 256 cells, add-one
// smoothed, so many cells sit at the smoothing floor).
func randomDist(rng *rand.Rand, shape string) []float64 {
	d := make([]float64, 256)
	switch shape {
	case "synthetic":
		for v := range d {
			d[v] = rng.Float64() + 0.01
		}
	case "model":
		const scale = 1 << 30
		w := make([]float64, 256)
		var total float64
		for v := range w {
			w[v] = 1 + rng.NormFloat64()/512
			total += w[v]
		}
		for v := range d {
			d[v] = float64(uint64(w[v]/total*scale)) + 1
		}
	case "trained":
		for k := 0; k < 1<<10; k++ {
			d[rng.Intn(256)]++
		}
		for v := range d {
			d[v]++
		}
	default:
		panic("unknown shape " + shape)
	}
	var total float64
	for _, p := range d {
		total += p
	}
	for v := range d {
		d[v] /= total
	}
	return d
}

// randomCounts fills one class's ciphertext counts: "dense" rows of small
// counts, "sparse" rows with three cells in four empty, "large" rows of
// 2^20..2^21 per cell (a 2^28-frame class), and "zero" rows.
func randomCounts(rng *rand.Rand, shape string, row []uint64) {
	for c := range row {
		switch shape {
		case "dense":
			row[c] = uint64(rng.Intn(1000))
		case "sparse":
			row[c] = 0
			if rng.Intn(4) == 0 {
				row[c] = uint64(rng.Intn(1000))
			}
		case "large":
			row[c] = 1<<20 + uint64(rng.Intn(1<<20))
		case "zero":
			row[c] = 0
		default:
			panic("unknown shape " + shape)
		}
	}
}

// requireClose fails unless got matches want within spectralTolerance in
// every entry and both pick the same most likely byte.
func requireClose(t *testing.T, label string, got, want *ByteLikelihoods) {
	t.Helper()
	for mu := range want {
		if d := math.Abs(got[mu] - want[mu]); d > spectralTolerance*math.Abs(want[mu]) {
			t.Fatalf("%s: L[%d] = %v, direct %v (relative difference %.3g)", label, mu, got[mu], want[mu], d/math.Abs(want[mu]))
		}
	}
	if got.Best() != want.Best() {
		t.Fatalf("%s: argmax %d, direct %d", label, got.Best(), want.Best())
	}
}

// TestSingleByteLikelihoodsFromLogMatches pins the one-class path:
// SingleByteLikelihoods (one spectrum, one Add, one inverse) against the
// direct reference within spectralTolerance, and the reference's four-lane
// kernel bitwise against the naive scalar loop, including sparse count rows
// whose zero cells the scalar loop skips entirely.
func TestSingleByteLikelihoodsFromLogMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		dist := randomDist(rng, []string{"synthetic", "model", "trained"}[trial%3])
		var counts [256]uint64
		randomCounts(rng, []string{"dense", "sparse", "large", "dense"}[trial%4], counts[:])
		logp, err := logDistribution(dist)
		if err != nil {
			t.Fatal(err)
		}
		var scalar ByteLikelihoods
		for mu := 0; mu < 256; mu++ {
			var sum float64
			for c := 0; c < 256; c++ {
				if n := counts[c]; n != 0 {
					sum += float64(n) * logp[c^mu]
				}
			}
			scalar[mu] = sum
		}
		want := new(ByteLikelihoods)
		directLikelihoods(want, counts[:], logp)
		if *want != scalar {
			t.Fatalf("trial %d: four-lane reference differs from the scalar loop", trial)
		}
		got, err := SingleByteLikelihoods(&counts, dist)
		if err != nil {
			t.Fatal(err)
		}
		requireClose(t, "SingleByteLikelihoods", got, want)
	}
}

// TestSpectralSumMatchesDirect pins the per-TSC shape of the spectral path —
// 256 classes, each with its own distribution, accumulated in class order
// and inverted once — against the direct per-class sum, on every
// distribution shape and on count rows that mix dense, sparse, large
// (≥2^20 per cell) and all-zero classes.
func TestSpectralSumMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dshape := range []string{"synthetic", "model", "trained"} {
		for _, cshape := range []string{"dense", "sparse", "large", "mixed", "zero"} {
			label := dshape + "/" + cshape
			want := new(ByteLikelihoods)
			var acc SpectralSum
			row := make([]uint64, 256)
			for class := 0; class < 256; class++ {
				dist := randomDist(rng, dshape)
				shape := cshape
				if shape == "mixed" {
					shape = []string{"dense", "sparse", "large", "zero"}[rng.Intn(4)]
				}
				randomCounts(rng, shape, row)
				logp, err := logDistribution(dist)
				if err != nil {
					t.Fatal(err)
				}
				spec, err := LogSpectrum(dist)
				if err != nil {
					t.Fatal(err)
				}
				directLikelihoods(want, row, logp)
				acc.Add(row, spec)
			}
			got := new(ByteLikelihoods)
			acc.Likelihoods(got)
			if cshape == "zero" {
				if *got != (ByteLikelihoods{}) || *want != (ByteLikelihoods{}) {
					t.Fatalf("%s: empty evidence gave nonzero likelihoods", label)
				}
				continue
			}
			requireClose(t, label, got, want)
		}
	}
}

// BenchmarkSingleByteLikelihoods is the in-process A/B of one per-TSC
// position: 256 classes of dense counts against model-shaped
// distributions, summed by the direct reference and by the spectral path.
// Both sides get their per-class tables (log-distributions or spectra)
// prebuilt, as the model caches them. CI's likelihood gate requires the
// spectral side to be at least 4× faster.
func BenchmarkSingleByteLikelihoods(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	counts := make([]uint64, 256*256)
	logps := make([]*[256]float64, 256)
	specs := make([]*Spectrum, 256)
	for class := range logps {
		dist := randomDist(rng, "model")
		randomCounts(rng, "dense", counts[class*256:(class+1)*256])
		var err error
		if logps[class], err = logDistribution(dist); err != nil {
			b.Fatal(err)
		}
		if specs[class], err = LogSpectrum(dist); err != nil {
			b.Fatal(err)
		}
	}
	out := new(ByteLikelihoods)
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			*out = ByteLikelihoods{}
			for class, logp := range logps {
				directLikelihoods(out, counts[class*256:(class+1)*256], logp)
			}
		}
	})
	b.Run("spectral", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var acc SpectralSum
			for class, spec := range specs {
				acc.Add(counts[class*256:(class+1)*256], spec)
			}
			acc.Likelihoods(out)
		}
	})
}
