package tkip

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"rc4break/internal/michael"
	"rc4break/internal/online"
	"rc4break/internal/rc4"
	"rc4break/internal/recovery"
)

// plaintextBody decrypts one encapsulation with the real key, returning the
// full plaintext body MSDU ‖ MIC ‖ ICV.
func plaintextBody(s *Session, msdu []byte, tsc TSC) []byte {
	f := s.Encapsulate(msdu, tsc)
	key := MixKey(s.TK, s.TA, tsc)
	plain := make([]byte, len(f.Body))
	rc4.MustNew(key[:]).XORKeyStream(plain, f.Body)
	return plain
}

// TestTrailerOracle verifies the online oracle: the true trailer is
// accepted and yields the session's MIC key; corrupted trailers are
// rejected; a Confirm hook can veto an ICV-passing candidate.
func TestTrailerOracle(t *testing.T) {
	s := testSession()
	msdu := testMSDU()
	plain := plaintextBody(s, msdu, 7)
	trailer := plain[len(msdu):]

	oracle := &TrailerOracle{DA: s.DA, SA: s.SA, MSDU: msdu}
	if !oracle.Check(trailer) {
		t.Fatal("true trailer rejected")
	}
	if !oracle.Found || oracle.MICKey != s.MICKey {
		t.Fatalf("recovered MIC key %x, want %x", oracle.MICKey, s.MICKey)
	}
	if oracle.Checks != 1 || oracle.ICVPasses != 1 {
		t.Fatalf("checks=%d icvPasses=%d", oracle.Checks, oracle.ICVPasses)
	}

	bad := append([]byte(nil), trailer...)
	bad[3] ^= 0x40
	if oracle.Check(bad) {
		t.Fatal("corrupted trailer accepted")
	}
	if oracle.Check(trailer[:5]) {
		t.Fatal("short trailer accepted")
	}

	// A Confirm hook that refuses everything must veto the ICV hit.
	veto := &TrailerOracle{DA: s.DA, SA: s.SA, MSDU: msdu,
		Confirm: func([michael.KeySize]byte) bool { return false }}
	if veto.Check(trailer) {
		t.Fatal("vetoed trailer accepted")
	}
	if veto.ICVPasses != 1 || veto.Found {
		t.Fatalf("veto bookkeeping: icvPasses=%d found=%v", veto.ICVPasses, veto.Found)
	}
}

// loadedAttack is an attack over the trailer positions of a 48-byte MSDU
// holding 2^20 simulated captures against model.
func loadedAttack(t *testing.T, model *PerTSCModel) *Attack {
	t.Helper()
	positions := TrailerPositions(48)
	trailer := make([]byte, len(positions))
	for i := range trailer {
		trailer[i] = byte(31 * i)
	}
	a, err := NewAttack(model, positions)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SimulateCaptures(rand.New(rand.NewSource(77)), trailer, 1<<20); err != nil {
		t.Fatal(err)
	}
	return a
}

// sameLikelihoods fails unless the two passes agree bitwise.
func sameLikelihoods(t *testing.T, label string, got, want []*recovery.ByteLikelihoods) {
	t.Helper()
	for pi := range want {
		if *got[pi] != *want[pi] {
			t.Fatalf("%s: position %d likelihoods differ", label, pi)
		}
	}
}

// TestAttackLikelihoodsWorkerInvariance pins the TKIP likelihood pass: any
// Workers value, and repeated calls on one attack (which reuse the model's
// cached log-spectra), produce bitwise-identical per-position likelihoods.
func TestAttackLikelihoodsWorkerInvariance(t *testing.T) {
	model := SyntheticModel(TrailerPositions(48)[TrailerSize-1], 1.0/512, 21)
	ref := loadedAttack(t, model)
	ref.Workers = 1
	want, err := ref.Likelihoods()
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 3, 7} {
		a := loadedAttack(t, model)
		a.Workers = workers
		for repeat := 0; repeat < 2; repeat++ {
			got, err := a.Likelihoods()
			if err != nil {
				t.Fatal(err)
			}
			sameLikelihoods(t, fmt.Sprintf("workers=%d repeat=%d", workers, repeat), got, want)
		}
	}
	if ref.Observed() != ref.Frames {
		t.Fatal("Observed does not report Frames")
	}
}

// TestAttackLikelihoodsSharedModelConcurrent runs two attacks on one fresh
// model concurrently, so both race to build its log-spectra: under -race
// the lazy build must be clean, and both must get the likelihoods a
// sequential pass on a separate copy of the model gets.
func TestAttackLikelihoodsSharedModelConcurrent(t *testing.T) {
	last := TrailerPositions(48)[TrailerSize-1]
	want, err := loadedAttack(t, SyntheticModel(last, 1.0/512, 23)).Likelihoods()
	if err != nil {
		t.Fatal(err)
	}
	shared := SyntheticModel(last, 1.0/512, 23)
	attacks := []*Attack{loadedAttack(t, shared), loadedAttack(t, shared)}
	got := make([][]*recovery.ByteLikelihoods, len(attacks))
	errs := make([]error, len(attacks))
	var wg sync.WaitGroup
	for i, a := range attacks {
		wg.Add(1)
		go func(i int, a *Attack) {
			defer wg.Done()
			got[i], errs[i] = a.Likelihoods()
		}(i, a)
	}
	wg.Wait()
	for i := range attacks {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		sameLikelihoods(t, fmt.Sprintf("attack %d", i), got[i], want)
	}
}

// TestAttackLikelihoodsMatchDirectSum checks the spectral pass against the
// direct §5.1 sum Σ_class Σ_c N[c]·log p_class[c⊕µ] on a model-shaped
// synthetic model: every entry within a relative 1e-12, and the same most
// likely byte at every position.
func TestAttackLikelihoodsMatchDirectSum(t *testing.T) {
	a := loadedAttack(t, SyntheticModel(TrailerPositions(48)[TrailerSize-1], 1.0/512, 24))
	got, err := a.Likelihoods()
	if err != nil {
		t.Fatal(err)
	}
	np := len(a.Positions)
	for pi, pos := range a.Positions[:3] {
		var want recovery.ByteLikelihoods
		for class := 0; class < 256; class++ {
			dist := a.Model.Distribution(byte(class), pos)
			row := a.counts[class*np*256+pi*256 : class*np*256+pi*256+256]
			for mu := range want {
				var sum float64
				for c, n := range row {
					sum += float64(n) * math.Log(dist[c^mu])
				}
				want[mu] += sum
			}
		}
		for mu := range want {
			if d := math.Abs(got[pi][mu] - want[mu]); d > 1e-12*math.Abs(want[mu]) {
				t.Fatalf("position %d: L[%d] = %v, direct %v", pos, mu, got[pi][mu], want[mu])
			}
		}
		if got[pi].Best() != want.Best() {
			t.Fatalf("position %d: argmax %d, direct %d", pos, got[pi].Best(), want.Best())
		}
	}
}

// TestAttackDecodeWalksToTrueTrailer confirms the online Decode source,
// walked against the trailer oracle by online.Search, finds the true
// trailer.
func TestAttackDecodeWalksToTrueTrailer(t *testing.T) {
	msdu := testMSDU()
	positions := TrailerPositions(len(msdu))
	model := SyntheticModel(positions[len(positions)-1], 1.0/512, 22)
	s := testSession()
	plain := plaintextBody(s, msdu, 3)
	trailer := plain[len(msdu):]

	a, err := NewAttack(model, positions)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SimulateCaptures(rand.New(rand.NewSource(4)), trailer, 9<<20); err != nil {
		t.Fatal(err)
	}
	oracle := &TrailerOracle{DA: s.DA, SA: s.SA, MSDU: msdu}
	res, err := online.Search(a, oracle, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plaintext == nil {
		t.Skip("true trailer beyond test search depth at this evidence level")
	}
	if oracle.MICKey != s.MICKey {
		t.Fatalf("recovered MIC key %x, want %x", oracle.MICKey, s.MICKey)
	}
}
