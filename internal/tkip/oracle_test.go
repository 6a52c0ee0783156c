package tkip

import (
	"math/rand"
	"testing"

	"rc4break/internal/michael"
	"rc4break/internal/online"
	"rc4break/internal/rc4"
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

// TestAttackLikelihoodsWorkerInvariance pins the TKIP likelihood pass: any
// Workers value, and repeated calls on one attack (which reuse the cached
// log distributions), produce bitwise-identical per-position likelihoods.
func TestAttackLikelihoodsWorkerInvariance(t *testing.T) {
	positions := TrailerPositions(48)
	model := SyntheticModel(positions[len(positions)-1], 1.0/512, 21)
	trailer := make([]byte, len(positions))
	for i := range trailer {
		trailer[i] = byte(31 * i)
	}

	newLoaded := func() *Attack {
		a, err := NewAttack(model, positions)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.SimulateCaptures(rand.New(rand.NewSource(77)), trailer, 1<<20); err != nil {
			t.Fatal(err)
		}
		return a
	}

	ref := newLoaded()
	ref.Workers = 1
	want, err := ref.Likelihoods()
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 3, 8} {
		a := newLoaded()
		a.Workers = workers
		for repeat := 0; repeat < 2; repeat++ {
			got, err := a.Likelihoods()
			if err != nil {
				t.Fatal(err)
			}
			for pi := range got {
				if *got[pi] != *want[pi] {
					t.Fatalf("workers=%d repeat=%d: position %d likelihoods differ", workers, repeat, pi)
				}
			}
		}
	}
	if ref.Observed() != ref.Frames {
		t.Fatal("Observed does not report Frames")
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
