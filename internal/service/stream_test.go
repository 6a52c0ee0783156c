package service

import (
	"bytes"
	"errors"
	"testing"

	"rc4break/internal/online"
)

// TestExactTKIPSeedIsNotIdentity pins the one stream-identity rule for
// exact TKIP: its frames are the demo session's TSC sequence whatever the
// seed, so jobs that differ only in seed are the same job — byte-identical
// evidence, and one evidence blob in the store.
func TestExactTKIPSeedIsNotIdentity(t *testing.T) {
	spec := func(seed int64) JobSpec {
		return JobSpec{Attack: "tkip", Mode: "exact", Seed: seed,
			Budget: 1 << 12, FirstDecode: 1 << 12, MaxCandidates: 64, TrainKeys: 1 << 6}
	}
	_, snap1, err1 := SoloRun(spec(1))
	_, snap2, err2 := SoloRun(spec(2))
	for _, err := range []error{err1, err2} {
		if err != nil && !errors.Is(err, online.ErrBudgetExhausted) {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(snap1, snap2) {
		t.Fatal("exact TKIP SoloRun evidence depends on the seed")
	}

	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: store, Capacity: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i, seed := range []int64{1, 2} {
		st, err := s.Submit([]string{"a", "b"}[i], spec(seed))
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, st.ID)
	}
	s.Wait()
	for i, id := range keys {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("job %s state %q, want done", id, st.State)
		}
		ev, err := s.EvidenceBytes(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ev, snap1) {
			t.Errorf("job %s evidence differs from SoloRun's", id)
		}
		keys[i] = st.Evidence
	}
	if keys[0] != keys[1] {
		t.Errorf("seed-only variants stored two evidence blobs: %s, %s", keys[0], keys[1])
	}
}
