// Integration tests for the attack-state persistence subsystem: a capture
// killed mid-collection, resumed from its checkpoint, and merged with an
// independently-captured shard must be indistinguishable from one
// uninterrupted run — same evidence bytes, same candidate list.
package rc4break

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"rc4break/internal/cliutil"
	"rc4break/internal/cookieattack"
	"rc4break/internal/httpmodel"
	"rc4break/internal/netsim"
	"rc4break/internal/online"
	"rc4break/internal/tkip"
	"rc4break/internal/tlsrec"
)

// cookieCaptureRig wires one victim connection to one attack instance
// through the §6.3 scanner, like cmd/rc4attack's exact cookie mode.
type cookieCaptureRig struct {
	victim    *netsim.HTTPSVictim
	collector *tlsrec.CollectRequests
	attack    *cookieattack.Attack
}

func newCookieCaptureRig(t *testing.T, secret string, masterSeed int64) *cookieCaptureRig {
	t.Helper()
	req, counterBase, err := netsim.AlignedRequest("site.com", "auth", secret, 64)
	if err != nil {
		t.Fatal(err)
	}
	attack, err := cookieattack.New(cookieattack.Config{
		CookieLen:   16,
		Offset:      req.CookieOffset(),
		Plaintext:   req.Marshal(),
		CounterBase: counterBase,
		MaxGap:      128,
		Charset:     httpmodel.CookieCharset(),
	})
	if err != nil {
		t.Fatal(err)
	}
	master := make([]byte, 48)
	rand.New(rand.NewSource(masterSeed)).Read(master)
	victim, err := netsim.NewHTTPSVictim(master, req)
	if err != nil {
		t.Fatal(err)
	}
	return &cookieCaptureRig{
		victim:    victim,
		collector: &tlsrec.CollectRequests{WantLen: victim.RecordPlaintextLen()},
		attack:    attack,
	}
}

func (rig *cookieCaptureRig) capture(t *testing.T, n uint64) {
	t.Helper()
	for i := uint64(0); i < n; i++ {
		rec := rig.victim.SendRequest()
		if err := rig.collector.Feed(rec, func(body []byte) {
			if err := rig.attack.ObserveRecord(body); err != nil {
				t.Fatal(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func (rig *cookieCaptureRig) fastForward(n uint64) {
	for i := uint64(0); i < n; i++ {
		rig.victim.SendRequest()
	}
}

func cookieSnapshotBytes(t *testing.T, a *cookieattack.Attack) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCookieCheckpointResumeMergeEquivalence is the §6 distributed-capture
// acceptance scenario: shard A is killed mid-collection, resumed from its
// checkpoint, and merged with independently-captured shard B; the pooled
// evidence must match — bit for bit — a run in which shard A was never
// interrupted, down to the generated candidate list.
func TestCookieCheckpointResumeMergeEquivalence(t *testing.T) {
	const (
		secret  = "Secur3C00kieVal+"
		total   = 3000 // shard A records
		killAt  = 1300 // records captured before the "crash"
		shardB  = 2000 // independently-seeded shard
		nearSet = 64   // candidate list depth compared at the end
	)

	// Uninterrupted reference run of shard A.
	ref := newCookieCaptureRig(t, secret, 41)
	ref.capture(t, total)

	// Shard A, killed at killAt: snapshot, forget everything, resume.
	partial := newCookieCaptureRig(t, secret, 41)
	partial.capture(t, killAt)
	checkpoint := cookieSnapshotBytes(t, partial.attack)

	resumedAttack, err := cookieattack.ReadSnapshot(bytes.NewReader(checkpoint))
	if err != nil {
		t.Fatal(err)
	}
	resumed := newCookieCaptureRig(t, secret, 41)
	resumed.attack = resumedAttack
	resumed.fastForward(resumedAttack.Records) // skip past the pre-crash stream
	resumed.capture(t, total-killAt)

	if !bytes.Equal(cookieSnapshotBytes(t, ref.attack), cookieSnapshotBytes(t, resumed.attack)) {
		t.Fatal("killed-and-resumed capture differs from uninterrupted run")
	}

	// Shard B: a different victim connection (independent master seed).
	other := newCookieCaptureRig(t, secret, 42)
	other.capture(t, shardB)

	// Merging B into the reference and into the resumed shard must agree.
	if err := ref.attack.Merge(other.attack); err != nil {
		t.Fatal(err)
	}
	if err := resumed.attack.Merge(other.attack); err != nil {
		t.Fatal(err)
	}
	if ref.attack.Records != total+shardB {
		t.Fatalf("pool records = %d", ref.attack.Records)
	}
	if !bytes.Equal(cookieSnapshotBytes(t, ref.attack), cookieSnapshotBytes(t, resumed.attack)) {
		t.Fatal("merged pools differ between uninterrupted and resumed shards")
	}

	// The deliverable itself — the candidate list — matches entry for entry.
	refCands, err := ref.attack.Candidates(nearSet)
	if err != nil {
		t.Fatal(err)
	}
	resCands, err := resumed.attack.Candidates(nearSet)
	if err != nil {
		t.Fatal(err)
	}
	if len(refCands) != len(resCands) {
		t.Fatalf("candidate list lengths differ: %d vs %d", len(refCands), len(resCands))
	}
	for i := range refCands {
		if !bytes.Equal(refCands[i].Plaintext, resCands[i].Plaintext) {
			t.Fatalf("candidate %d differs between uninterrupted and resumed pools", i)
		}
	}
}

// TestTKIPCheckpointResumeMergeEquivalence is the §5 counterpart: an
// exact-mode frame capture killed and resumed, then merged with a second
// shard, must equal the uninterrupted capture bit for bit.
func TestTKIPCheckpointResumeMergeEquivalence(t *testing.T) {
	positions := tkip.TrailerPositions(48)
	model := tkip.SyntheticModel(positions[len(positions)-1], 1.0/512, 3)
	session := &tkip.Session{
		TK:     [16]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6},
		MICKey: [8]byte{1, 2, 3, 4, 5, 6, 7, 8},
		TA:     [6]byte{0xaa, 0xbb, 0xcc, 0x00, 0x11, 0x22},
		DA:     [6]byte{0x33, 0x44, 0x55, 0x66, 0x77, 0x88},
		SA:     [6]byte{0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee},
	}

	capture := func(a *tkip.Attack, v *netsim.WiFiVictim, n uint64) {
		sniffer := netsim.NewSniffer(v.FrameLen())
		for i := uint64(0); i < n; i++ {
			if f := v.Transmit(); sniffer.Filter(f) {
				a.Observe(f)
			}
		}
	}
	snap := func(a *tkip.Attack) []byte {
		var buf bytes.Buffer
		if err := a.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	newAttack := func() *tkip.Attack {
		a, err := tkip.NewAttack(model, positions)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}

	const total, killAt = 2600, 1100

	ref := newAttack()
	capture(ref, netsim.NewWiFiVictim(session, []byte("PAYLOAD")), total)

	partial := newAttack()
	capture(partial, netsim.NewWiFiVictim(session, []byte("PAYLOAD")), killAt)
	resumed, err := tkip.ReadAttackSnapshot(bytes.NewReader(snap(partial)), model)
	if err != nil {
		t.Fatal(err)
	}
	victim := netsim.NewWiFiVictim(session, []byte("PAYLOAD"))
	for i := uint64(0); i < resumed.Frames; i++ { // fast-forward the TSC stream
		victim.Transmit()
	}
	capture(resumed, victim, total-killAt)

	if !bytes.Equal(snap(ref), snap(resumed)) {
		t.Fatal("killed-and-resumed capture differs from uninterrupted run")
	}

	// Merge an independently-keyed shard into both; pools must agree.
	shardSession := &tkip.Session{
		TK: [16]byte{1: 1, 15: 9}, MICKey: session.MICKey,
		TA: session.TA, DA: session.DA, SA: session.SA,
	}
	shard := newAttack()
	capture(shard, netsim.NewWiFiVictim(shardSession, []byte("PAYLOAD")), 1500)
	if err := ref.Merge(shard); err != nil {
		t.Fatal(err)
	}
	if err := resumed.Merge(shard); err != nil {
		t.Fatal(err)
	}
	if ref.Frames != total+1500 || !bytes.Equal(snap(ref), snap(resumed)) {
		t.Fatal("merged pools differ between uninterrupted and resumed shards")
	}
}

// onlineCaptureTo adapts a capture rig to the online runtime's FeedFunc
// contract.
func (rig *cookieCaptureRig) onlineCaptureTo(t *testing.T) func(uint64) error {
	return func(target uint64) error {
		rig.capture(t, target-rig.attack.Records)
		return nil
	}
}

// TestOnlineEvidenceMatchesOfflineCapture is the online determinism
// property: an exact-mode online run accumulates bitwise-identical evidence
// to a plain offline capture of the same stream, for any decode cadence and
// any worker count — decoding is a pure function of the evidence and never
// perturbs it.
func TestOnlineEvidenceMatchesOfflineCapture(t *testing.T) {
	const secret = "Secur3C00kieVal+"
	const budget = 1500

	offline := newCookieCaptureRig(t, secret, 77)
	offline.capture(t, budget)
	want := cookieSnapshotBytes(t, offline.attack)

	cadences := []online.Cadence{
		{First: 200},             // geometric
		{First: 250, Every: 300}, // arithmetic
		{First: 1},               // decode-heavy: 1, 2, 4, ...
	}
	for _, cad := range cadences {
		for _, workers := range []int{1, 3} {
			rig := newCookieCaptureRig(t, secret, 77)
			rig.attack.Workers = workers
			_, err := online.Run(online.Config{
				Decoder:       rig.attack,
				Oracle:        &netsim.CookieServer{Secret: []byte(secret)},
				Cadence:       cad,
				MaxCandidates: 8,
				Budget:        budget,
				Feed:          online.FeedFunc(rig.onlineCaptureTo(t)),
			})
			if !errors.Is(err, online.ErrBudgetExhausted) {
				t.Fatalf("cadence %+v: expected budget exhaustion at toy scale, got %v", cad, err)
			}
			if !bytes.Equal(cookieSnapshotBytes(t, rig.attack), want) {
				t.Fatalf("cadence %+v workers %d: online evidence differs from offline capture", cad, workers)
			}
		}
	}
}

// TestOnlineKillResume kills an online model-mode run at a mid-cadence
// checkpoint, resumes it from the snapshot, and requires the resumed run to
// finish exactly like an uninterrupted one: same outcome, same
// records-at-success, same rank, and bitwise-identical final evidence.
// Decode points are absolute and model-mode chunks span cadence intervals,
// so the resumed run replays the same chunking — and therefore the same
// noise draws — as the uninterrupted run.
func TestOnlineKillResume(t *testing.T) {
	const secret = "Secur3C00kieVal+"
	const seed = 1
	cad := online.Cadence{First: 1 << 26}
	const budget = 9 << 27
	const depth = 1 << 12

	newAttack := func() *cookieattack.Attack {
		req, counterBase, err := netsim.AlignedRequest("site.com", "auth", secret, 64)
		if err != nil {
			t.Fatal(err)
		}
		a, err := cookieattack.New(cookieattack.Config{
			CookieLen:   16,
			Offset:      req.CookieOffset(),
			Plaintext:   req.Marshal(),
			CounterBase: counterBase,
			MaxGap:      128,
			Charset:     httpmodel.CookieCharset(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	modelCaptureTo := func(a *cookieattack.Attack) func(uint64) error {
		return func(target uint64) error {
			rng := rand.New(rand.NewSource(cliutil.ContinuationSeed(seed, a.Records)))
			return a.SimulateStatistics(rng, []byte(secret), target-a.Records)
		}
	}
	runCfg := func(a *cookieattack.Attack, checkpoint func() error) online.Config {
		return online.Config{
			Decoder:       a,
			Oracle:        &netsim.CookieServer{Secret: []byte(secret)},
			Cadence:       cad,
			MaxCandidates: depth,
			Budget:        budget,
			Feed:          online.FeedFunc(modelCaptureTo(a)),
			Checkpoint:    checkpoint,
		}
	}

	// Uninterrupted reference run.
	ref := newAttack()
	refRes, refErr := online.Run(runCfg(ref, nil))

	// Killed run: snapshot at every round, abort after the second.
	killed := newAttack()
	var lastSnapshot []byte
	rounds := 0
	errKilled := errors.New("simulated kill")
	_, err := online.Run(runCfg(killed, func() error {
		lastSnapshot = cookieSnapshotBytes(t, killed)
		rounds++
		if rounds == 2 {
			return errKilled
		}
		return nil
	}))
	if !errors.Is(err, errKilled) {
		t.Fatalf("kill hook: %v", err)
	}
	if lastSnapshot == nil {
		t.Fatal("no checkpoint written before the kill")
	}

	// Resume from the checkpoint and run to completion.
	resumed, err := cookieattack.ReadSnapshot(bytes.NewReader(lastSnapshot))
	if err != nil {
		t.Fatal(err)
	}
	resRes, resErr := online.Run(runCfg(resumed, nil))

	if (refErr == nil) != (resErr == nil) {
		t.Fatalf("outcomes differ: uninterrupted %v, resumed %v", refErr, resErr)
	}
	if refErr == nil {
		if refRes.Observed != resRes.Observed || refRes.Rank != resRes.Rank ||
			!bytes.Equal(refRes.Plaintext, resRes.Plaintext) {
			t.Fatalf("success metrics differ: uninterrupted (obs=%d rank=%d %q), resumed (obs=%d rank=%d %q)",
				refRes.Observed, refRes.Rank, refRes.Plaintext,
				resRes.Observed, resRes.Rank, resRes.Plaintext)
		}
	}
	if !bytes.Equal(cookieSnapshotBytes(t, ref), cookieSnapshotBytes(t, resumed)) {
		t.Fatal("final evidence differs between uninterrupted and killed-and-resumed online runs")
	}
	t.Logf("online outcome: err=%v observed=%d rank=%d rounds(ref)=%d", refErr, refRes.Observed, refRes.Rank, refRes.Rounds)
}

// TestTKIPOnlineEvidenceMatchesOffline repeats the determinism property for
// the §5 attack: an exact-mode online TKIP run accumulates the same capture
// state as an offline one at equal frame counts, regardless of cadence.
func TestTKIPOnlineEvidenceMatchesOffline(t *testing.T) {
	positions := tkip.TrailerPositions(48)
	model := tkip.SyntheticModel(positions[len(positions)-1], 1.0/512, 3)
	session := &tkip.Session{
		TK:     [16]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6},
		MICKey: [8]byte{1, 2, 3, 4, 5, 6, 7, 8},
		TA:     [6]byte{0xaa, 0xbb, 0xcc, 0x00, 0x11, 0x22},
		DA:     [6]byte{0x33, 0x44, 0x55, 0x66, 0x77, 0x88},
		SA:     [6]byte{0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee},
	}
	const budget = 2000

	snap := func(a *tkip.Attack) []byte {
		var buf bytes.Buffer
		if err := a.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	capture := func(a *tkip.Attack, v *netsim.WiFiVictim, sn *netsim.Sniffer, n uint64) {
		for i := uint64(0); i < n; i++ {
			if f := v.Transmit(); sn.Filter(f) {
				a.Observe(f)
			}
		}
	}

	offline, err := tkip.NewAttack(model, positions)
	if err != nil {
		t.Fatal(err)
	}
	victim := netsim.NewWiFiVictim(session, []byte("PAYLOAD"))
	capture(offline, victim, netsim.NewSniffer(victim.FrameLen()), budget)
	want := snap(offline)

	for _, cad := range []online.Cadence{{First: 300}, {First: 128, Every: 512}} {
		a, err := tkip.NewAttack(model, positions)
		if err != nil {
			t.Fatal(err)
		}
		v := netsim.NewWiFiVictim(session, []byte("PAYLOAD"))
		sn := netsim.NewSniffer(v.FrameLen())
		oracle := &tkip.TrailerOracle{DA: session.DA, SA: session.SA, MSDU: v.MSDU}
		_, err = online.Run(online.Config{
			Decoder:       a,
			Oracle:        oracle,
			Cadence:       cad,
			MaxCandidates: 8,
			Budget:        budget,
			Feed: online.FeedFunc(func(target uint64) error {
				capture(a, v, sn, target-a.Frames)
				return nil
			}),
		})
		if !errors.Is(err, online.ErrBudgetExhausted) {
			t.Fatalf("cadence %+v: expected budget exhaustion at toy scale, got %v", cad, err)
		}
		if !bytes.Equal(snap(a), want) {
			t.Fatalf("cadence %+v: online capture state differs from offline", cad)
		}
	}
}
