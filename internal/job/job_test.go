package job_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"rc4break/internal/cookieattack"
	"rc4break/internal/fleet"
	"rc4break/internal/job"
	"rc4break/internal/netsim"
	"rc4break/internal/online"
	"rc4break/internal/service"
	"rc4break/internal/tkip"
	"rc4break/internal/tlsrec"
)

// exactCases are the two exact-mode jobs the equivalence tests drive: n
// observations per lane, granule every for the CLI path (several fold
// batches per granule, and n not a multiple of it, so CLI checkpoints and
// lane edges fall mid-granule).
var exactCases = []struct {
	name  string
	spec  service.JobSpec
	n     uint64
	every uint64
}{
	{"cookie", service.JobSpec{Attack: "cookie", Mode: "exact", Seed: 7, Secret: "Secur3C00kieVal+",
		MaxCandidates: 1}, 3000, 2500},
	{"tkip", service.JobSpec{Attack: "tkip", Mode: "exact", MaxCandidates: 1, TrainKeys: 1 << 6}, 3000, 700},
}

// solo runs spec to a budget of 2n with one decode at the budget and
// returns SoloRun's evidence — the reference both driver paths must meet —
// after checking it against a scalar per-record capture of the same stream.
func solo(t *testing.T, spec service.JobSpec, n uint64) (service.JobSpec, []byte) {
	t.Helper()
	spec.Budget, spec.FirstDecode = 2*n, 2*n
	spec, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	_, snap, err := service.SoloRun(spec)
	if err != nil && !errors.Is(err, online.ErrBudgetExhausted) {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, scalarCapture(t, spec)) {
		t.Fatal("SoloRun's batched exact capture differs from the scalar fold")
	}
	return spec, snap
}

// scalarCapture is the reference exact capture: the victim's stream folded
// one record (ObserveRecord) or frame (Observe) at a time.
func scalarCapture(t *testing.T, spec service.JobSpec) []byte {
	t.Helper()
	js := jobSpec(spec)
	var buf bytes.Buffer
	switch spec.Attack {
	case "cookie":
		cfg, req, err := job.CookieConfig(spec.Secret)
		if err != nil {
			t.Fatal(err)
		}
		a, err := cookieattack.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		victim, err := job.NewHTTPSVictim(spec.Seed, req)
		if err != nil {
			t.Fatal(err)
		}
		collector := &tlsrec.CollectRequests{WantLen: victim.RecordPlaintextLen()}
		for a.Records < spec.Budget {
			if err := collector.Feed(victim.SendRequest(), func(body []byte) {
				if err := a.ObserveRecord(body); err != nil {
					t.Fatal(err)
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		a.Stream = js.Stream()
		if err := a.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
	case "tkip":
		m := model(t, spec)
		victim := netsim.NewWiFiVictim(tkip.DemoSession(), tkip.DemoPayload)
		a, err := tkip.NewAttack(m, tkip.TrailerPositions(len(victim.MSDU)))
		if err != nil {
			t.Fatal(err)
		}
		sniffer := netsim.NewSniffer(victim.FrameLen())
		for a.Frames < spec.Budget {
			if f := victim.Transmit(); sniffer.Filter(f) {
				a.Observe(f)
			}
		}
		a.Stream = js.Stream()
		if err := a.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func jobSpec(s service.JobSpec) job.Spec {
	return job.Spec{Attack: s.Attack, Mode: s.Mode, Seed: s.Seed, Secret: s.Secret, Workers: s.Workers}
}

func model(t *testing.T, s service.JobSpec) *tkip.PerTSCModel {
	t.Helper()
	if s.Attack != "tkip" {
		return nil
	}
	m, err := service.SharedModel(s.TrainKeys)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCLIInterruptResumeMatchesSoloRun drives the attack CLIs' capture path
// (CLIFeed, granule = checkpoint interval): capture to a point inside a
// granule, cancel the context, let the feed flush its checkpoint, resume a
// fresh job from the checkpoint bytes and finish. The evidence must be
// byte-identical to SoloRun's.
func TestCLIInterruptResumeMatchesSoloRun(t *testing.T) {
	for _, c := range exactCases {
		t.Run(c.name, func(t *testing.T) {
			spec, want := solo(t, c.spec, c.n)
			m := model(t, spec)
			path := filepath.Join(t.TempDir(), "run.snap")

			j, err := job.New(jobSpec(spec), nil, m)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			feed := j.CLIFeed(ctx, c.every, path)
			if err := feed.AdvanceTo(c.n); err != nil {
				t.Fatal(err)
			}
			if c.n%c.every == 0 {
				t.Fatalf("stop point %d is a granule boundary", c.n)
			}
			cancel()
			if err := feed.AdvanceTo(spec.Budget); !errors.Is(err, job.ErrInterrupted) {
				t.Fatalf("cancelled capture returned %v, want ErrInterrupted", err)
			}
			checkpoint, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			resumed, err := job.New(jobSpec(spec), checkpoint, m)
			if err != nil {
				t.Fatal(err)
			}
			if got := resumed.Observed(); got != c.n {
				t.Fatalf("checkpoint holds %d observations, want %d", got, c.n)
			}
			if err := resumed.CLIFeed(context.Background(), c.every, path).AdvanceTo(spec.Budget); err != nil {
				t.Fatal(err)
			}
			got, err := resumed.Evidence()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("interrupted-and-resumed CLI evidence differs from SoloRun's")
			}
		})
	}
}

// TestLanesMatchSoloRun collects the exact lanes [0,n) and [n,2n) through
// the fleet workers' lane collector and merges them in lane order: the pool
// must equal SoloRun's evidence at 2n.
func TestLanesMatchSoloRun(t *testing.T) {
	for _, c := range exactCases {
		t.Run(c.name, func(t *testing.T) {
			spec, want := solo(t, c.spec, c.n)
			m := model(t, spec)
			js := jobSpec(spec)
			fj := fleet.JobSpec{Attack: spec.Attack, Mode: spec.Mode, Seed: js.Stream().Seed,
				Budget: 2 * c.n, LaneRecords: c.n}

			pool, err := job.New(js, nil, m)
			if err != nil {
				t.Fatal(err)
			}
			for lane := uint64(0); lane < fj.Lanes(); lane++ {
				start, records := fj.LaneExtent(lane)
				snap, err := job.CollectLane(context.Background(), js, m, fj, fleet.Lease{
					Lane: lane, Start: start, Records: records, Stream: fj.LaneStream(lane)})
				if err != nil {
					t.Fatal(err)
				}
				if err := merge(pool, snap); err != nil {
					t.Fatal(err)
				}
			}
			got, err := pool.Evidence()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("merged exact lanes differ from SoloRun's evidence")
			}
		})
	}
}

// TestExactTKIPWorkersInvariant pins batched exact TKIP capture, whose
// frames are keyed in lane groups fanned over Workers, against the scalar
// per-frame capture: the evidence must be byte-identical for every worker
// count and however the capture is split into calls (mid-group, mid-batch,
// granule-sized).
func TestExactTKIPWorkersInvariant(t *testing.T) {
	const n = 5000
	spec := service.JobSpec{Attack: "tkip", Mode: "exact", TrainKeys: 1 << 6, Budget: n}
	want := scalarCapture(t, spec)
	m := model(t, spec)
	splits := [][]uint64{{n}, {1, 33, 2048 + 5, n}, {700, 1400, 2100, 2800, 3500, 4200, 4900, n}}
	for workers := 1; workers <= 3; workers++ {
		for _, split := range splits {
			js := jobSpec(spec)
			js.Workers = workers
			j, err := job.New(js, nil, m)
			if err != nil {
				t.Fatal(err)
			}
			for _, at := range split {
				if err := j.Capture(context.Background(), at); err != nil {
					t.Fatal(err)
				}
			}
			got, err := j.Evidence()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("workers %d, split %v: evidence differs from the scalar capture", workers, split)
			}
		}
	}
}

// merge folds one lane snapshot into the pool.
func merge(pool *job.Job, snap []byte) error {
	if pool.Cookie != nil {
		shard, err := cookieattack.ReadSnapshot(bytes.NewReader(snap))
		if err != nil {
			return err
		}
		return pool.Cookie.Merge(shard)
	}
	shard, err := tkip.ReadAttackSnapshot(bytes.NewReader(snap), pool.Model)
	if err != nil {
		return err
	}
	return pool.TKIP.Merge(shard)
}

// TestSearchMatchesSingleDecodeRun pins online.Search, the fixed-budget
// decode-and-walk the paper figures use, against online.Run with a single
// decode point at the budget: over the same job evidence both must confirm
// the same candidate at the same rank after the same oracle checks.
func TestSearchMatchesSingleDecodeRun(t *testing.T) {
	// The cookie case confirms mid-list (rank 163), so rank and check
	// counts are compared past the top candidate.
	cases := []struct {
		name string
		spec service.JobSpec
		n    uint64
		max  int
	}{
		{"cookie", service.JobSpec{Attack: "cookie", Mode: "model", Seed: 2, Secret: "Secur3C00kieVal+"}, 9 << 27, 1 << 10},
		{"tkip", service.JobSpec{Attack: "tkip", Mode: "model", Seed: 5, TrainKeys: 1 << 6}, 1 << 20, 1 << 12},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := model(t, c.spec)
			captured := func() *job.Job {
				j, err := job.New(jobSpec(c.spec), nil, m)
				if err != nil {
					t.Fatal(err)
				}
				if err := j.Capture(context.Background(), c.n); err != nil {
					t.Fatal(err)
				}
				return j
			}
			sj := captured()
			got, err := online.Search(sj.Decoder(), sj.Oracle, c.max)
			if err != nil {
				t.Fatal(err)
			}
			rj := captured()
			want, err := online.Run(online.Config{
				Decoder:       rj.Decoder(),
				Oracle:        rj.Oracle,
				Cadence:       online.Cadence{First: c.n},
				MaxCandidates: c.max,
				Budget:        c.n,
				Feed:          online.FeedFunc(func(uint64) error { return nil }),
			})
			if err != nil && !errors.Is(err, online.ErrBudgetExhausted) {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Plaintext, want.Plaintext) || got.Rank != want.Rank || got.Checks != want.Checks {
				t.Fatalf("Search found %q at rank %d after %d checks; Run found %q at rank %d after %d",
					got.Plaintext, got.Rank, got.Checks, want.Plaintext, want.Rank, want.Checks)
			}
			if got.Observed != c.n || want.Rounds != 1 {
				t.Fatalf("Search observed %d, Run decoded %d times; want %d and 1", got.Observed, want.Rounds, c.n)
			}
			t.Logf("rank %d after %d checks", got.Rank, got.Checks)
		})
	}
}
