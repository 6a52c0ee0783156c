package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"rc4break/internal/cliutil"
	"rc4break/internal/cookieattack"
	"rc4break/internal/fleet"
	"rc4break/internal/netsim"
	"rc4break/internal/obs"
	"rc4break/internal/online"
)

// Fleet jobs: model-mode cookie jobs against 6-byte cookies, cut into eight
// lanes with one decode at the budget. Every job therefore moves the same
// eight lane snapshots through encode, upload, validate and merge whatever
// its victim, and 6-byte cookies recover at that budget.
const (
	fleetJobs        = 8
	fleetLaneRecords = 9 << 24
	fleetBudget      = 9 << 27
	fleetFirstDecode = fleetBudget
	fleetCandidates  = 1 << 10
)

// fleetFixture runs each job on a fresh coordinator with nproc in-process
// workers over loopback TCP.
type fleetFixture struct {
	jobs    []fleetJob
	workers int
}

type fleetJob struct {
	name   string
	secret string
	cfg    cookieattack.Config
	spec   fleet.JobSpec
}

func setupFleet(e *env) (fixture, error) {
	f := &fleetFixture{workers: runtime.NumCPU()}
	pop := netsim.Population(netsim.PopulationConfig{Victims: fleetJobs, Seed: e.seed, CookieLens: []int{6}})
	for i, v := range pop {
		cfg, _, err := cookieConfig(v.Secret)
		if err != nil {
			return nil, err
		}
		a, err := cookieattack.New(cfg)
		if err != nil {
			return nil, err
		}
		f.jobs = append(f.jobs, fleetJob{name: fmt.Sprintf("fleet-cookie-%d", i), secret: v.Secret, cfg: cfg,
			spec: fleet.JobSpec{Attack: "cookie", Mode: "model", Seed: v.Seed, Budget: fleetBudget,
				LaneRecords: fleetLaneRecords, Fingerprint: a.Fingerprint()}})
	}
	// Warm-up: one job end to end, so connection set-up, heap growth and
	// first-touch page faults land in set-up rather than in the first
	// timed job.
	if r, _, _ := f.runJob(f.jobs[0], nil); r.problem != "" {
		return nil, errors.New(r.problem)
	}
	return f, nil
}

func (f *fleetFixture) describe() {
	fmt.Printf("  %d jobs, one coordinator and %d workers each over loopback TCP\n", len(f.jobs), f.workers)
	for _, j := range f.jobs {
		fmt.Printf("  job %-16s cookie/model budget %d lanes %d x %d first decode %d max candidates %d\n",
			j.name, j.spec.Budget, j.spec.Lanes(), j.spec.LaneRecords, fleetFirstDecode, fleetCandidates)
	}
}

func (f *fleetFixture) close() {}

// fleetTrace gathers one traced fleet job's layer timings.
type fleetTrace struct {
	mu                              sync.Mutex
	collect, encode, ingest, decode time.Duration
	lanes, uploadBytes              uint64
	rtt                             []float64
	journal                         *obs.Journal
}

func (ft *fleetTrace) observe(d *time.Duration) func(time.Duration) {
	return func(x time.Duration) {
		ft.mu.Lock()
		*d += x
		ft.mu.Unlock()
	}
}

// runJob stands up a coordinator and the workers, runs the job to its end,
// and returns the outcome with the merged pool's evidence.
func (f *fleetFixture) runJob(j fleetJob, ft *fleetTrace) (jobRun, []byte, uint64) {
	r := jobRun{outcome: outcome{Job: j.name}}
	t0 := time.Now()
	pool, err := cookieattack.New(j.cfg)
	if err != nil {
		r.problem = fmt.Sprintf("%s: %v", j.name, err)
		return r, nil, 0
	}
	cfg := fleet.Config{
		Job:           j.spec,
		Pool:          &fleet.CookiePool{Attack: pool},
		Oracle:        &netsim.CookieServer{Secret: []byte(j.secret)},
		Cadence:       online.Cadence{First: fleetFirstDecode},
		MaxCandidates: fleetCandidates,
	}
	if ft != nil {
		cfg.Tracer = ft.journal
		cfg.ObserveIngest = ft.observe(&ft.ingest)
		cfg.ObserveDecode = ft.observe(&ft.decode)
		cfg.ObserveLaneRoundtrip = func(d time.Duration) {
			ft.mu.Lock()
			ft.rtt = append(ft.rtt, d.Seconds())
			ft.mu.Unlock()
		}
	}
	coord, err := fleet.NewCoordinator(cfg)
	var ln net.Listener
	if err == nil {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		r.problem = fmt.Sprintf("%s: %v", j.name, err)
		return r, nil, 0
	}
	coord.Serve(ln)
	var wg sync.WaitGroup
	werrs := make([]error, f.workers)
	for w := 0; w < f.workers; w++ {
		wk := &fleet.Worker{Addr: ln.Addr().String(), ID: fmt.Sprintf("w%d", w), Attack: "cookie",
			Fingerprint: j.spec.Fingerprint, MaxWait: 2 * time.Millisecond, Collect: f.collect(j, ft)}
		if ft != nil {
			wk.Tracer = obs.NewJournal(wk.ID, 0)
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, werrs[w] = wk.Run(context.Background())
		}(w)
	}
	res, runErr := coord.Run(context.Background())
	wg.Wait()
	coord.Close()
	r.latency = time.Since(t0)
	for _, err := range werrs {
		if err != nil && r.problem == "" {
			r.problem = fmt.Sprintf("%s: worker: %v", j.name, err)
		}
	}
	var buf bytes.Buffer
	if err := pool.WriteSnapshot(&buf); err != nil {
		r.problem = fmt.Sprintf("%s: %v", j.name, err)
		return r, nil, 0
	}
	jr := finishJob(job{name: j.name, truth: []byte(j.secret)}, res, buf.Bytes(), runErr, r.latency)
	if r.problem != "" {
		jr.problem = r.problem
	}
	_, rejected, _ := coord.Stats()
	return jr, buf.Bytes(), rejected
}

// collect is the worker's lane collection: simulate the lane's records and
// encode the lane snapshot for upload.
func (f *fleetFixture) collect(j fleetJob, ft *fleetTrace) func(fleet.JobSpec, fleet.Lease) ([]byte, error) {
	return func(job fleet.JobSpec, lease fleet.Lease) ([]byte, error) {
		t0 := time.Now()
		a, err := cookieattack.CollectLane(j.cfg, []byte(j.secret), lease.Stream,
			cliutil.LaneSeed(job.Seed, lease.Lane), lease.Records, 1)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		var buf bytes.Buffer
		if err := a.WriteSnapshot(&buf); err != nil {
			return nil, err
		}
		if ft != nil {
			t2 := time.Now()
			ft.mu.Lock()
			ft.collect += t1.Sub(t0)
			ft.encode += t2.Sub(t1)
			ft.lanes++
			ft.uploadBytes += uint64(buf.Len())
			ft.mu.Unlock()
		}
		return buf.Bytes(), nil
	}
}

// pass runs the jobs one after another. A fleetd process runs one job, so
// each job starts on a collected heap, and the collection stays outside the
// pass wall.
func (f *fleetFixture) pass() (passResult, error) {
	var p passResult
	for _, j := range f.jobs {
		runtime.GC()
		r, _, _ := f.runJob(j, nil)
		p.jobs = append(p.jobs, r)
		p.wall += r.latency
	}
	return p, nil
}

// reference is the fleet's single-process equivalent: one online.Run whose
// feed merges the same lanes, with the same lane seeds, in lane order. The
// fleet must reproduce its outcome and evidence bytes.
func reference(j fleetJob) (online.Result, []byte, error) {
	pool, err := cookieattack.New(j.cfg)
	if err != nil {
		return online.Result{}, nil, err
	}
	lane := uint64(0)
	res, runErr := online.Run(online.Config{
		Decoder:       pool,
		Oracle:        &netsim.CookieServer{Secret: []byte(j.secret)},
		Cadence:       online.Cadence{First: fleetFirstDecode},
		MaxCandidates: fleetCandidates,
		Budget:        j.spec.Budget,
		Feed: online.FeedFunc(func(target uint64) error {
			for pool.Records < target && lane < j.spec.Lanes() {
				_, records := j.spec.LaneExtent(lane)
				shard, err := cookieattack.CollectLane(j.cfg, []byte(j.secret), j.spec.LaneStream(lane),
					cliutil.LaneSeed(j.spec.Seed, lane), records, 0)
				if err != nil {
					return err
				}
				if err := pool.Merge(shard); err != nil {
					return err
				}
				lane++
			}
			return nil
		}),
	})
	var buf bytes.Buffer
	if err := pool.WriteSnapshot(&buf); err != nil {
		return res, nil, err
	}
	return res, buf.Bytes(), runErr
}

func (f *fleetFixture) trace(untraced passResult, t *tracer) error {
	ft := &fleetTrace{journal: obs.NewJournal("fleetd", 1<<16)}
	var rejected, merged uint64
	for i, j := range f.jobs {
		runtime.GC()
		r, _, rej := f.runJob(j, ft)
		t.out.op(r.problem, sameOutcome("repeat", untraced.jobs[i].outcome, r.outcome))
		t.wall += r.latency
		t.obs += r.obs
		merged += r.outcome.Observed / fleetLaneRecords
		rejected += rej
	}
	for i, j := range f.jobs {
		res, snap, err := reference(j)
		ref := finishJob(job{name: j.name, truth: []byte(j.secret)}, res, snap, err, 0)
		t.out.op(ref.problem, sameOutcome("single-process equivalence", ref.outcome, untraced.jobs[i].outcome))
	}
	t.add("fleet.collect", "lanes", ft.collect, ft.lanes)
	t.add("cookieattack.snapshot", "bytes", ft.encode, ft.uploadBytes)
	t.add("fleet.ingest", "uploads", ft.ingest, ft.lanes)
	t.add("fleet.decode", "jobs", ft.decode, uint64(len(f.jobs)))
	t.ledgerBase = t.wall * time.Duration(f.workers)
	t.base = fmt.Sprintf("wall time x %d workers", f.workers)
	t.set("fleet.lanes", float64(ft.lanes))
	t.set("fleet.lane_rtt_p50_s", median(ft.rtt))
	t.set("fleet.ingest_busy_s", ft.ingest.Seconds())
	t.set("fleet.decode_busy_s", ft.decode.Seconds())
	t.set("fleet.collect_busy_s", ft.collect.Seconds())
	t.set("fleet.upload_bytes", float64(ft.uploadBytes))
	t.set("fleet.rejected_uploads", float64(rejected))
	t.set("fleet.useful_lane_ratio", ratio(float64(merged), float64(ft.lanes)))
	t.set("cookieattack.simulate_busy_s", ft.collect.Seconds())
	t.set("cookieattack.snapshot_bytes", float64(ft.uploadBytes))
	t.set("cookieattack.snapshot_busy_s", ft.encode.Seconds())
	_, dropped := ft.journal.Stats()
	t.set("obs.dropped_spans", float64(dropped))
	return nil
}
