package main

import (
	"time"

	"rc4break/internal/netsim"
	"rc4break/internal/obs"
	"rc4break/internal/service"
	"rc4break/internal/tkip"
)

// soloFixture is a closed loop with one caller: the job list runs through
// service.SoloRun one job after another.
type soloFixture struct {
	jobs   []job
	model  *tkip.PerTSCModel
	trainS float64
}

// modelPrimed records that the process-wide shared model exists.
var modelPrimed bool

// trainModel trains the demo-session per-TSC model every TKIP job uses. The
// first call goes through service.SharedModel, which the service and
// SoloRun read from; later calls train afresh with the same configuration,
// so every set-up pays for training.
func trainModel() (*tkip.PerTSCModel, float64, error) {
	t0 := time.Now()
	if !modelPrimed {
		m, err := service.SharedModel(trainKeys)
		modelPrimed = err == nil
		return m, time.Since(t0).Seconds(), err
	}
	positions := tkip.TrailerPositions(len(netsim.NewWiFiVictim(tkip.DemoSession(), tkip.DemoPayload).MSDU))
	m, err := tkip.Train(tkip.TrainConfig{Positions: positions[len(positions)-1], KeysPerTSC: trainKeys})
	return m, time.Since(t0).Seconds(), err
}

// setupSoloExact builds one exact-mode cookie job (geometric cadence, two
// decode rounds) and one exact-mode TKIP job (one decode round at the
// budget). Both budgets are far below what recovery needs, so both end
// budget-exhausted and the work per pass is fixed.
func setupSoloExact(e *env) (fixture, error) {
	model, trainS, err := trainModel()
	if err != nil {
		return nil, err
	}
	v := netsim.Population(netsim.PopulationConfig{Victims: 1, Seed: e.seed})[0]
	return &soloFixture{model: model, trainS: trainS, jobs: []job{
		{name: "cookie-exact", spec: service.JobSpec{Attack: "cookie", Mode: "exact", Seed: v.Seed, Secret: v.Secret,
			Budget: 1 << 14, FirstDecode: 1 << 13, MaxCandidates: 1 << 10}, truth: []byte(v.Secret)},
		{name: "tkip-exact", spec: service.JobSpec{Attack: "tkip", Mode: "exact",
			Budget: 1 << 17, FirstDecode: 1 << 17, MaxCandidates: 1 << 12, TrainKeys: trainKeys}, truth: tkipTrailer()},
	}}, nil
}

// setupSoloModel builds a seeded population of 16 victims, one in four a
// TKIP station, whose model-mode jobs run to success.
func setupSoloModel(e *env) (fixture, error) {
	model, trainS, err := trainModel()
	if err != nil {
		return nil, err
	}
	return &soloFixture{model: model, trainS: trainS, jobs: population(e.seed, 16, 4, 1, nil)}, nil
}

func (f *soloFixture) describe() { describeJobs(f.jobs) }

func (f *soloFixture) close() {}

// pass runs the jobs back to back; its wall is the sum of the SoloRuns,
// without the benchmark's own digesting of their evidence.
func (f *soloFixture) pass() (passResult, error) {
	var p passResult
	for _, j := range f.jobs {
		r, _ := runSolo(j)
		p.jobs = append(p.jobs, r)
		p.wall += r.latency
	}
	return p, nil
}

// trace runs every job through the benchmark's own layer-by-layer
// composition and requires its outcome and evidence to equal SoloRun's.
func (f *soloFixture) trace(untraced passResult, t *tracer) error {
	journal := obs.NewJournal("perfbench", 1<<16)
	var replays []func(*tracer)
	for i, j := range f.jobs {
		t0 := time.Now()
		c, res, snap, err := runComposed(j.spec, f.model, t, journal)
		lat := time.Since(t0)
		r := finishJob(j, res, snap, err, lat)
		t.out.op(r.problem, sameOutcome("SoloRun equivalence", untraced.jobs[i].outcome, r.outcome))
		t.wall += lat
		t.obs += r.obs
		if c != nil && c.rc4Replay != nil {
			replays = append(replays, c.rc4Replay)
		}
	}
	for _, replay := range replays {
		replay(t)
	}
	t.ledgerBase, t.base = t.wall, "sequential job wall time"
	t.set("tkip.train_s", f.trainS)
	_, dropped := journal.Stats()
	t.set("obs.dropped_spans", float64(dropped))
	deriveLayerMetrics(t)
	return nil
}

// deriveLayerMetrics turns the ledger rows and counters every workload may
// fill into the per-layer metrics. The RC4 replay is part of the victim's
// measured time, so the ledger moves it out of the victim's self time.
func deriveLayerMetrics(t *tracer) {
	busy := func(metric, layer string) float64 {
		s := t.self(layer)
		t.set(metric, s)
		return s
	}
	rate := func(metric, layer string, scale float64) {
		t.set(metric, ratio(float64(t.count(layer))/scale, t.self(layer)))
	}
	rc4s := t.self("rc4")
	rate("rc4.keystream_mbps", "rc4", 1e6)
	t.set("rc4.rekey_per_s", ratio(t.counts["rc4.rekeys"], rc4s))
	t.set("rc4.busy_share", ratio(rc4s, t.wall.Seconds()))
	busy("netsim.victim_busy_s", "netsim.victim")
	rate("netsim.victim_per_s", "netsim.victim", 1)
	if r := t.rows["netsim.victim"]; r != nil && rc4s > 0 {
		r.self -= time.Duration(rc4s * float64(time.Second))
	}
	t.set("netsim.sniffer_accept_ratio", ratio(t.counts["netsim.accepted"], t.counts["netsim.sniffed"]))
	t.set("netsim.oracle_checks", float64(t.count("netsim.oracle")))
	busy("netsim.oracle_busy_s", "netsim.oracle")
	busy("tlsrec.scan_busy_s", "tlsrec.scan")
	rate("tlsrec.scan_mbps", "tlsrec.scan", 1e6)
	t.set("tlsrec.match_ratio", ratio(t.counts["tlsrec.matched"], t.counts["tlsrec.records"]))
	for _, a := range []string{"cookieattack", "tkip"} {
		busy(a+".fold_busy_s", a+".fold")
		busy(a+".simulate_busy_s", a+".simulate")
		busy(a+".likelihood_busy_s", a+".likelihood")
	}
	rate("cookieattack.fold_rps", "cookieattack.fold", 1)
	rate("tkip.fold_fps", "tkip.fold", 1)
	t.set("cookieattack.snapshot_bytes", float64(t.count("cookieattack.snapshot")))
	busy("cookieattack.snapshot_busy_s", "cookieattack.snapshot")
	busy("recovery.candidates_busy_s", "recovery.candidates")
	rate("recovery.candidates_per_s", "recovery.candidates", 1)
	checks, skipped := t.counts["online.checks"], t.counts["online.skipped"]
	t.set("recovery.candidates_walked", checks+skipped)
	for _, k := range []string{"online.capture_s", "online.decode_s", "online.oracle_s", "online.rounds", "online.checks"} {
		t.set(k, t.counts[k])
	}
	t.set("online.skipped_ratio", ratio(skipped, skipped+checks))
	t.set("online.checks_per_success", ratio(checks, t.counts["online.successes"]))
}
