package main

import (
	"fmt"
	"runtime"
	"time"
)

// layerMetrics is every per-layer metric the traced run reports, with its
// unit. A layer that does no work on a workload reports zero.
var layerMetrics = []struct{ name, unit string }{
	{"rc4.keystream_mbps", "MB/s"}, {"rc4.rekey_per_s", "1/s"}, {"rc4.busy_share", "ratio"},
	{"netsim.victim_busy_s", "s"}, {"netsim.victim_per_s", "1/s"}, {"netsim.sniffer_accept_ratio", "ratio"},
	{"netsim.oracle_checks", "count"}, {"netsim.oracle_busy_s", "s"},
	{"tlsrec.scan_busy_s", "s"}, {"tlsrec.scan_mbps", "MB/s"}, {"tlsrec.match_ratio", "ratio"},
	{"trace.parse_busy_s", "s"}, {"trace.parse_mbps", "MB/s"}, {"trace.packets", "count"},
	{"trace.dup_drop_ratio", "ratio"}, {"trace.dead_flows", "count"},
	{"cookieattack.fold_busy_s", "s"}, {"cookieattack.fold_rps", "1/s"}, {"cookieattack.simulate_busy_s", "s"},
	{"cookieattack.likelihood_busy_s", "s"}, {"cookieattack.snapshot_bytes", "bytes"}, {"cookieattack.snapshot_busy_s", "s"},
	{"tkip.fold_busy_s", "s"}, {"tkip.fold_fps", "1/s"}, {"tkip.simulate_busy_s", "s"},
	{"tkip.likelihood_busy_s", "s"}, {"tkip.train_s", "s"},
	{"recovery.candidates_busy_s", "s"}, {"recovery.candidates_per_s", "1/s"}, {"recovery.candidates_walked", "count"},
	{"online.capture_s", "s"}, {"online.decode_s", "s"}, {"online.oracle_s", "s"}, {"online.rounds", "count"},
	{"online.checks", "count"}, {"online.skipped_ratio", "ratio"}, {"online.checks_per_success", "count"},
	{"service.submit_p50_ms", "ms"}, {"service.status_p50_ms", "ms"}, {"service.slot_busy_s", "s"},
	{"service.slot_util", "ratio"}, {"service.queue_wait_s", "s"}, {"service.store_blobs", "count"},
	{"service.store_bytes", "bytes"},
	{"fleet.lanes", "count"}, {"fleet.lane_rtt_p50_s", "s"}, {"fleet.ingest_busy_s", "s"}, {"fleet.decode_busy_s", "s"},
	{"fleet.collect_busy_s", "s"}, {"fleet.upload_bytes", "bytes"}, {"fleet.rejected_uploads", "count"},
	{"fleet.useful_lane_ratio", "ratio"},
	{"obs.overhead_ratio", "ratio"}, {"obs.dropped_spans", "count"},
	{"runtime.alloc_bytes_per_obs", "bytes"}, {"runtime.gc_cycles", "count"}, {"ledger.unexplained_ratio", "ratio"},
	{"loadgen.late_p50_ms", "ms"}, {"loadgen.late_max_ms", "ms"},
}

// tracer collects a traced run: the ledger of layer self times and the
// per-layer metrics.
type tracer struct {
	out     *output
	rows    map[string]*ledgerRow
	order   []string
	metrics map[string]float64
	// counts accumulates the raw counters ratios are derived from.
	counts map[string]float64
	// wall is the traced pass's wall time; ledgerBase is the time the
	// ledger's self times must add up to (wall for sequential workloads,
	// busy-capable seconds for concurrent ones) and base says which.
	wall       time.Duration
	ledgerBase time.Duration
	base       string
	obs        uint64
}

type ledgerRow struct {
	self  time.Duration
	count uint64
	unit  string
}

func newTracer(out *output) *tracer {
	return &tracer{out: out, rows: map[string]*ledgerRow{}, metrics: map[string]float64{}, counts: map[string]float64{}}
}

// add books self time and a work count to a ledger layer.
func (t *tracer) add(layer, unit string, self time.Duration, count uint64) {
	r := t.rows[layer]
	if r == nil {
		r = &ledgerRow{unit: unit}
		t.rows[layer] = r
		t.order = append(t.order, layer)
	}
	r.self += self
	r.count += count
}

// self returns a layer's booked self time in seconds.
func (t *tracer) self(layer string) float64 {
	if r := t.rows[layer]; r != nil {
		return r.self.Seconds()
	}
	return 0
}

func (t *tracer) count(layer string) uint64 {
	if r := t.rows[layer]; r != nil {
		return r.count
	}
	return 0
}

func (t *tracer) set(name string, v float64) { t.metrics[name] = v }

func (t *tracer) inc(name string, v float64) { t.counts[name] += v }

// runTraced sets the workload up once, runs one untraced pass and one traced
// pass, and reports the per-layer metrics.
func runTraced(w *workload, e *env) (output, error) {
	var out output
	t := newTracer(&out)
	t0 := time.Now()
	fx, err := w.setup(e)
	if err != nil {
		return out, fmt.Errorf("setup: %w", err)
	}
	defer fx.close()
	fmt.Printf("setup %.3fs\n", time.Since(t0).Seconds())
	fx.describe()
	untraced, err := fx.pass()
	if err != nil {
		return out, err
	}
	for _, j := range untraced.jobs {
		out.op(j.problem)
	}
	// A short pass is repeated so the overhead ratio compares warm passes;
	// the first one took the first-touch page faults and heap growth.
	if untraced.wall < 5*time.Second {
		again, err := fx.pass()
		if err != nil {
			return out, err
		}
		for i, j := range again.jobs {
			out.op(j.problem, sameOutcome("pass 1", untraced.jobs[i].outcome, j.outcome))
		}
		untraced = again
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := fx.trace(untraced, t); err != nil {
		return out, err
	}
	runtime.ReadMemStats(&m1)

	t.set("runtime.alloc_bytes_per_obs", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(t.obs)))
	t.set("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC))
	t.set("obs.overhead_ratio", ratio(t.wall.Seconds(), untraced.wall.Seconds())-1)
	var explained time.Duration
	for _, r := range t.rows {
		explained += r.self
	}
	t.set("ledger.unexplained_ratio", 1-ratio(explained.Seconds(), t.ledgerBase.Seconds()))
	t.printLedger(untraced.wall)

	out.metrics = map[string]metric{}
	for _, m := range layerMetrics {
		out.metrics[m.name] = metric{t.metrics[m.name], m.unit}
	}
	return out, nil
}

func (t *tracer) printLedger(untraced time.Duration) {
	fmt.Printf("traced pass %.3fs (untraced %.3fs), %d observations\n", t.wall.Seconds(), untraced.Seconds(), t.obs)
	fmt.Printf("ledger over %.3fs of %s:\n", t.ledgerBase.Seconds(), t.base)
	fmt.Printf("  %-28s %10s %6s %14s %-10s %12s\n", "layer", "self s", "share", "count", "unit", "ns/obs")
	var explained time.Duration
	for _, name := range t.order {
		r := t.rows[name]
		explained += r.self
		fmt.Printf("  %-28s %10.4f %5.1f%% %14d %-10s %12.1f\n", name, r.self.Seconds(),
			100*ratio(r.self.Seconds(), t.ledgerBase.Seconds()), r.count, r.unit,
			ratio(float64(r.self.Nanoseconds()), float64(t.obs)))
	}
	fmt.Printf("  %-28s %10.4f %5.1f%%\n", "unexplained", (t.ledgerBase - explained).Seconds(),
		100*t.metrics["ledger.unexplained_ratio"])
	fmt.Println("per-layer metrics:")
	for _, m := range layerMetrics {
		fmt.Printf("  %-32s %14.6g %s\n", m.name, t.metrics[m.name], m.unit)
	}
}

// since books the time elapsed since t0 to a layer and returns now, so
// consecutive phases chain without extra clock reads.
func (t *tracer) since(layer, unit string, t0 time.Time, count uint64) time.Time {
	now := time.Now()
	t.add(layer, unit, now.Sub(t0), count)
	return now
}
