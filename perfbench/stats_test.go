package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

// TestTailPercentile pins the tail rule: the highest nearest-rank
// percentile with at least ten samples beyond it, never below the median.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n          int
		value, pct float64
		beyond     int
	}{
		{n: 100, value: 90, pct: 90, beyond: 10},
		{n: 40, value: 30, pct: 75, beyond: 10},
		{n: 11, value: 6, pct: 100 * 6.0 / 11, beyond: 5}, // few samples: the first above the middle
		{n: 20, value: 11, pct: 55, beyond: 9},
		{n: 21, value: 11, pct: 100 * 11.0 / 21, beyond: 10},
		{n: 1, value: 1, pct: 100, beyond: 0},
	} {
		got := tailPercentile(seq(tc.n))
		if got.Value != tc.value || got.Percentile != tc.pct || got.Beyond != tc.beyond || got.N != tc.n {
			t.Errorf("n=%d: got %+v, want value %v at p%v with %d beyond", tc.n, got, tc.value, tc.pct, tc.beyond)
		}
		if got.Beyond < tailBeyond && tc.n >= 2*tailBeyond+1 {
			t.Errorf("n=%d: only %d samples beyond the tail", tc.n, got.Beyond)
		}
	}
	if got := tailPercentile(nil); got != (tail{}) {
		t.Errorf("empty sample: got %+v", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

// TestRatioBases pins the bases of the derived ratios: an empty base reads
// zero, and each rate is its count over its own layer's busy time.
func TestRatioBases(t *testing.T) {
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio over an empty base = %v", got)
	}
	tr := newTracer(&output{})
	tr.wall = 4 * time.Second
	tr.add("rc4", "bytes", time.Second, 2e6)
	tr.inc("rc4.rekeys", 10)
	tr.add("netsim.victim", "frames", 3*time.Second, 30)
	tr.inc("online.checks", 30)
	tr.inc("online.skipped", 10)
	tr.inc("online.successes", 2)
	tr.inc("tlsrec.records", 8)
	tr.inc("tlsrec.matched", 6)
	deriveLayerMetrics(tr)
	for name, want := range map[string]float64{
		"rc4.keystream_mbps":         2,    // MB over rc4 busy seconds
		"rc4.rekey_per_s":            10,   // rekeys over rc4 busy seconds
		"rc4.busy_share":             0.25, // rc4 busy over traced wall
		"netsim.victim_busy_s":       3,    // inclusive of the RC4 it drives
		"netsim.victim_per_s":        10,
		"online.skipped_ratio":       0.25, // skips over skips + checks
		"online.checks_per_success":  15,
		"recovery.candidates_walked": 40,
		"tlsrec.match_ratio":         0.75, // matched over records scanned
	} {
		if got := tr.metrics[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// The ledger books RC4 once: the victim's self time excludes it.
	if got := tr.self("netsim.victim"); got != 2 {
		t.Errorf("victim self time = %v, want 2", got)
	}
}

// TestGoldenCheckCatchesPerturbedDigest pins that the golden comparison
// fails on a one-character change of an evidence digest, and on any other
// outcome field.
func TestGoldenCheckCatchesPerturbedDigest(t *testing.T) {
	gold, err := loadGoldens("solo-exact")
	if err != nil {
		t.Fatal(err)
	}
	want, ok := gold["cookie-exact"]
	if !ok {
		t.Fatal("no golden for cookie-exact")
	}
	if msg := sameOutcome("golden", want, want); msg != "" {
		t.Fatalf("identical outcomes differ: %s", msg)
	}
	got := want
	b := []byte(got.Digest)
	b[len(b)-1] ^= 1
	got.Digest = string(b)
	if sameOutcome("golden", want, got) == "" {
		t.Error("perturbed digest passed the golden check")
	}
	got = want
	got.Checks++
	if sameOutcome("golden", want, got) == "" {
		t.Error("perturbed check count passed the golden check")
	}
	var o output
	o.op(sameOutcome("golden", want, got))
	if o.failed != 1 || o.attempted != 1 {
		t.Errorf("a golden mismatch must fail the operation: %+v", o)
	}
}

// TestGoldensCoverEveryWorkload keeps a golden file per workload, each
// with distinct job names.
func TestGoldensCoverEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		b, err := os.ReadFile(filepath.Join("goldens", w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var g []outcome
		if err := json.Unmarshal(b, &g); err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, o := range g {
			if seen[o.Job] || o.Digest == "" {
				t.Errorf("%s: duplicate or digest-less golden %+v", w.name, o)
			}
			seen[o.Job] = true
		}
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json's workload and
// per-layer metric lists in step with the program's.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per-layer metric %d: %v vs %v", i, m, layerMetrics[i])
		}
	}
	e2e := endToEnd([]passResult{{wall: time.Second, jobs: []jobRun{{latency: time.Second, obs: 1}}, peakRSS: 1}}, 1)
	if len(spec.EndToEnd) != len(e2e) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %v: program reports %+v", m, got)
		}
	}
}
