// Command perfbench is rc4break's end-to-end benchmark: one program that
// runs named workloads through the public entry points of each mode — solo
// online runs (service.SoloRun), trace ingest (CollectTraceReaders), the
// attack service over loopback HTTP, and the capture fleet over loopback
// TCP — checks every output, and prints one JSON result line.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics from untraced runs. With
// --trace 1 it re-runs the workload with the benchmark's own timers around
// the calls into each layer, prints the per-layer ledger, and reports the
// per-layer metrics. See README.md for every metric and workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"rc4break/internal/rc4"
)

// defaultSeed is the seed the goldens were recorded with.
const defaultSeed = 1

// setupReps is how many times each run sets its workload up; setup_s is the
// median, so one slow set-up (a page-cache miss, a GC) does not move it.
const setupReps = 3

// workload is one named set of inputs. setup builds everything the timed
// part needs from the seed; the fixture runs the fixed job list.
type workload struct {
	name  string
	why   string
	setup func(env *env) (fixture, error)
}

// fixture is one set-up workload.
type fixture interface {
	// describe prints the job counts and budgets.
	describe()
	// pass runs the fixed job list once, untraced.
	pass() (passResult, error)
	// trace runs the job list once with layer timers, checks that it did
	// the same work as untraced, and fills the ledger and layer metrics.
	trace(untraced passResult, t *tracer) error
	close()
}

// env is what every workload sees: the seed, the run length, and the
// directory it may write to.
type env struct {
	seed    int64
	seconds float64
	workDir string
}

var workloads = []workload{
	{"solo-exact", "capture-bound exact-mode SoloRuns: victim seal, RC4, TLS scan and per-record fold", setupSoloExact},
	{"solo-model", "decode-bound model-mode SoloRuns to success: likelihoods, list-Viterbi and oracle walks", setupSoloModel},
	{"ingest-pcap", "pcap parse, TCP reassembly and batched fold; no victim, RC4 or decode work", setupIngest},
	{"service-mix", "open-loop HTTP job traffic through the scheduler, store and API", setupServiceMix},
	{"fleet-lanes", "model-mode cookie job cut into lanes: snapshot encode, upload, validate, merge", setupFleet},
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", defaultSeed, "workload seed; the goldens hold for the default")
	secs := flag.Float64("seconds", 10, "measured time per run")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the untraced measurement")
	workDir := flag.String("workdir", ".bench_build", "directory for the service store")
	update := flag.Bool("update-goldens", false, "rewrite this workload's goldens from the default seed")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *update && *seed != defaultSeed {
		fmt.Fprintf(os.Stderr, "perfbench: goldens are recorded with the default seed %d\n", defaultSeed)
		os.Exit(2)
	}
	e := &env{seed: *seed, seconds: *secs, workDir: *workDir}
	backend, err := rc4.BackendAuto.Resolve()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("workload %s (%s)\n", w.name, w.why)
	fmt.Printf("seed %d, nproc %d, GOMAXPROCS %d, %s, rc4 backend %s, %.0fs measured\n",
		*seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), backend, *secs)

	var res output
	if *traced == 1 {
		res, err = runTraced(w, e)
	} else {
		res, err = runMeasured(w, e, *update)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range res.problems {
		fmt.Println("FAIL:", p)
	}
	line, err := json.Marshal(res.json())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if res.failed > 0 {
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is a run's result: the operation tally, the metrics and every
// correctness problem found.
type output struct {
	attempted, failed int
	metrics           map[string]metric
	problems          []string
}

// op records one attempted operation; a non-empty problem fails it.
func (o *output) op(problems ...string) {
	o.attempted++
	bad := false
	for _, p := range problems {
		if p != "" {
			o.problems = append(o.problems, p)
			bad = true
		}
	}
	if bad {
		o.failed++
	}
}

func (o *output) json() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, o.metrics}
}

// setupMedian sets the workload up setupReps times, keeping the last
// fixture, and returns it with the median set-up time.
func setupMedian(w *workload, e *env) (fixture, float64, error) {
	var times []float64
	var fx fixture
	for i := 0; i < setupReps; i++ {
		if fx != nil {
			fx.close()
		}
		t0 := time.Now()
		f, err := w.setup(e)
		if err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		fx = f
	}
	return fx, median(times), nil
}

// runMeasured is the untraced run: set up, then repeat the fixed job list
// until the measured time is spent, checking every job against the first
// pass, the victims' true secrets, and (default seed) the goldens.
func runMeasured(w *workload, e *env, update bool) (output, error) {
	fx, setupS, err := setupMedian(w, e)
	if err != nil {
		return output{}, err
	}
	defer fx.close()
	fx.describe()

	// Goldens are keyed by job name: the service-mix schedule grows with the
	// run length, and its first jobs are the same victims at any length.
	var gold map[string]outcome
	if e.seed == defaultSeed && !update {
		if gold, err = loadGoldens(w.name); err != nil {
			return output{}, err
		}
	}
	var out output
	var passes []passResult
	// Return the set-up repetitions' garbage before the peak is sampled.
	runtime.GC()
	debug.FreeOSMemory()
	rss := sampleRSS()
	defer rss.close()
	start := time.Now()
	for len(passes) == 0 || time.Since(start).Seconds() < e.seconds {
		p, err := fx.pass()
		if err != nil {
			return output{}, err
		}
		p.peakRSS = rss.take()
		for i, j := range p.jobs {
			var first, golden string
			if len(passes) > 0 {
				first = sameOutcome("pass 1", passes[0].jobs[i].outcome, j.outcome)
			}
			if g, ok := gold[j.outcome.Job]; ok {
				golden = sameOutcome("golden", g, j.outcome)
			}
			out.op(j.problem, first, golden)
		}
		passes = append(passes, p)
	}
	if update {
		if out.failed > 0 {
			return out, errors.New("not writing goldens from a run with failures")
		}
		if err := saveGoldens(w.name, passes[0].jobs); err != nil {
			return out, err
		}
	}
	out.metrics = endToEnd(passes, setupS)
	printEndToEnd(passes, out.metrics)
	fmt.Printf("  %-12s %14.6g ratio (%d failed of %d attempted)\n", "failed_ratio",
		ratio(float64(out.failed), float64(out.attempted)), out.failed, out.attempted)
	return out, nil
}

// endToEnd derives the end-to-end metrics from the measured passes.
func endToEnd(passes []passResult, setupS float64) map[string]metric {
	var walls, obsRates, jobRates, lat, rss []float64
	for _, p := range passes {
		rss = append(rss, p.peakRSS)
		walls = append(walls, p.wall.Seconds())
		obsRates = append(obsRates, ratio(float64(p.observations()), p.wall.Seconds()))
		jobRates = append(jobRates, ratio(float64(len(p.jobs)), p.wall.Seconds()))
		for _, j := range p.jobs {
			lat = append(lat, j.latency.Seconds())
		}
	}
	return map[string]metric{
		"setup_s":     {setupS, "s"},
		"wall_s":      {median(walls), "s"},
		"obs_per_s":   {median(obsRates), "obs/s"},
		"jobs_per_s":  {median(jobRates), "jobs/s"},
		"job_p50_s":   {median(lat), "s"},
		"job_tail_s":  {tailPercentile(lat).Value, "s"},
		"peak_rss_mb": {median(rss), "MB"},
	}
}

func printEndToEnd(passes []passResult, m map[string]metric) {
	var lat, mbps []float64
	jobs := 0
	for _, p := range passes {
		jobs += len(p.jobs)
		if b := p.bytes(); b > 0 {
			mbps = append(mbps, float64(b)/1e6/p.wall.Seconds())
		}
		for _, j := range p.jobs {
			lat = append(lat, j.latency.Seconds())
		}
	}
	fmt.Printf("%d passes, %d jobs\n", len(passes), jobs)
	for _, k := range []string{"setup_s", "wall_s", "obs_per_s", "jobs_per_s", "job_p50_s", "job_tail_s", "peak_rss_mb"} {
		fmt.Printf("  %-12s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Printf("  job_tail_s is %s\n", tailPercentile(lat))
	if len(mbps) > 0 {
		fmt.Printf("  %-12s %14.6g MB/s (capture bytes over pass wall, median of passes)\n", "ingest_mbps", median(mbps))
	}
	for _, note := range passes[len(passes)-1].notes {
		fmt.Println(" ", note)
	}
}

// rssSampler tracks the peak resident set of each measured pass. It samples
// /proc/self/statm every millisecond rather than reading VmHWM, whose
// high-water mark would include the set-up repetitions' garbage.
type rssSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	page := uint64(os.Getpagesize())
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			var size, resident uint64
			if b, err := os.ReadFile("/proc/self/statm"); err == nil {
				if _, err := fmt.Sscan(string(b), &size, &resident); err == nil {
					for rss := resident * page; ; {
						old := s.peak.Load()
						if rss <= old || s.peak.CompareAndSwap(old, rss) {
							break
						}
					}
				}
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// take returns the peak in MB since the previous take and starts a new one.
func (s *rssSampler) take() float64 {
	return float64(s.peak.Swap(0)) / (1 << 20)
}

func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}
