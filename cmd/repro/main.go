// Command repro regenerates every table and figure of the paper's
// evaluation at a configurable scale and prints them as text tables. With
// default flags it runs at laptop scale in minutes; larger -keys/-trials
// values approach paper scale. Keystream-generating runs can be bounded
// with -timeout, cancelled with Ctrl-C (the experiment stops at the next
// key boundary), and watched with -progress; the simulation-only drivers
// (fig7, fig10, charset) are not context-aware — a second Ctrl-C
// force-kills them. DESIGN.md maps each -only key to the paper result it
// reproduces.
//
// Usage:
//
//	repro [-keys N] [-trials N] [-candidates N] [-timeout D] [-progress] [-only table1,fig7,...]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"

	"rc4break/internal/dataset"
	"rc4break/internal/experiments"
	"rc4break/internal/obs"
)

// params holds the scale flags the experiment drivers read.
type params struct {
	keys, tkipKeys                       uint64
	ltKeys, ltBlocks, trials, candidates int
}

// experiment is one -only key and the driver that regenerates it.
type experiment struct {
	key string
	run func(ctx context.Context) (experiments.Result, error)
}

// table lists every experiment in run order. The drivers read p when they
// run, so the table can be built before the flags are parsed.
func table(p *params) []experiment {
	return []experiment{
		{"table1", func(ctx context.Context) (experiments.Result, error) {
			return experiments.Table1(ctx, [16]byte{1}, p.ltKeys, p.ltBlocks, 0)
		}},
		{"table2", func(ctx context.Context) (experiments.Result, error) {
			return experiments.Table2(ctx, p.keys, 0)
		}},
		{"eq2", func(ctx context.Context) (experiments.Result, error) {
			return experiments.ConsecutiveEq2(ctx, p.keys, 0)
		}},
		{"eq35", func(ctx context.Context) (experiments.Result, error) {
			return experiments.Equalities(ctx, p.keys, 0)
		}},
		{"fig4", func(ctx context.Context) (experiments.Result, error) {
			return experiments.Figure4(ctx, p.keys, 0, 96)
		}},
		{"fig5", func(ctx context.Context) (experiments.Result, error) {
			return experiments.Figure5(ctx, p.keys, 0, nil)
		}},
		{"fig6", func(ctx context.Context) (experiments.Result, error) {
			return experiments.Figure6(ctx, p.keys, 0)
		}},
		{"eq8", func(ctx context.Context) (experiments.Result, error) {
			return experiments.LongTermZeroPairs(ctx, [16]byte{2}, p.ltKeys, p.ltBlocks, 0)
		}},
		{"broadcast", func(ctx context.Context) (experiments.Result, error) {
			return experiments.BroadcastAttack(ctx, p.keys, p.keys, 16, 0)
		}},
		{"absab", func(ctx context.Context) (experiments.Result, error) {
			return experiments.ABSABGapVerification(ctx, [16]byte{4}, p.ltKeys, p.ltBlocks, nil, 0)
		}},
		{"eq9", func(ctx context.Context) (experiments.Result, error) {
			return experiments.Equation9Search(ctx, [16]byte{5}, p.ltKeys, p.ltBlocks, nil, 0)
		}},
		{"fig7", func(context.Context) (experiments.Result, error) {
			return experiments.Figure7(7, nil, p.trials, 128), nil
		}},
		{"fig89", func(ctx context.Context) (experiments.Result, error) {
			return experiments.Figures8and9(experiments.TKIPParams{
				KeysPerTSC: p.tkipKeys, Trials: p.trials, Seed: 1, Ctx: ctx,
			})
		}},
		{"fig10", func(context.Context) (experiments.Result, error) {
			return experiments.Figure10(experiments.CookieParams{
				Trials: p.trials, Candidates: p.candidates, Seed: 2,
			})
		}},
		{"online", func(context.Context) (experiments.Result, error) {
			return experiments.OnlineCookieRecords(experiments.OnlineCookieParams{
				Trials: p.trials, Candidates: p.candidates, Seed: 2,
			})
		}},
		{"placement", func(ctx context.Context) (experiments.Result, error) {
			trainKeys := p.tkipKeys
			if trainKeys == 0 {
				trainKeys = 1 << 10 // placement always measures a trained model
			}
			return experiments.PayloadPlacement(ctx, trainKeys, 0)
		}},
		{"charset", func(context.Context) (experiments.Result, error) {
			return experiments.CharsetAblation(3, 9<<27, p.trials, p.candidates)
		}},
	}
}

// keys returns the table's keys in run order.
func keys(exps []experiment) []string {
	out := make([]string, len(exps))
	for i, e := range exps {
		out[i] = e.key
	}
	return out
}

// selectExperiments returns the experiments named by the comma-separated
// -only value, in table order; an empty value selects all of them. A key
// not in the table is an error naming the valid keys.
func selectExperiments(exps []experiment, only string) ([]experiment, error) {
	if strings.TrimSpace(only) == "" {
		return exps, nil
	}
	valid := map[string]bool{}
	for _, e := range exps {
		valid[e.key] = true
	}
	want := map[string]bool{}
	for _, k := range strings.Split(only, ",") {
		k = strings.TrimSpace(k)
		if k == "" {
			continue
		}
		if !valid[k] {
			return nil, fmt.Errorf("-only: unknown experiment %q (valid: %s)", k, strings.Join(keys(exps), ","))
		}
		want[k] = true
	}
	var out []experiment
	for _, e := range exps {
		if want[e.key] {
			out = append(out, e)
		}
	}
	return out, nil
}

func main() {
	var p params
	exps := table(&p)
	flag.Uint64Var(&p.keys, "keys", 1<<20, "random keys for short-term bias experiments")
	flag.IntVar(&p.ltKeys, "ltkeys", 32, "keys for long-term experiments (each generates -ltblocks*256 bytes)")
	flag.IntVar(&p.ltBlocks, "ltblocks", 4096, "256-byte blocks per long-term key")
	flag.IntVar(&p.trials, "trials", 16, "simulation trials per point (paper: 256-2048)")
	flag.IntVar(&p.candidates, "candidates", 1<<12, "cookie candidate list depth (paper: 2^23)")
	flag.Uint64Var(&p.tkipKeys, "tkipkeys", 1<<12, "training keys per TSC class (paper: 2^32)")
	timeout := flag.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	progress := flag.Bool("progress", false, "report keystream-generation progress on stderr")
	only := flag.String("only", "", "comma-separated subset: "+strings.Join(keys(exps), ","))
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON of the run (one span per experiment, engine shard spans nested) to this file")
	flag.Parse()

	selected, err := selectExperiments(exps, *only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// Once the context is cancelled (first Ctrl-C or deadline), restore the
	// default SIGINT disposition: the generation-backed experiments stop at
	// the next key boundary, and a second Ctrl-C force-kills the
	// simulation-only drivers (fig7, fig10, charset), which do not take a
	// context yet.
	go func() {
		<-ctx.Done()
		stop()
	}()
	var progressLineOpen atomic.Bool
	if *progress {
		ctx = dataset.WithProgress(ctx, func(done, total uint64) {
			fmt.Fprintf(os.Stderr, "\rgenerated %d/%d keys (%.1f%%)", done, total,
				100*float64(done)/float64(total))
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
			progressLineOpen.Store(done != total)
		})
	}

	// With -trace-out, each selected experiment gets one span under a shared
	// run span, and the engine's run/shard spans nest beneath via the
	// context; the journal is dumped as a Chrome trace-event file at exit.
	var (
		journal *obs.Journal
		runSpan *obs.Span
		expSpan *obs.Span
	)
	if *traceOut != "" {
		journal = obs.NewJournal("repro", obs.DefaultCapacity)
		runSpan = journal.Start(obs.SpanContext{}, "repro.run",
			obs.U64("keys", p.keys), obs.Int("trials", int64(p.trials)))
		ctx = obs.NewContext(ctx, journal)
	}
	flushTrace := func() {
		if journal == nil {
			return
		}
		expSpan.End()
		runSpan.End()
		if err := obs.WriteChromeFile(*traceOut, journal); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "repro: chrome trace -> %s\n", *traceOut)
	}

	for _, e := range selected {
		expCtx := ctx
		if journal != nil {
			expSpan.End() // close the previous experiment's span (nil-safe)
			expSpan = journal.Start(runSpan.Context(), "repro."+e.key)
			expCtx = obs.WithParent(ctx, expSpan.Context())
		}
		res, err := e.run(expCtx)
		if err != nil {
			if progressLineOpen.Load() {
				fmt.Fprintln(os.Stderr) // close the partial \r-progress line
			}
			flushTrace()
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		res.Render(os.Stdout)
	}
	flushTrace()
}
