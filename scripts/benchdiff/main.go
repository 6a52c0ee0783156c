// Command benchdiff compares two bench-JSON files (the scripts/benchjson /
// cliutil.ParseBenchOutput format) and prints per-benchmark ns/op deltas,
// worst regression first. With a nonzero -threshold it exits 1 when any
// benchmark regressed beyond it:
//
//	go run ./scripts/benchdiff -threshold 0.25 base.json bench.json
//
// With -gate the diff becomes a real CI gate over an allowlisted benchmark
// family: only benchmarks whose name matches the regexp are compared, a
// regression beyond -threshold fails, and so does a gated benchmark that is
// present in the baseline but missing from the current run (a gate that
// stops measuring must not silently pass). -min collapses `-count N`
// repeats to the fastest run on both sides before diffing:
//
//	go run ./scripts/benchdiff -gate 'Keystream|Skip' -min -threshold 0.6 BENCH_pr5_kernel.json kernel.json
//
// A negative -threshold turns the gate into an in-process A/B speedup
// check: with the slow side renamed into the baseline and the fast side
// into the current file, -threshold=-0.75 fails unless the current side
// is at least 4× faster.
//
// The -gate family has a static sibling: scripts/bcecheck compiles the same
// internal/rc4 kernels with -d=ssa/check_bce and fails CI when a bounds
// check drifts from its committed allowlist — catching at compile time the
// hot-loop regressions this gate would otherwise only see as a throughput
// drop (and catching them even when they hide inside runner noise).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"

	"rc4break/internal/cliutil"
)

func main() {
	threshold := flag.Float64("threshold", 0.25, "fractional ns/op regression that fails the diff; negative demands that much speedup (0 disables the gate)")
	gate := flag.String("gate", "", "benchmark-name regexp: compare only this family, fail on regression or on a gated benchmark missing from current")
	minRuns := flag.Bool("min", false, "collapse -count N repeats to the minimum ns/op per benchmark before diffing")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchdiff [-threshold F] [-gate REGEXP] [-min] baseline.json current.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}

	baseline, err := readBench(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	current, err := readBench(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	if *minRuns {
		baseline = cliutil.MinBench(baseline)
		current = cliutil.MinBench(current)
	}
	gated := *gate != ""
	if gated {
		re, err := regexp.Compile(*gate)
		if err != nil {
			fatal(fmt.Errorf("bad -gate regexp: %w", err))
		}
		baseline = cliutil.FilterBench(baseline, re)
		current = cliutil.FilterBench(current, re)
		if len(baseline) == 0 {
			fatal(fmt.Errorf("gate %q matches nothing in baseline %s — misconfigured gate", *gate, flag.Arg(0)))
		}
	}
	deltas, onlyBase, onlyCur := cliutil.DiffBench(baseline, current)
	regressions := cliutil.FormatBenchDiff(os.Stdout, deltas, onlyBase, onlyCur, *threshold)
	failed := false
	if regressions > 0 {
		if *threshold < 0 {
			fmt.Printf("%d benchmark(s) not at least %.0f%% faster than %s\n", regressions, -100**threshold, flag.Arg(0))
		} else {
			fmt.Printf("%d benchmark(s) regressed more than %.0f%% vs %s\n", regressions, 100**threshold, flag.Arg(0))
		}
		failed = true
	}
	if gated && len(onlyBase) > 0 {
		fmt.Printf("%d gated benchmark(s) missing from current run\n", len(onlyBase))
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

func readBench(path string) ([]cliutil.BenchResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var results []cliutil.BenchResult
	if err := json.NewDecoder(f).Decode(&results); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return results, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
