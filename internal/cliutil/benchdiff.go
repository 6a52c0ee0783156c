package cliutil

import (
	"fmt"
	"io"
	"regexp"
	"sort"
)

// BenchDelta compares one benchmark between two ParseBenchOutput runs.
type BenchDelta struct {
	Pkg  string
	Name string
	// OldNs and NewNs are the ns/op measurements.
	OldNs, NewNs float64
	// Delta is the fractional change (NewNs-OldNs)/OldNs: +0.25 means 25%
	// slower than the baseline.
	Delta float64
}

// benchKey deliberately excludes the -N GOMAXPROCS suffix: the committed
// baselines come from a 1-CPU container while CI runners have several
// cores, and a key that included procs would match nothing across that
// boundary — every benchmark appears once per run here, so (pkg, name) is
// unique.
func benchKey(r BenchResult) string {
	return fmt.Sprintf("%s\x00%s", r.Pkg, r.Name)
}

// FilterBench keeps only the results whose benchmark name matches re — the
// allowlist behind benchdiff's -gate mode, which fails CI on regressions in
// a pinned benchmark family while the module-wide diff stays warn-only.
func FilterBench(results []BenchResult, re *regexp.Regexp) []BenchResult {
	out := make([]BenchResult, 0, len(results))
	for _, r := range results {
		if re.MatchString(r.Name) {
			out = append(out, r)
		}
	}
	return out
}

// DiffBench matches benchmarks between a baseline and a new run by
// (package, name) — ignoring the GOMAXPROCS suffix, see benchKey — and
// reports per-benchmark ns/op deltas, plus the names present on only one
// side (renamed, added, or removed benchmarks — surfaced rather than
// silently dropped).
func DiffBench(baseline, current []BenchResult) (deltas []BenchDelta, onlyBaseline, onlyCurrent []string) {
	base := make(map[string]BenchResult, len(baseline))
	for _, r := range baseline {
		base[benchKey(r)] = r
	}
	seen := make(map[string]bool, len(current))
	for _, r := range current {
		k := benchKey(r)
		seen[k] = true
		b, ok := base[k]
		if !ok {
			onlyCurrent = append(onlyCurrent, r.Pkg+"."+r.Name)
			continue
		}
		d := BenchDelta{Pkg: r.Pkg, Name: r.Name, OldNs: b.NsPerOp, NewNs: r.NsPerOp}
		if b.NsPerOp > 0 {
			d.Delta = (r.NsPerOp - b.NsPerOp) / b.NsPerOp
		}
		deltas = append(deltas, d)
	}
	for k, r := range base {
		if !seen[k] {
			onlyBaseline = append(onlyBaseline, r.Pkg+"."+r.Name)
		}
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Delta > deltas[j].Delta })
	sort.Strings(onlyBaseline)
	sort.Strings(onlyCurrent)
	return deltas, onlyBaseline, onlyCurrent
}

// FormatBenchDiff renders the deltas (worst regression first) and returns
// how many exceed the regression threshold (fractional; 0.25 = fail on
// >25% slower). A negative threshold demands a speedup (-0.75 = fail unless
// at least 4× faster). A zero threshold disables the regression count —
// every delta is informational.
func FormatBenchDiff(w io.Writer, deltas []BenchDelta, onlyBaseline, onlyCurrent []string, threshold float64) (regressions int) {
	nameW := len("benchmark")
	for _, d := range deltas {
		if n := len(d.Name); n > nameW {
			nameW = n
		}
	}
	fmt.Fprintf(w, "%-*s  %14s  %14s  %8s\n", nameW, "benchmark", "old ns/op", "new ns/op", "delta")
	for _, d := range deltas {
		flag := ""
		if threshold != 0 && d.Delta > threshold {
			flag = "  REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-*s  %14.1f  %14.1f  %+7.1f%%%s\n", nameW, d.Name, d.OldNs, d.NewNs, 100*d.Delta, flag)
	}
	for _, n := range onlyBaseline {
		fmt.Fprintf(w, "only in baseline: %s\n", n)
	}
	for _, n := range onlyCurrent {
		fmt.Fprintf(w, "only in current:  %s\n", n)
	}
	return regressions
}
