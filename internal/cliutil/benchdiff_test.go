package cliutil

import (
	"regexp"
	"strings"
	"testing"
)

func TestDiffBench(t *testing.T) {
	baseline := []BenchResult{
		{Pkg: "rc4break/internal/rc4", Name: "BenchmarkKeystream", Procs: 1, NsPerOp: 1000},
		{Pkg: "rc4break/internal/rc4", Name: "BenchmarkSkip", Procs: 1, NsPerOp: 500},
		{Pkg: "rc4break", Name: "BenchmarkGone", Procs: 1, NsPerOp: 42},
	}
	// The current run has a different GOMAXPROCS (a multi-core CI runner
	// diffing against the 1-CPU container baseline); matching must not care.
	current := []BenchResult{
		{Pkg: "rc4break/internal/rc4", Name: "BenchmarkKeystream", Procs: 4, NsPerOp: 1400}, // +40%
		{Pkg: "rc4break/internal/rc4", Name: "BenchmarkSkip", Procs: 4, NsPerOp: 450},       // -10%
		{Pkg: "rc4break", Name: "BenchmarkNew", Procs: 4, NsPerOp: 7},
	}

	deltas, onlyBase, onlyCur := DiffBench(baseline, current)
	if len(deltas) != 2 {
		t.Fatalf("deltas = %d, want 2", len(deltas))
	}
	// Sorted worst-first: the +40% regression leads.
	if deltas[0].Name != "BenchmarkKeystream" || deltas[0].Delta < 0.399 || deltas[0].Delta > 0.401 {
		t.Fatalf("worst delta = %+v", deltas[0])
	}
	if deltas[1].Name != "BenchmarkSkip" || deltas[1].Delta > -0.099 {
		t.Fatalf("second delta = %+v", deltas[1])
	}
	if len(onlyBase) != 1 || !strings.Contains(onlyBase[0], "BenchmarkGone") {
		t.Fatalf("onlyBaseline = %v", onlyBase)
	}
	if len(onlyCur) != 1 || !strings.Contains(onlyCur[0], "BenchmarkNew") {
		t.Fatalf("onlyCurrent = %v", onlyCur)
	}

	var buf strings.Builder
	if got := FormatBenchDiff(&buf, deltas, onlyBase, onlyCur, 0.25); got != 1 {
		t.Fatalf("regressions = %d, want 1 (only the +40%%)", got)
	}
	out := buf.String()
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "only in baseline") {
		t.Fatalf("report missing markers:\n%s", out)
	}
	// A negative threshold demands a speedup: -10% clears a 5% demand but
	// not a 20% one.
	if got := FormatBenchDiff(&strings.Builder{}, deltas, nil, nil, -0.05); got != 1 {
		t.Fatalf("threshold -0.05 counted %d, want 1 (only the +40%%)", got)
	}
	if got := FormatBenchDiff(&strings.Builder{}, deltas, nil, nil, -0.2); got != 2 {
		t.Fatalf("threshold -0.2 counted %d, want 2", got)
	}
	// Threshold 0 disables the gate entirely.
	if got := FormatBenchDiff(&strings.Builder{}, deltas, nil, nil, 0); got != 0 {
		t.Fatalf("threshold 0 counted %d regressions", got)
	}
}

func TestFilterBench(t *testing.T) {
	results := []BenchResult{
		{Pkg: "rc4", Name: "BenchmarkKeystreamMulti1K", NsPerOp: 1},
		{Pkg: "rc4", Name: "BenchmarkSkip1K", NsPerOp: 2},
		{Pkg: "rc4", Name: "BenchmarkRekey", NsPerOp: 3},
		{Pkg: "dataset", Name: "BenchmarkEngine", NsPerOp: 4},
	}
	re := regexp.MustCompile(`BenchmarkKeystream|BenchmarkSkip`)
	got := FilterBench(results, re)
	if len(got) != 2 || got[0].Name != "BenchmarkKeystreamMulti1K" || got[1].Name != "BenchmarkSkip1K" {
		t.Fatalf("FilterBench = %+v", got)
	}
	if got := FilterBench(results, regexp.MustCompile(`^Nothing$`)); len(got) != 0 {
		t.Fatalf("non-matching filter kept %+v", got)
	}
}

func TestLaneSeedDistinct(t *testing.T) {
	const seed = 1
	seen := map[int64]uint64{seed: ^uint64(0)}
	for lane := uint64(0); lane < 1000; lane++ {
		s := LaneSeed(seed, lane)
		if prev, dup := seen[s]; dup {
			t.Fatalf("lane %d collides with lane %d (seed %d)", lane, prev, s)
		}
		seen[s] = lane
	}
}
