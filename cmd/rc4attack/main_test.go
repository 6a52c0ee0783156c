package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rc4break/internal/cliutil"
	"rc4break/internal/job"
	"rc4break/internal/online"
	"rc4break/internal/service"
	"rc4break/internal/tkip"
)

// runCLI runs the command in-process and returns its JSON result line (the
// last output line; zero when -json is not among args) and its error.
func runCLI(t *testing.T, args ...string) (cliutil.RunResult, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out)
	var r cliutil.RunResult
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if last := lines[len(lines)-1]; strings.HasPrefix(last, "{") {
		if jerr := json.Unmarshal([]byte(last), &r); jerr != nil {
			t.Fatalf("JSON line %q: %v", last, jerr)
		}
	}
	return r, err
}

// finished accepts a run that ended with or without a confirmed candidate.
func finished(t *testing.T, err error) {
	t.Helper()
	if err != nil && !errors.Is(err, online.ErrBudgetExhausted) {
		t.Fatal(err)
	}
}

// TestRunMatchesSoloRun runs exact cookie and TKIP attacks with no cadence
// flags: the one decode at the budget must report SoloRun's rank and
// observation count, and the -checkpoint must hold SoloRun's evidence.
func TestRunMatchesSoloRun(t *testing.T) {
	cases := []struct {
		name string
		spec service.JobSpec
		args []string
	}{
		{"cookie", service.JobSpec{Attack: "cookie", Mode: "exact", Seed: 7, Secret: "Secur3C00kieVal+", MaxCandidates: 4},
			[]string{"-attack", "cookie", "-seed", "7"}},
		{"tkip", service.JobSpec{Attack: "tkip", Mode: "exact", MaxCandidates: 4, TrainKeys: 1 << 6},
			[]string{"-attack", "tkip", "-trainkeys", "64"}},
	}
	const budget = 3000
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := c.spec
			spec.Budget, spec.FirstDecode = budget, budget
			want, snap, err := service.SoloRun(spec)
			finished(t, err)

			path := filepath.Join(t.TempDir(), "run.snap")
			got, err := runCLI(t, append(c.args, "-mode", "exact", "-budget", "3000", "-candidates", "4",
				"-checkpoint-every", "700", "-checkpoint", path, "-json")...)
			finished(t, err)
			if got.Rank != want.Rank || got.Observations != want.Observed || got.Rounds != 1 {
				t.Fatalf("CLI rank %d at %d observations in %d rounds, SoloRun rank %d at %d",
					got.Rank, got.Observations, got.Rounds, want.Rank, want.Observed)
			}
			checkpoint, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(checkpoint, snap) {
				t.Fatal("CLI checkpoint differs from SoloRun's evidence")
			}
		})
	}
}

// TestMergeShards pools two model-mode cookie shards captured with
// -collect-only and decodes the pool once; a shard of a stream already in
// the pool is refused.
func TestMergeShards(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.snap"), filepath.Join(dir, "b.snap")
	for seed, path := range map[string]string{"1": a, "2": b} {
		if _, err := runCLI(t, "-seed", seed, "-budget", "1048576", "-checkpoint", path, "-collect-only"); err != nil {
			t.Fatal(err)
		}
	}
	got, err := runCLI(t, "-budget", "0", "-merge", a+","+b, "-candidates", "16", "-json")
	finished(t, err)
	if got.Observations != 2<<20 || got.Rounds != 1 {
		t.Fatalf("pool decoded at %d observations in %d rounds, want %d in 1", got.Observations, got.Rounds, 2<<20)
	}

	_, err = runCLI(t, "-seed", "1", "-budget", "4096", "-merge", a, "-candidates", "16")
	if err == nil || !strings.Contains(err.Error(), "double-counted") {
		t.Fatalf("merging a shard of this shard's stream returned %v, want the double-count error", err)
	}
}

// TestCadenceMatchesOnline pins a -first-decode run to job.Online with
// that cadence over the same job.
func TestCadenceMatchesOnline(t *testing.T) {
	const budget, first, depth = 1 << 20, 1 << 16, 64
	got, err := runCLI(t, "-attack", "tkip", "-trainkeys", "64", "-budget", "1048576",
		"-first-decode", "65536", "-candidates", "64", "-json")
	finished(t, err)

	model, err := job.SharedModel(64)
	if err != nil {
		t.Fatal(err)
	}
	j, err := job.New(job.Spec{Attack: "tkip", Mode: "model", Seed: 1}, nil, model)
	if err != nil {
		t.Fatal(err)
	}
	want, err := j.Online(context.Background(), online.Config{
		Cadence: online.Cadence{First: first}, MaxCandidates: depth, Budget: budget,
	}, job.Defaults["tkip"].CheckpointEvery, "")
	finished(t, err)
	if got.Success != (err == nil) || got.Rank != want.Rank || got.Observations != want.Observed ||
		got.Rounds != want.Rounds || got.Checks != want.Checks {
		t.Fatalf("CLI %+v, job.Online %+v", got, want)
	}
	if key := j.Oracle.(*tkip.TrailerOracle).MICKey; err == nil && got.Plaintext != hex.EncodeToString(key[:]) {
		t.Fatalf("CLI MIC key %s, job.Online %x", got.Plaintext, key)
	}
}

// TestResumedShardAtBudgetDecodes resumes a shard that already holds the
// budget: the run captures nothing and decodes once.
func TestResumedShardAtBudgetDecodes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.snap")
	if _, err := runCLI(t, "-mode", "exact", "-budget", "3000", "-checkpoint", path, "-collect-only"); err != nil {
		t.Fatal(err)
	}
	got, err := runCLI(t, "-mode", "exact", "-budget", "3000", "-resume", path, "-candidates", "4", "-json")
	finished(t, err)
	if got.Observations != 3000 || got.Rounds != 1 {
		t.Fatalf("resumed run decoded at %d observations in %d rounds, want 3000 in 1", got.Observations, got.Rounds)
	}
}

// TestPcapShortOfBudget ingests a capture file holding fewer records than
// -budget: the run decodes what the file holds instead of waiting for more.
func TestPcapShortOfBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "https.pcap")
	if _, err := runCLI(t, "-write-pcap", path, "-budget", "3000"); err != nil {
		t.Fatal(err)
	}
	got, err := runCLI(t, "-pcap", path, "-budget", "5000", "-candidates", "4", "-json")
	finished(t, err)
	if got.Observations != 3000 || got.Mode != "trace" {
		t.Fatalf("%s run decoded at %d observations, want a trace run at 3000", got.Mode, got.Observations)
	}
}

// TestRejectsBadFlags: command-line mistakes are usage errors.
func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-attack", "wep"},
		{"-attack", "cookie", "-secret", "short"},
		{"-attack", "tkip", "-secret", "Secur3C00kieVal+"},
		{"-collect-only", "-first-decode", "1024"},
	} {
		if _, err := runCLI(t, args...); !errors.Is(err, errUsage) {
			t.Errorf("%q: got %v, want a usage error", args, err)
		}
	}
}
