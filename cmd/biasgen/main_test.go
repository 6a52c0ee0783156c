package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rc4break/internal/dataset"
)

func runCLI(t *testing.T, args ...string) error {
	t.Helper()
	return run(args, io.Discard)
}

// TestChunkedResumeMatchesUnchunked pins the absolute key layout: a
// checkpointed run at 3 workers, extended by -resume to a larger -keys,
// writes the same file byte for byte as one unchunked run at 1 worker.
func TestChunkedResumeMatchesUnchunked(t *testing.T) {
	dir := t.TempDir()
	chunked := filepath.Join(dir, "chunked.gob")
	whole := filepath.Join(dir, "whole.gob")
	common := []string{"-kind", "single", "-positions", "8", "-seed", "5", "-lanebase", "9"}
	if err := runCLI(t, append(common, "-keys", "700", "-workers", "3", "-checkpoint-every", "256", "-out", chunked)...); err != nil {
		t.Fatal(err)
	}
	if err := runCLI(t, append(common, "-keys", "1500", "-workers", "3", "-checkpoint-every", "256", "-resume", "-out", chunked)...); err != nil {
		t.Fatal(err)
	}
	if err := runCLI(t, append(common, "-keys", "1500", "-workers", "1", "-out", whole)...); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(chunked)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(whole)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("chunked, resumed run differs from the unchunked run")
	}
}

// TestResumeRejectsOtherLane checks that the generation record still pins
// the flags the key population depends on.
func TestResumeRejectsOtherLane(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ds.gob")
	if err := runCLI(t, "-keys", "64", "-positions", "4", "-lanebase", "1", "-out", out); err != nil {
		t.Fatal(err)
	}
	err := runCLI(t, "-keys", "128", "-positions", "4", "-lanebase", "2", "-resume", "-out", out)
	if err == nil || !strings.Contains(err.Error(), "-lanebase=1") {
		t.Fatalf("resume under another -lanebase: %v", err)
	}
}

func TestMergeRejectsDuplicateShard(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.gob"), filepath.Join(dir, "b.gob")
	for _, p := range []string{a, b} {
		if err := runCLI(t, "-keys", "64", "-positions", "4", "-seed", "3", "-lanebase", "7", "-out", p); err != nil {
			t.Fatal(err)
		}
	}
	err := runCLI(t, "-merge", a+","+b, "-out", filepath.Join(dir, "all.gob"))
	if err == nil || !strings.Contains(err.Error(), "same seed/lanebase") {
		t.Fatalf("duplicate shard merge: %v", err)
	}
	c := filepath.Join(dir, "c.gob")
	if err := runCLI(t, "-keys", "64", "-positions", "4", "-seed", "3", "-lanebase", "8", "-out", c); err != nil {
		t.Fatal(err)
	}
	if err := runCLI(t, "-merge", a+","+c, "-out", filepath.Join(dir, "all.gob")); err != nil {
		t.Fatalf("distinct shards: %v", err)
	}
}

// TestOldLayoutFileRefused checks that a file whose generation record
// carries the per-worker layout's "workers" key can be neither resumed nor
// merged, while the dataset itself still loads for analysis.
func TestOldLayoutFileRefused(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "old.gob")
	obs := dataset.NewSingleByteCounts(4)
	obs.Observe([]byte{1, 2, 3, 4})
	meta := map[string]uint64{"seed": 0, "lanebase": 0, "checkpoint-every": 0, "workers": 2}
	if err := dataset.SaveFileMeta(old, obs, meta); err != nil {
		t.Fatal(err)
	}
	err := runCLI(t, "-keys", "64", "-positions", "4", "-resume", "-out", old)
	if !errors.Is(err, errOldLayout) {
		t.Fatalf("resume of an old-layout file: %v", err)
	}
	fresh := filepath.Join(dir, "fresh.gob")
	if err := runCLI(t, "-keys", "64", "-positions", "4", "-lanebase", "1", "-out", fresh); err != nil {
		t.Fatal(err)
	}
	err = runCLI(t, "-merge", fresh+","+old, "-out", filepath.Join(dir, "all.gob"))
	if !errors.Is(err, errOldLayout) {
		t.Fatalf("merge of an old-layout file: %v", err)
	}
	// biastest reads datasets through dataset.Load.
	f, err := os.Open(old)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got, err := dataset.Load(f); err != nil || dataset.KeysObserved(got) != 1 {
		t.Fatalf("old-layout file no longer loads: %v", err)
	}
}

func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-keys", "8"},
		{"-kind", "triple", "-out", "x.gob"},
		{"-bogus"},
	} {
		if err := runCLI(t, args...); !errors.Is(err, errUsage) {
			t.Errorf("%q: err = %v, want a usage error", args, err)
		}
	}
}
