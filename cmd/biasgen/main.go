// Command biasgen generates RC4 keystream statistics datasets and saves
// them for later analysis by biastest — the repository's version of the
// paper's §3.2 distributed worker system, including its operational
// realities: multi-hour runs are generated in checkpointed chunks that
// survive a kill, and shards generated on independent machines (distinct
// -lanebase values or different -seed values) merge into one dataset.
//
// A run draws keys 0..keys-1 of key lane -lanebase (see dataset.KeySource),
// and a chunk is the key range [done, done+n) of that lane. So neither
// -workers nor -checkpoint-every changes a bit of the dataset, and a
// finished run can be extended by resuming it with a larger -keys.
//
// Usage:
//
//	biasgen -kind single -positions 513 -keys 1048576 -out single.gob
//	biasgen -kind digraph -positions 64 -keys 1048576 -out consec.gob
//
// Checkpointed generation (kill and rerun to resume):
//
//	biasgen -kind single -positions 64 -keys 16777216 \
//	        -checkpoint-every 1048576 -out single.gob -resume
//
// Sharded generation across machines, then merge:
//
//	biasgen -kind single -positions 64 -keys 8388608 -lanebase 0 -out shard0.gob
//	biasgen -kind single -positions 64 -keys 8388608 -lanebase 1 -out shard1.gob
//	biasgen -merge shard0.gob,shard1.gob -out all.gob
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"rc4break/internal/cliutil"
	"rc4break/internal/dataset"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errInterrupted):
		fmt.Fprintln(os.Stderr, "biasgen:", err)
		os.Exit(130)
	case errors.Is(err, errUsage):
		fmt.Fprintln(os.Stderr, "biasgen:", err)
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "biasgen:", err)
		os.Exit(1)
	}
}

var (
	// errUsage marks errors in the command line itself.
	errUsage = errors.New("usage")
	// errInterrupted marks a run stopped by SIGINT or SIGTERM.
	errInterrupted = errors.New("interrupted")
)

// errOldLayout refuses files whose generation record carries the "workers"
// key: those were drawn with one key lane per worker and per chunk, a key
// population no run under the absolute-index layout can continue or tell
// apart from another shard.
var errOldLayout = errors.New("generated with the retired per-worker key-lane layout (its record carries -workers); regenerate it to resume or merge")

// run parses args and generates, resumes or merges a dataset, writing its
// progress lines to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("biasgen", flag.ContinueOnError)
	kind := fs.String("kind", "single", "dataset kind: single | digraph")
	positions := fs.Int("positions", 64, "keystream positions to cover")
	keys := fs.Uint64("keys", 1<<20, "number of random 16-byte RC4 keys")
	workers := fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS); changes no bit of the dataset")
	out := fs.String("out", "", "output file (required)")
	seed := fs.Uint64("seed", 0, "master key seed (first 8 bytes of the AES master)")
	laneBase := fs.Uint64("lanebase", 0, "key lane; give shards on different machines any distinct values")
	every := fs.Uint64("checkpoint-every", 0, "keys per chunk; > 0 writes -out after every chunk so a killed run can resume")
	resume := fs.Bool("resume", false, "continue (or extend to a larger -keys) the run in -out; -seed and -lanebase must match it")
	merge := fs.String("merge", "", "comma-separated dataset files to merge into -out (no generation)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if *out == "" {
		return fmt.Errorf("%w: -out is required", errUsage)
	}
	if *merge != "" {
		return mergeDatasets(w, cliutil.SplitList(*merge), *out)
	}

	var master [16]byte
	for i := 0; i < 8; i++ {
		master[i] = byte(*seed >> (8 * i))
	}

	var factory func() dataset.Observer
	switch *kind {
	case "single":
		factory = func() dataset.Observer { return dataset.NewSingleByteCounts(*positions) }
	case "digraph":
		factory = func() dataset.Observer { return dataset.NewDigraphCounts(*positions) }
	default:
		return fmt.Errorf("%w: unknown kind %q", errUsage, *kind)
	}

	// The generation record pins the flags the key population depends on:
	// resuming under a different seed or lane would silently mix key
	// populations, so it is rejected.
	genMeta := map[string]uint64{"seed": *seed, "lanebase": *laneBase}

	// Resume: reload the checkpoint and continue at the first key it does
	// not hold. Keys are addressed by index, so the resumed run generates
	// exactly the keys an uninterrupted run would have.
	var obs dataset.Observer
	var done uint64
	if *resume {
		loaded, meta, err := dataset.LoadFileMeta(*out)
		switch {
		case os.IsNotExist(err):
			// Bootstrap-friendly: "kill and rerun" keeps one command line,
			// so a missing checkpoint simply means this is the first run.
			fmt.Fprintf(w, "no checkpoint at %s yet; starting fresh\n", *out)
		case err != nil:
			return fmt.Errorf("resume %s: %w", *out, err)
		default:
			if err := validateResume(loaded, *kind, *positions); err != nil {
				return err
			}
			if meta == nil {
				return fmt.Errorf("resume %s: file carries no generation parameters (not a biasgen checkpoint)", *out)
			}
			if _, old := meta["workers"]; old {
				return fmt.Errorf("resume %s: %w", *out, errOldLayout)
			}
			for k, want := range genMeta {
				got, ok := meta[k]
				if !ok {
					return fmt.Errorf("resume %s: checkpoint records no -%s value", *out, k)
				}
				if got != want {
					return fmt.Errorf("resume %s: checkpoint was generated with -%s=%d, flags request %d", *out, k, got, want)
				}
			}
			obs = loaded
			done = dataset.KeysObserved(loaded)
			if done >= *keys {
				fmt.Fprintf(w, "resume %s: already holds %d keys (target %d); nothing to do\n", *out, done, *keys)
				return nil
			}
			fmt.Fprintf(w, "resuming from %s: %d/%d keys done\n", *out, done, *keys)
		}
	}

	// Ctrl-C cancels the in-flight chunk; completed chunks are already on
	// disk, so the run resumes from the last checkpoint.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	for done < *keys {
		n := *keys - done
		if *every > 0 && n > *every {
			n = *every
		}
		chunkObs, err := dataset.Run(dataset.Config{
			Keys:       n,
			Workers:    *workers,
			Master:     master,
			Ctx:        ctx,
			LaneOffset: *laneBase,
			FirstKey:   done,
		}, factory)
		if err != nil {
			if ctx.Err() == nil {
				return err
			}
			switch {
			case *every > 0 && done > 0:
				return fmt.Errorf("%w at %d/%d keys; rerun with -resume to continue", errInterrupted, done, *keys)
			case *every > 0:
				return fmt.Errorf("%w before the first chunk completed; nothing checkpointed yet", errInterrupted)
			default:
				return fmt.Errorf("%w at %d/%d keys; no checkpoint written (set -checkpoint-every to make runs resumable)", errInterrupted, done, *keys)
			}
		}
		if obs == nil {
			obs = chunkObs
		} else if err := obs.Merge(chunkObs); err != nil {
			return err
		}
		done += n
		if *every > 0 {
			if err := dataset.SaveFileMeta(*out, obs, genMeta); err != nil {
				return err
			}
			fmt.Fprintf(w, "checkpoint: %d/%d keys -> %s\n", done, *keys, *out)
		}
	}

	// With -checkpoint-every the loop already wrote -out after the final
	// chunk; only unchunked runs still need their single save.
	if *every == 0 {
		if err := dataset.SaveFileMeta(*out, obs, genMeta); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "wrote %s dataset: %d keys x %d positions -> %s\n", *kind, *keys, *positions, *out)
	return nil
}

// mergeDatasets combines shard files into one dataset; shapes must match,
// and shards whose generation parameters show they drew the same key
// population (identical seed and lane base) are rejected rather than
// double-counted. Files without metadata (already-merged ones) carry no
// lineage and are merged as-is.
func mergeDatasets(w io.Writer, paths []string, out string) error {
	var merged dataset.Observer
	var total uint64
	seen := make(map[[2]uint64]string)
	for _, p := range paths {
		obs, meta, err := dataset.LoadFileMeta(p)
		if err != nil {
			return fmt.Errorf("merge %s: %w", p, err)
		}
		if meta != nil {
			if _, old := meta["workers"]; old {
				return fmt.Errorf("merge %s: %w", p, errOldLayout)
			}
			id := [2]uint64{meta["seed"], meta["lanebase"]}
			if prev, dup := seen[id]; dup {
				return fmt.Errorf("merge %s: same seed/lanebase as %s — the shards drew the same keys and would be double-counted", p, prev)
			}
			seen[id] = p
		}
		if merged == nil {
			merged = obs
		} else if err := merged.Merge(obs); err != nil {
			return fmt.Errorf("merge %s: %w", p, err)
		}
		total = dataset.KeysObserved(merged)
		fmt.Fprintf(w, "merged %s (%d keys, total %d)\n", p, dataset.KeysObserved(obs), total)
	}
	if merged == nil {
		return fmt.Errorf("%w: no dataset files to merge", errUsage)
	}
	if err := dataset.SaveFile(out, merged); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote merged dataset: %d keys -> %s\n", total, out)
	return nil
}

// validateResume checks that the checkpoint matches the requested dataset
// shape before any counter is extended.
func validateResume(obs dataset.Observer, kind string, positions int) error {
	switch o := obs.(type) {
	case *dataset.SingleByteCounts:
		if kind != "single" || o.Positions != positions {
			return fmt.Errorf("checkpoint is single/%d positions, flags request %s/%d", o.Positions, kind, positions)
		}
	case *dataset.DigraphCounts:
		if kind != "digraph" || o.Positions != positions {
			return fmt.Errorf("checkpoint is digraph/%d positions, flags request %s/%d", o.Positions, kind, positions)
		}
	default:
		return fmt.Errorf("checkpoint holds %T, which biasgen does not generate", obs)
	}
	return nil
}
