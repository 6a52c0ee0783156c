package job

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"rc4break/internal/online"
)

// Feed is the online.Feed every in-process driver captures through: it
// advances capture in absolute granules — the next boundary is the smaller
// of the decode target and the next multiple of Chunk — so the boundary
// sequence is a pure function of (Chunk, target history), shared bitwise by
// gated service runs, ungated solo runs, CLI runs and resumed runs. A zero
// Chunk captures each target in one call.
type Feed struct {
	Chunk    uint64
	Observed func() uint64
	// Capture advances the evidence to exactly target observations.
	Capture func(target uint64) error
	// Gate and Ungate bracket each granule with a scheduler slot; nil for
	// ungated runs. OnAdvance reports observation deltas.
	Gate      func() error
	Ungate    func()
	OnAdvance func(n uint64)
	// holding marks the slot retained past the granule that reached the
	// decode target: the online loop decodes immediately after AdvanceTo
	// returns, and a gated decoder inherits this slot (TakeSlot) instead of
	// gating again. Without the carry-over, a stop signal could land between
	// "evidence reached the decode point" and "decode ran" — a state no
	// uninterrupted run passes through, which would desync the resumed run's
	// cadence (the pending decode would be skipped, since cadence points are
	// derived from the observed count).
	holding bool
}

// Feed returns an ungated feed over the job's Capture in granules of
// chunk, with ctx interrupting exact capture between fold batches.
func (j *Job) Feed(ctx context.Context, chunk uint64) *Feed {
	return &Feed{
		Chunk:    chunk,
		Observed: j.Observed,
		Capture:  func(target uint64) error { return j.Capture(ctx, target) },
	}
}

// AdvanceTo implements online.Feed.
func (f *Feed) AdvanceTo(target uint64) error {
	for {
		at := f.Observed()
		if at >= target {
			return nil
		}
		next := target
		if f.Chunk > 0 {
			if b := (at/f.Chunk + 1) * f.Chunk; b < next {
				next = b
			}
		}
		if f.Gate != nil && !f.holding {
			if err := f.Gate(); err != nil {
				return err
			}
		}
		err := f.Capture(next)
		if f.Gate != nil {
			if err == nil && next >= target {
				f.holding = true // carry the slot into the decode round
			} else {
				f.holding = false
				f.Ungate()
			}
		}
		if err != nil {
			return err
		}
		if f.OnAdvance != nil {
			f.OnAdvance(f.Observed() - at)
		}
	}
}

// TakeSlot hands over the scheduler slot the feed kept through the granule
// that reached the decode target, reporting whether there was one.
func (f *Feed) TakeSlot() bool {
	held := f.holding
	f.holding = false
	return held
}

// ErrInterrupted is returned by a CLIFeed capture that a signal (or its
// context) cancelled, after the checkpoint flush; drivers exit 130 on it.
var ErrInterrupted = errors.New("job: capture interrupted")

// CLIFeed is the attack CLIs' capture feed. Exact capture runs in granules
// of every observations, each ending on an absolute multiple of every with
// a checkpoint written to path (when set); model and trace capture run one
// call per target, so a model-mode run draws exactly as it always has.
// SIGINT/SIGTERM during a capture call — or ctx ending — stops exact
// capture at the next fold batch; the checkpoint is then flushed where it
// stopped and the feed returns ErrInterrupted. Exact evidence is
// split-independent, so a run resumed from that checkpoint ends
// byte-identical to an uninterrupted one.
func (j *Job) CLIFeed(ctx context.Context, every uint64, path string) *Feed {
	f := &Feed{Observed: j.Observed}
	if j.Spec.Mode == "exact" && len(j.Spec.Traces) == 0 {
		f.Chunk = every
	}
	f.Capture = func(target uint64) error {
		sctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
		err := j.Capture(sctx, target)
		if at := j.Observed(); err == nil && path != "" && f.Chunk > 0 && at%f.Chunk == 0 {
			if err = j.Save(path); err == nil {
				fmt.Printf("      checkpoint: %d %s -> %s\n", at, j.Unit(), path)
			}
		}
		// A signal that landed after the last fold batch (during the
		// checkpoint write, say) still stops the run here rather than
		// being lost with this call's handler.
		if sctx.Err() == nil || (err != nil && !errors.Is(err, sctx.Err())) {
			return err
		}
		if path == "" {
			fmt.Printf("      interrupted at %d %s (no -checkpoint set; progress lost)\n", j.Observed(), j.Unit())
			return ErrInterrupted
		}
		if err := j.Save(path); err != nil {
			return err
		}
		fmt.Printf("      interrupted: checkpoint flushed at %d %s -> %s (rerun with -resume %s)\n",
			j.Observed(), j.Unit(), path, path)
		return ErrInterrupted
	}
	return f
}

// Online runs the CLIs' closed loop over the job: cfg supplies cadence,
// budget, depth and logging; the job supplies decoder, oracle and a CLIFeed
// (exact granules of every, checkpointed to path). With path set the
// evidence is also saved after every unsuccessful decode round — so the run
// is resumable mid-cadence — and once more on success.
func (j *Job) Online(ctx context.Context, cfg online.Config, every uint64, path string) (online.Result, error) {
	cfg.Decoder, cfg.Oracle = j.Decoder(), j.Oracle
	cfg.Feed = j.CLIFeed(ctx, every, path)
	if path != "" {
		cfg.Checkpoint = func() error {
			if err := j.Save(path); err != nil {
				return err
			}
			fmt.Printf("      checkpoint: %d %s -> %s\n", j.Observed(), j.Unit(), path)
			return nil
		}
	}
	res, err := online.Run(cfg)
	if err == nil && path != "" {
		err = j.Save(path)
	}
	return res, err
}
