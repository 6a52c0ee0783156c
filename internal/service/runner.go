package service

import (
	"context"
	"errors"
	"time"

	"rc4break/internal/job"
	"rc4break/internal/obs"
	"rc4break/internal/online"
	"rc4break/internal/recovery"
	"rc4break/internal/tkip"
)

// buildJob builds the live job for spec, resuming from evidence bytes (a
// prior checkpoint blob) when non-nil. TKIP jobs need their trained model
// passed in; cookie jobs ignore it. The service runner and SoloRun both
// build jobs here, so the two can only differ in scheduling — never in
// evidence.
func buildJob(spec JobSpec, evidence []byte, model *tkip.PerTSCModel) (*job.Job, error) {
	return job.New(job.Spec{
		Attack:  spec.Attack,
		Mode:    spec.Mode,
		Seed:    spec.Seed,
		Secret:  spec.Secret,
		Workers: spec.Workers,
	}, evidence, model)
}

// gatedDecoder wraps a job's decoder so each decode round holds one
// scheduler slot — decode rounds are the expensive half of the loop, and
// fair-share has to cover them, not just capture. It also counts rounds
// (the server's event/checkpoint bookkeeping) and reports per-round decode
// latency.
type gatedDecoder struct {
	online.Decoder
	// feed is the run's granule feed; a slot it held through the final
	// capture granule is inherited here instead of gating again.
	feed    *job.Feed
	gate    func() error
	ungate  func()
	rounds  int
	onRound func(elapsed time.Duration)
	// tracer/parent record one job.decode span per round under the job's
	// run span; nil tracer costs one nil check.
	tracer *obs.Journal
	parent obs.SpanContext
}

func (d *gatedDecoder) Decode(max int) (src recovery.CandidateSource, err error) {
	if d.gate != nil {
		// A slot the feed carried over from capture is inherited.
		if d.feed == nil || !d.feed.TakeSlot() {
			if err := d.gate(); err != nil {
				return nil, err
			}
		}
		defer d.ungate()
	}
	d.rounds++
	span := d.tracer.Start(d.parent, "job.decode", obs.Int("round", int64(d.rounds)), obs.Int("max", int64(max)))
	defer span.End()
	if d.onRound == nil {
		return d.Decoder.Decode(max)
	}
	t0 := time.Now() //rc4lint:allow timing decode-round latency metric only; never reaches evidence or persisted state
	src, err = d.Decoder.Decode(max)
	d.onRound(time.Since(t0)) //rc4lint:allow timing decode-round latency metric only
	return src, err
}

// SharedModel trains (once per process per size) and returns the demo
// per-TSC model for the given keys-per-class count: every job, every
// restart, and the solo reference share one instance per TrainKeys, and the
// store holds one model blob.
func SharedModel(trainKeys uint64) (*tkip.PerTSCModel, error) {
	return job.SharedModel(trainKeys)
}

// SoloRun executes one job spec start-to-finish in-process: no scheduler,
// no store, no server — the pure function of the spec that the service
// must reproduce bitwise. It returns the online result and the final
// evidence snapshot bytes. A budget-exhausted run returns its result and
// evidence alongside online.ErrBudgetExhausted.
func SoloRun(spec JobSpec) (online.Result, []byte, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return online.Result{}, nil, err
	}
	var model *tkip.PerTSCModel
	if spec.Attack == "tkip" {
		if model, err = SharedModel(spec.TrainKeys); err != nil {
			return online.Result{}, nil, err
		}
	}
	j, err := buildJob(spec, nil, model)
	if err != nil {
		return online.Result{}, nil, err
	}
	res, runErr := online.Run(online.Config{
		Decoder:       j.Decoder(),
		Oracle:        j.Oracle,
		Cadence:       spec.cadence(),
		MaxCandidates: spec.MaxCandidates,
		Budget:        spec.Budget,
		Feed:          j.Feed(context.Background(), spec.CaptureChunk),
	})
	if runErr != nil && !errors.Is(runErr, online.ErrBudgetExhausted) {
		return res, nil, runErr
	}
	snap, err := j.Evidence()
	if err != nil {
		return res, nil, err
	}
	return res, snap, runErr
}
