package job

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"rc4break/internal/cliutil"
	"rc4break/internal/cookieattack"
	"rc4break/internal/fleet"
	"rc4break/internal/netsim"
	"rc4break/internal/obs"
	"rc4break/internal/tkip"
	"rc4break/internal/trace"
)

// CollectLane captures one leased fleet lane of spec's attack and returns
// its evidence snapshot bytes, stamped with the lane's stream identity.
// Model-mode lanes draw from the lane's derived seed
// (cookieattack.CollectLane / tkip.CollectLane with cliutil.LaneSeed);
// exact lanes are the job's exact capture over [lease.Start,
// lease.Start+lease.Records) of the victim stream — or of spec.Traces,
// which must then cover the whole range. Every lane is a pure function of
// (spec, job, lease), so a re-leased lane's recapture is byte-identical.
// An exact lane stops early with ctx's error once ctx is done.
func CollectLane(ctx context.Context, spec Spec, model *tkip.PerTSCModel, fj fleet.JobSpec, lease fleet.Lease) ([]byte, error) {
	spec.Mode, spec.Seed = fj.Mode, fj.Seed
	var j *Job
	var err error
	switch spec.Mode {
	case "model":
		if len(spec.Traces) > 0 {
			return nil, errors.New("job: trace files serve exact-mode lanes: a trace is one concrete capture stream, not a statistical model")
		}
		j, err = modelLane(spec, model, fj, lease)
	case "exact":
		j, err = build(spec, nil, model, lease.Stream, lease.Start, true)
		if err == nil {
			err = j.Capture(ctx, lease.Records)
		}
	default:
		err = fmt.Errorf("job: unknown fleet mode %q", spec.Mode)
	}
	if err != nil {
		return nil, err
	}
	return j.Evidence()
}

// modelLane draws one model-mode lane from its own seed.
func modelLane(spec Spec, model *tkip.PerTSCModel, fj fleet.JobSpec, lease fleet.Lease) (*Job, error) {
	seed := cliutil.LaneSeed(fj.Seed, lease.Lane)
	switch spec.Attack {
	case "cookie":
		cfg, _, err := CookieConfig(spec.Secret)
		if err != nil {
			return nil, err
		}
		a, err := cookieattack.CollectLane(cfg, []byte(spec.Secret), lease.Stream, seed, lease.Records, spec.Workers)
		return &Job{Spec: spec, Cookie: a}, err
	case "tkip":
		if model == nil {
			return nil, errors.New("job: a tkip job needs a trained model")
		}
		session := tkip.DemoSession()
		msdu := netsim.NewWiFiVictim(session, tkip.DemoPayload).MSDU
		a, err := tkip.CollectLane(model, tkip.TrailerPositions(len(msdu)), session.Trailer(msdu),
			lease.Stream, seed, lease.Records, spec.Workers)
		return &Job{Spec: spec, TKIP: a, Model: model}, err
	}
	return nil, fmt.Errorf("job: unknown attack %q", spec.Attack)
}

// RunWorker joins the fleet coordinator at addr as capture worker id and
// collects leased lanes of spec's attack until the coordinator declares the
// run over or ctx is cancelled. The coordinator's job supplies mode and
// seed; spec supplies the secret, trace files and worker count. Per-lane
// collect spans ride each evidence upload: a traced coordinator folds them
// under its own trace, an untraced one ignores them.
func RunWorker(ctx context.Context, addr, id string, spec Spec, model *tkip.PerTSCModel) (fleet.WorkerStats, error) {
	// The fingerprint depends on the attack configuration alone.
	j, err := New(Spec{Attack: spec.Attack, Mode: "model", Secret: spec.Secret}, nil, model)
	if err != nil {
		return fleet.WorkerStats{}, err
	}
	fp, err := j.Fingerprint()
	if err != nil {
		return fleet.WorkerStats{}, err
	}
	proc := id
	if proc == "" {
		proc = spec.Attack + "attack-worker"
	}
	w := &fleet.Worker{
		Addr:        addr,
		ID:          id,
		Attack:      spec.Attack,
		Fingerprint: fp,
		Logf:        cliutil.IndentLogf,
		Tracer:      obs.NewJournal(proc, 1024),
		Collect: func(fj fleet.JobSpec, lease fleet.Lease) ([]byte, error) {
			return CollectLane(ctx, spec, model, fj, lease)
		},
	}
	return w.Run(ctx)
}

// sharedModels caches the deterministic demo-session per-TSC model by
// training size. The model is a pure function of (positions, keys, master)
// — Train is Workers-independent — so every job, every restart, and the
// solo reference share one instance per size.
var sharedModels struct {
	mu sync.Mutex
	m  map[uint64]*tkip.PerTSCModel
}

// SharedModel trains (once per process per size) and returns the demo
// per-TSC model for the given keys-per-class count.
func SharedModel(trainKeys uint64) (*tkip.PerTSCModel, error) {
	sharedModels.mu.Lock()
	defer sharedModels.mu.Unlock()
	if m, ok := sharedModels.m[trainKeys]; ok {
		return m, nil
	}
	m, err := train(trainKeys, 0)
	if err != nil {
		return nil, err
	}
	if sharedModels.m == nil {
		sharedModels.m = make(map[uint64]*tkip.PerTSCModel)
	}
	sharedModels.m[trainKeys] = m
	return m, nil
}

// modelPositions is how many keystream positions the demo attack's model
// must cover: through the last trailer byte of the injected frame.
func modelPositions() int {
	positions := tkip.TrailerPositions(len(netsim.NewWiFiVictim(tkip.DemoSession(), tkip.DemoPayload).MSDU))
	return positions[len(positions)-1]
}

func train(trainKeys uint64, workers int) (*tkip.PerTSCModel, error) {
	return tkip.Train(tkip.TrainConfig{
		Positions:  modelPositions(),
		KeysPerTSC: trainKeys,
		Workers:    workers,
	})
}

// LoadOrTrainModel implements the train-once workflow: with path set and
// present on disk the model is reloaded (validated by the snapshot
// envelope's checksum), otherwise it is trained and — when path is set —
// persisted for every later shard, worker and coordinator to share. Shards
// must share one model: capture snapshots embed its fingerprint and refuse
// to resume or merge under a different one. Progress goes to logf.
func LoadOrTrainModel(path string, trainKeys uint64, workers int, logf func(format string, args ...interface{})) (*tkip.PerTSCModel, error) {
	positions := modelPositions()
	if path != "" {
		model, err := tkip.LoadModelFile(path)
		switch {
		case err == nil:
			if model.Positions < positions {
				return nil, fmt.Errorf("model %s covers %d positions, attack needs %d", path, model.Positions, positions)
			}
			logf("loaded per-TSC model from %s (%d keys x 256 classes x %d positions)", path, model.Keys, model.Positions)
			return model, nil
		case !os.IsNotExist(err):
			// Anything but "absent" must not silently retrain: that would
			// overwrite the artifact and orphan every shard captured
			// against it.
			return nil, fmt.Errorf("load model %s: %w", path, err)
		}
	}
	logf("training per-TSC model: %d keys x 256 classes x %d positions...", trainKeys, positions)
	start := time.Now()
	model, err := train(trainKeys, workers)
	if err != nil {
		return nil, err
	}
	logf("trained in %v", time.Since(start).Round(time.Millisecond))
	if path != "" {
		if err := model.SaveFile(path); err != nil {
			return nil, err
		}
		logf("model -> %s", path)
	}
	return model, nil
}

// WriteTrace writes the first n observations of spec's exact-mode victim
// stream as a capture file — the sim → pcap half of the trace round trip,
// and the way trace shards for offline or fleet ingest are produced: the
// cookie victim's TLS stream over Ethernet, or the TKIP victim's frames
// over radiotap. A .pcapng extension selects pcapng, anything else classic
// pcap.
func WriteTrace(spec Spec, path string, n uint64) error {
	switch spec.Attack {
	case "cookie":
		_, req, err := CookieConfig(spec.Secret)
		if err != nil {
			return err
		}
		victim, err := NewHTTPSVictim(spec.Seed, req)
		if err != nil {
			return err
		}
		pw, done, err := trace.CreateFile(path, trace.LinkTypeEthernet)
		if err != nil {
			return err
		}
		sw, err := netsim.NewStreamWriter(pw, trace.LinkTypeEthernet)
		if err == nil {
			err = victim.WriteTrace(sw, n)
		}
		return finish(done, err)
	case "tkip":
		session := tkip.DemoSession()
		pw, done, err := trace.CreateFile(path, trace.LinkTypeRadiotap)
		if err != nil {
			return err
		}
		fw, err := netsim.NewFrameWriter(pw, trace.LinkTypeRadiotap, session)
		if err == nil {
			err = netsim.NewWiFiVictim(session, tkip.DemoPayload).WriteTrace(fw, n)
		}
		return finish(done, err)
	}
	return fmt.Errorf("job: unknown attack %q", spec.Attack)
}

// finish closes a capture file, keeping the first error.
func finish(done func() error, err error) error {
	if cerr := done(); err == nil {
		err = cerr
	}
	return err
}
