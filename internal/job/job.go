// Package job is the one place an attack job is built and captured. A Spec
// names the §6 HTTPS cookie attack or the §5 TKIP attack in model, exact or
// trace mode; New turns it into the decoder/oracle pair the online loop
// drives, a capture function over absolute observation counts, and the
// evidence codec checkpoints persist. cmd/rc4attack, cmd/fleetd, fleet
// lanes and the service all build their jobs here, so they can differ in
// scheduling but never in evidence.
//
// Exact-mode capture seals (or transmits) in batches, scans (or filters)
// them, and folds each batch through the batched fold
// (cookieattack.ObserveRecords, tkip.ObserveFrames — bitwise the scalar
// fold), checking its context between batches. TKIP frames are made by
// netsim.WiFiVictim.TransmitBatch, keyed 32 at a time and fanned over the
// spec's Workers; every frame depends only on its TSC, so the worker count
// never changes a bit. Model-mode capture draws each call's sufficient
// statistics from cliutil.ContinuationSeed at the call's start, so model
// evidence depends on where calls split and every driver keeps its
// historical split.
package job

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"

	"rc4break/internal/cliutil"
	"rc4break/internal/cookieattack"
	"rc4break/internal/httpmodel"
	"rc4break/internal/netsim"
	"rc4break/internal/online"
	"rc4break/internal/snapshot"
	"rc4break/internal/tkip"
	"rc4break/internal/tlsrec"
)

// Spec names one attack job: everything its evidence stream depends on,
// plus the worker count, which never changes a bit.
type Spec struct {
	// Attack is "cookie" or "tkip".
	Attack string
	// Mode is "model" (simulated sufficient statistics) or "exact" (the
	// full per-record capture path).
	Mode string
	// Seed identifies the victim stream; exact TKIP ignores it.
	Seed int64
	// Secret is the cookie attack's target cookie.
	Secret string
	// Traces, when set, names capture files that stand in for the
	// exact-mode victim: capture ingests them instead of simulating.
	Traces []string
	// Workers bounds exact TKIP capture, fold, simulation and decode
	// parallelism (0 = GOMAXPROCS).
	Workers int
}

// Stream is the one stream-identity rule. A trace-fed job is identified by
// its file set; exact TKIP by the demo session's TSC sequence alone (seed
// zero), since the seed plays no part in it; everything else by mode and
// seed. Equal identities mean equal observations, which is what resume and
// merge checks rely on.
func (s Spec) Stream() snapshot.StreamInfo {
	switch {
	case len(s.Traces) > 0:
		return snapshot.StreamInfo{Mode: "trace", Seed: cliutil.TraceStreamSeed(s.Traces)}
	case s.Attack == "tkip" && s.Mode == "exact":
		return snapshot.StreamInfo{Mode: "exact"}
	}
	return snapshot.StreamInfo{Mode: s.Mode, Seed: s.Seed}
}

// AttackDefaults are one attack's defaults for the CLI and fleet drivers:
// the observation budget, the candidate walk depth per decode round, the
// exact-mode checkpoint interval, and the TKIP model's training keys per
// TSC class. The service resolves its own, persisted defaults
// (service.JobSpec.Normalize).
type AttackDefaults struct {
	Budget          uint64
	Candidates      int
	CheckpointEvery uint64
	TrainKeys       uint64
}

// Defaults holds each attack's defaults (paper scale: 9·2^27 requests for
// the cookie attack, §6.3; 9·2^20 frames, about an hour of injection, for
// TKIP, §5.4).
var Defaults = map[string]AttackDefaults{
	"cookie": {Budget: 9 << 27, Candidates: 1 << 16, CheckpointEvery: 1 << 22},
	"tkip":   {Budget: 9 << 20, Candidates: 1 << 20, CheckpointEvery: 1 << 20, TrainKeys: 1 << 12},
}

// Fold batch sizes: a cookie batch keeps each half-megabyte ABSAB table
// resident across 2048 records, a frame batch gives every capture worker
// whole 32-lane key groups, and both sizes bound how long a cancelled
// context waits for the capture to return (a few milliseconds).
const (
	recordBatch = 2048
	frameBatch  = 2048
)

// Job is one attack job bound to live state. Exactly one of Cookie and TKIP
// is set.
type Job struct {
	Spec   Spec
	Cookie *cookieattack.Attack
	TKIP   *tkip.Attack
	// Model is the TKIP job's trained per-TSC model.
	Model *tkip.PerTSCModel
	// Oracle confirms candidates: a *netsim.CookieServer or a
	// *tkip.TrailerOracle.
	Oracle online.Oracle
	// CookieTrace and TKIPTrace hold the last trace-mode ingest's
	// statistics.
	CookieTrace cookieattack.TraceStats
	TKIPTrace   tkip.TraceStats

	capture func(ctx context.Context, target uint64) error
}

// CookieConfig builds the §6.1 aligned request for secret and the demo
// attack configuration over it (ABSAB gaps up to 128, the RFC 6265 cookie
// charset). Experiments that sweep MaxGap override that one field.
func CookieConfig(secret string) (cookieattack.Config, httpmodel.Request, error) {
	req, counterBase, err := netsim.AlignedRequest("site.com", "auth", secret, 64)
	if err != nil {
		return cookieattack.Config{}, req, err
	}
	return cookieattack.Config{
		CookieLen:   len(secret),
		Offset:      req.CookieOffset(),
		Plaintext:   req.Marshal(),
		CounterBase: counterBase,
		MaxGap:      128,
		Charset:     httpmodel.CookieCharset(),
	}, req, nil
}

// New builds the job for spec, resuming from evidence (a prior snapshot's
// bytes) when non-nil. TKIP jobs need their trained model; cookie jobs
// ignore it. Resumed evidence must carry spec's stream identity.
func New(spec Spec, evidence []byte, model *tkip.PerTSCModel) (*Job, error) {
	return build(spec, evidence, model, spec.Stream(), 0, false)
}

// NewPool builds a fleet coordinator's evidence pool for spec: the same
// job, with no stream identity of its own, since it holds a merge of many
// lane streams.
func NewPool(spec Spec, evidence []byte, model *tkip.PerTSCModel) (*Job, error) {
	return build(spec, evidence, model, snapshot.StreamInfo{}, 0, false)
}

// build assembles a job whose observation 0 is observation base of the
// victim stream (a fleet lane's start), stamped with stream. strict makes a
// trace capture that cannot cover its target an error.
func build(spec Spec, evidence []byte, model *tkip.PerTSCModel, stream snapshot.StreamInfo, base uint64, strict bool) (*Job, error) {
	j := &Job{Spec: spec, Model: model}
	var err error
	switch spec.Attack {
	case "cookie":
		err = j.buildCookie(evidence, stream, base, strict)
	case "tkip":
		err = j.buildTKIP(evidence, stream, base, strict)
	default:
		err = fmt.Errorf("job: unknown attack %q", spec.Attack)
	}
	if err != nil {
		return nil, err
	}
	return j, nil
}

func (j *Job) buildCookie(evidence []byte, stream snapshot.StreamInfo, base uint64, strict bool) error {
	spec := j.Spec
	cfg, req, err := CookieConfig(spec.Secret)
	if err != nil {
		return err
	}
	a, err := cookieattack.New(cfg)
	if err != nil {
		return err
	}
	if evidence != nil {
		resumed, err := cookieattack.ReadSnapshot(bytes.NewReader(evidence))
		if err != nil {
			return err
		}
		if resumed.Fingerprint() != a.Fingerprint() {
			return errors.New("job: evidence was captured against a different request layout (check the secret)")
		}
		a = resumed
	}
	if err := stamp(&a.Stream, a.Records, stream); err != nil {
		return err
	}
	a.Workers = spec.Workers
	j.Cookie = a
	j.Oracle = &netsim.CookieServer{Secret: []byte(spec.Secret)}

	wantLen := len(cfg.Plaintext) + tlsrec.MACSize
	switch {
	case len(spec.Traces) > 0:
		j.capture = func(_ context.Context, target uint64) error {
			var err error
			j.CookieTrace, err = cookieattack.CollectTraceFiles(a, wantLen, spec.Traces, base+a.Records, target-a.Records, strict)
			return err
		}
	case spec.Mode == "model":
		j.capture = func(_ context.Context, target uint64) error {
			rng := rand.New(rand.NewSource(cliutil.ContinuationSeed(spec.Seed, a.Records)))
			return a.SimulateStatistics(rng, []byte(spec.Secret), target-a.Records)
		}
	case spec.Mode == "exact":
		// The victim is built on first capture: fast-forwarding it past
		// resumed evidence runs the raw PRGA over every skipped record, work
		// a job that never captures (a fleet pool) must not pay.
		var victim *netsim.HTTPSVictim
		collector := &tlsrec.CollectRequests{WantLen: wantLen}
		var batch []byte
		j.capture = func(ctx context.Context, target uint64) error {
			if victim == nil {
				var err error
				if victim, err = NewHTTPSVictim(spec.Seed, req); err != nil {
					return err
				}
				victim.Skip(base + a.Records)
				batch = make([]byte, recordBatch*len(cfg.Plaintext))
			}
			return captureRecords(ctx, a, victim, collector, batch, target)
		}
	default:
		return fmt.Errorf("job: unknown mode %q", spec.Mode)
	}
	return nil
}

func (j *Job) buildTKIP(evidence []byte, stream snapshot.StreamInfo, base uint64, strict bool) error {
	if j.Model == nil {
		return errors.New("job: a tkip job needs a trained model")
	}
	spec := j.Spec
	session := tkip.DemoSession()
	victim := netsim.NewWiFiVictim(session, tkip.DemoPayload)
	var a *tkip.Attack
	var err error
	if evidence != nil {
		a, err = tkip.ReadAttackSnapshot(bytes.NewReader(evidence), j.Model)
	} else {
		a, err = tkip.NewAttack(j.Model, tkip.TrailerPositions(len(victim.MSDU)))
	}
	if err != nil {
		return err
	}
	if err := stamp(&a.Stream, a.Frames, stream); err != nil {
		return err
	}
	a.Workers = spec.Workers
	j.TKIP = a
	j.Oracle = &tkip.TrailerOracle{
		DA: session.DA, SA: session.SA, MSDU: victim.MSDU,
		Confirm: netsim.ForgeryConfirm(session, victim.MSDU),
	}

	switch {
	case len(spec.Traces) > 0:
		j.capture = func(_ context.Context, target uint64) error {
			var err error
			j.TKIPTrace, err = tkip.CollectTraceFiles(a, victim.FrameLen(), spec.Traces, base+a.Frames, target-a.Frames, strict)
			return err
		}
	case spec.Mode == "model":
		trailer := session.Trailer(victim.MSDU)
		j.capture = func(_ context.Context, target uint64) error {
			rng := rand.New(rand.NewSource(cliutil.ContinuationSeed(spec.Seed, a.Frames)))
			return a.SimulateCaptures(rng, trailer, target-a.Frames)
		}
	case spec.Mode == "exact":
		victim.Skip(base + a.Frames) // frames are independently keyed by TSC: O(1)
		sniffer := netsim.NewSniffer(victim.FrameLen())
		var sent, kept []tkip.Frame
		j.capture = func(ctx context.Context, target uint64) error {
			if sent == nil {
				sent, kept = make([]tkip.Frame, frameBatch), make([]tkip.Frame, 0, frameBatch)
			}
			return captureFrames(ctx, a, victim, sniffer, sent, kept, target)
		}
	default:
		return fmt.Errorf("job: unknown mode %q", spec.Mode)
	}
	return nil
}

// stamp checks resumed evidence against the job's stream identity and sets
// it: continuing a capture only makes sense on the stream it came from.
func stamp(have *snapshot.StreamInfo, observed uint64, want snapshot.StreamInfo) error {
	if observed > 0 && *have != want {
		return fmt.Errorf("job: evidence stream is %s/seed %d, the job's is %s/seed %d",
			have.Mode, have.Seed, want.Mode, want.Seed)
	}
	*have = want
	return nil
}

// NewHTTPSVictim is the exact-mode cookie victim of seed: its TLS master
// secret is the seed's first 48 random bytes.
func NewHTTPSVictim(seed int64, req httpmodel.Request) (*netsim.HTTPSVictim, error) {
	master := make([]byte, 48)
	rand.New(rand.NewSource(seed)).Read(master)
	return netsim.NewHTTPSVictim(master, req)
}

// captureRecords is exact cookie capture: the victim seals requests on its
// persistent connection, the §6.3 scanner reassembles them and keeps the
// fixed-size ones, and each batch of up to recordBatch bodies folds through
// ObserveRecords. It stops at exactly target records, or between batches
// when ctx is done.
func captureRecords(ctx context.Context, a *cookieattack.Attack, v *netsim.HTTPSVictim, c *tlsrec.CollectRequests, batch []byte, target uint64) error {
	plen := len(batch) / recordBatch
	n := 0
	var foldErr error
	fold := func() {
		if err := a.ObserveRecords(batch, n, plen); err != nil && foldErr == nil {
			foldErr = err
		}
		n = 0
	}
	deliver := func(bodies [][]byte) {
		for _, body := range bodies {
			if n == recordBatch {
				fold()
			}
			copy(batch[n*plen:(n+1)*plen], body)
			n++
		}
	}
	for a.Records < target && foldErr == nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		for k := min(target-a.Records, recordBatch); k > 0; k-- {
			if err := c.FeedBatch(v.SendRequest(), deliver); err != nil {
				return err
			}
		}
		fold()
	}
	return foldErr
}

// captureFrames is exact TKIP capture: the victim transmits a batch of up
// to frameBatch frames over a.Workers, the sniffer keeps unique-length
// frames with fresh TSCs (§5.4) in frame order, and the kept frames fold
// through ObserveFrames. sent's bodies are reused batch to batch; kept
// holds views of them, so the fold finishes before the next batch. It
// stops at exactly target frames, or between batches when ctx is done.
func captureFrames(ctx context.Context, a *tkip.Attack, v *netsim.WiFiVictim, s *netsim.Sniffer, sent, kept []tkip.Frame, target uint64) error {
	for a.Frames < target {
		if err := ctx.Err(); err != nil {
			return err
		}
		batch := sent[:min(target-a.Frames, frameBatch)]
		v.TransmitBatch(batch, a.Workers)
		kept = kept[:0]
		for _, f := range batch {
			if s.Filter(f) {
				kept = append(kept, f)
			}
		}
		a.ObserveFrames(kept)
	}
	return nil
}

// Decoder is the job's evidence as an online.Decoder.
func (j *Job) Decoder() online.Decoder {
	if j.Cookie != nil {
		return j.Cookie
	}
	return j.TKIP
}

// Observed reports the records or frames folded into the evidence so far.
func (j *Job) Observed() uint64 { return j.Decoder().Observed() }

// Unit names what the job observes, for status lines.
func (j *Job) Unit() string {
	if j.Cookie != nil {
		return "records"
	}
	return "frames"
}

// Capture advances the evidence to target observations in one capture
// call: one model-mode draw, one trace ingest (which may fall short of
// target when the files run out), or exact capture that returns early with
// ctx's error, evidence consistent at a batch boundary, once ctx is done.
func (j *Job) Capture(ctx context.Context, target uint64) error {
	if target <= j.Observed() {
		return nil
	}
	return j.capture(ctx, target)
}

// Evidence serializes the evidence as snapshot-envelope bytes.
func (j *Job) Evidence() ([]byte, error) {
	var buf bytes.Buffer
	var err error
	if j.Cookie != nil {
		err = j.Cookie.WriteSnapshot(&buf)
	} else {
		err = j.TKIP.WriteSnapshot(&buf)
	}
	return buf.Bytes(), err
}

// Save writes the evidence snapshot to path atomically.
func (j *Job) Save(path string) error {
	if j.Cookie != nil {
		return j.Cookie.WriteSnapshotFile(path)
	}
	return j.TKIP.WriteSnapshotFile(path)
}

// Merge folds the shard snapshots at paths into the evidence, in order,
// reporting each through logf. Shards that captured the same stream (same
// mode and seed, or the same trace files) hold the same observations, so a
// shard whose stream the job or an earlier shard already holds is an error
// rather than double-counted evidence.
func (j *Job) Merge(paths []string, logf func(format string, args ...interface{})) error {
	seen := make(map[snapshot.StreamInfo]string)
	if s := j.stream(); j.Observed() > 0 && s != (snapshot.StreamInfo{}) {
		seen[s] = "this shard"
	}
	for _, path := range paths {
		var (
			stream snapshot.StreamInfo
			n      uint64
			merge  func() error
		)
		if j.Cookie != nil {
			shard, err := cookieattack.ReadSnapshotFile(path)
			if err != nil {
				return fmt.Errorf("merge %s: %w", path, err)
			}
			stream, n, merge = shard.Stream, shard.Records, func() error { return j.Cookie.Merge(shard) }
		} else {
			shard, err := tkip.ReadAttackSnapshotFile(path, j.Model)
			if err != nil {
				return fmt.Errorf("merge %s: %w", path, err)
			}
			stream, n, merge = shard.Stream, shard.Frames, func() error { return j.TKIP.Merge(shard) }
		}
		if stream != (snapshot.StreamInfo{}) {
			if prev, dup := seen[stream]; dup {
				return fmt.Errorf("merge %s: same capture stream (%s/seed %d) as %s — its %s would be double-counted",
					path, stream.Mode, stream.Seed, prev, j.Unit())
			}
			seen[stream] = path
		}
		if err := merge(); err != nil {
			return fmt.Errorf("merge %s: %w", path, err)
		}
		logf("merged %s: +%d %s (pool now %d)", path, n, j.Unit(), j.Observed())
	}
	return nil
}

// stream is the stream identity the evidence carries.
func (j *Job) stream() snapshot.StreamInfo {
	if j.Cookie != nil {
		return j.Cookie.Stream
	}
	return j.TKIP.Stream
}

// Fingerprint identifies the configuration every shard of the job must
// share: the cookie request layout, or the TKIP model.
func (j *Job) Fingerprint() ([16]byte, error) {
	if j.Cookie != nil {
		return j.Cookie.Fingerprint(), nil
	}
	return j.Model.Fingerprint()
}
