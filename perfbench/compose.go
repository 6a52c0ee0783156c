package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"rc4break/internal/cliutil"
	"rc4break/internal/cookieattack"
	"rc4break/internal/httpmodel"
	"rc4break/internal/netsim"
	"rc4break/internal/obs"
	"rc4break/internal/online"
	"rc4break/internal/rc4"
	"rc4break/internal/recovery"
	"rc4break/internal/service"
	"rc4break/internal/snapshot"
	"rc4break/internal/tkip"
	"rc4break/internal/tlsrec"
)

// chunk is how many records or frames one layer timer spans: a timer pair
// per 4 µs frame would cost more than the tracing it pays for.
const chunk = 256

// composed is one job's pipeline assembled by the benchmark from each
// layer's public functions, with the layer timers between them. It must
// produce bitwise the evidence service.SoloRun produces for the same spec;
// the traced run checks that, so the traced layers measure the same work the
// untraced run did.
type composed struct {
	decoder  online.Decoder
	oracle   *countingOracle
	observed func() uint64
	capture  func(target uint64) error
	evidence func() ([]byte, error)
	// rc4Replay re-runs the job's RC4 key/length sequence through rc4
	// alone (exact mode); nil when no keystream was generated.
	rc4Replay func(t *tracer)
	// walkCandidates is the candidate-generation time spent inside the
	// walk (lazy sources), which online.Result.OracleTime includes.
	walkCandidates time.Duration
}

// countingOracle counts oracle queries; their time is the walk time minus
// the candidate generation inside it.
type countingOracle struct {
	online.Oracle
	checks uint64
}

func (o *countingOracle) Check(c []byte) bool {
	o.checks++
	return o.Oracle.Check(c)
}

func composeJob(spec service.JobSpec, model *tkip.PerTSCModel, t *tracer) (*composed, error) {
	switch spec.Attack {
	case "cookie":
		return composeCookie(spec, t)
	case "tkip":
		return composeTKIP(spec, model, t)
	}
	return nil, fmt.Errorf("unknown attack %q", spec.Attack)
}

// cookieConfig is the attack configuration every cookie job uses: the
// aligned request for the secret, as the service and the CLIs build it.
func cookieConfig(secret string) (cookieattack.Config, httpmodel.Request, error) {
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

func composeCookie(spec service.JobSpec, t *tracer) (*composed, error) {
	cfg, req, err := cookieConfig(spec.Secret)
	if err != nil {
		return nil, err
	}
	attack, err := cookieattack.New(cfg)
	if err != nil {
		return nil, err
	}
	attack.Workers = spec.Workers
	attack.Stream = snapshot.StreamInfo{Mode: spec.Mode, Seed: spec.Seed}
	c := &composed{
		decoder:  &cookieDecoder{a: attack, cfg: cfg, t: t},
		oracle:   &countingOracle{Oracle: &netsim.CookieServer{Secret: []byte(spec.Secret)}},
		observed: func() uint64 { return attack.Records },
		evidence: func() ([]byte, error) {
			var buf bytes.Buffer
			t0 := time.Now()
			err := attack.WriteSnapshot(&buf)
			t.since("cookieattack.snapshot", "bytes", t0, uint64(buf.Len()))
			return buf.Bytes(), err
		},
	}
	switch spec.Mode {
	case "model":
		c.capture = func(target uint64) error {
			n := target - attack.Records
			t0 := time.Now()
			rng := rand.New(rand.NewSource(cliutil.ContinuationSeed(spec.Seed, attack.Records)))
			err := attack.SimulateStatistics(rng, []byte(spec.Secret), n)
			t.since("cookieattack.simulate", "records", t0, n)
			return err
		}
	case "exact":
		master := make([]byte, 48)
		rand.New(rand.NewSource(spec.Seed)).Read(master)
		victim, err := netsim.NewHTTPSVictim(master, req)
		if err != nil {
			return nil, err
		}
		collector := &tlsrec.CollectRequests{WantLen: victim.RecordPlaintextLen()}
		recs := make([][]byte, chunk)
		c.capture = func(target uint64) error {
			var foldErr error
			for attack.Records < target {
				k := target - attack.Records
				if k > chunk {
					k = chunk
				}
				t0 := time.Now()
				for i := range recs[:k] {
					recs[i] = victim.SendRequest()
				}
				t0 = t.since("netsim.victim", "requests", t0, k)
				// The fold runs inside the scanner's delivery callback (the
				// body view dies with it), so it is timed per record — 26 µs
				// of work per timer pair — and the scan is the remainder.
				var fold time.Duration
				var folded, scanned uint64
				matched := collector.Matched
				for _, rec := range recs[:k] {
					scanned += uint64(len(rec))
					if err := collector.Feed(rec, func(body []byte) {
						f0 := time.Now()
						if err := attack.ObserveRecord(body); err != nil && foldErr == nil {
							foldErr = err
						}
						fold += time.Since(f0)
						folded++
					}); err != nil {
						return err
					}
				}
				t.add("tlsrec.scan", "bytes", time.Since(t0)-fold, scanned)
				t.add("cookieattack.fold", "records", fold, folded)
				t.inc("tlsrec.records", float64(k))
				t.inc("tlsrec.matched", float64(collector.Matched-matched))
				if foldErr != nil {
					return foldErr
				}
			}
			return nil
		}
		var cr, sr [32]byte
		cr[0], sr[0] = 0xc1, 0x5e // netsim.NewHTTPSVictim's randoms
		keys, _, err := tlsrec.DeriveKeys(master, cr, sr)
		if err != nil {
			return nil, err
		}
		c.rc4Replay = func(t *tracer) {
			replayTLS(t, keys.Key[:], victim.RecordPlaintextLen(), attack.Records)
		}
	default:
		return nil, fmt.Errorf("unknown mode %q", spec.Mode)
	}
	return c, nil
}

// cookieDecoder is cookieattack.Attack.Decode split at the layer boundary:
// likelihoods from the attack, list-Viterbi from recovery.PairDecoder.
type cookieDecoder struct {
	a   *cookieattack.Attack
	cfg cookieattack.Config
	pd  recovery.PairDecoder
	t   *tracer
}

func (d *cookieDecoder) Observed() uint64 { return d.a.Records }

func (d *cookieDecoder) Decode(max int) (recovery.CandidateSource, error) {
	t0 := time.Now()
	lks, err := d.a.Likelihoods()
	if err != nil {
		return nil, err
	}
	t0 = d.t.since("cookieattack.likelihood", "rounds", t0, 1)
	m1 := d.cfg.Plaintext[d.cfg.Offset-1]
	mL := d.cfg.Plaintext[d.cfg.Offset+d.cfg.CookieLen]
	d.pd.Workers = d.a.Workers
	cands, err := d.pd.Decode(lks, m1, mL, max, d.cfg.Charset)
	if err != nil {
		return nil, err
	}
	for i := range cands {
		cands[i].Plaintext = cands[i].Plaintext[1 : d.cfg.CookieLen+1]
	}
	d.t.since("recovery.candidates", "candidates", t0, uint64(len(cands)))
	return recovery.SliceSource(cands), nil
}

func composeTKIP(spec service.JobSpec, model *tkip.PerTSCModel, t *tracer) (*composed, error) {
	session := tkip.DemoSession()
	victim := netsim.NewWiFiVictim(session, tkip.DemoPayload)
	attack, err := tkip.NewAttack(model, tkip.TrailerPositions(len(victim.MSDU)))
	if err != nil {
		return nil, err
	}
	attack.Stream = snapshot.StreamInfo{Mode: spec.Mode, Seed: spec.Seed}
	c := &composed{
		oracle: &countingOracle{Oracle: &tkip.TrailerOracle{
			DA: session.DA, SA: session.SA, MSDU: victim.MSDU,
			Confirm: netsim.ForgeryConfirm(session, victim.MSDU),
		}},
		observed: func() uint64 { return attack.Frames },
		evidence: func() ([]byte, error) {
			var buf bytes.Buffer
			t0 := time.Now()
			err := attack.WriteSnapshot(&buf)
			t.since("tkip.snapshot", "bytes", t0, uint64(buf.Len()))
			return buf.Bytes(), err
		},
	}
	c.decoder = &tkipDecoder{a: attack, t: t, c: c}
	switch spec.Mode {
	case "model":
		trailer := tkipTrailer()
		c.capture = func(target uint64) error {
			n := target - attack.Frames
			t0 := time.Now()
			rng := rand.New(rand.NewSource(cliutil.ContinuationSeed(spec.Seed, attack.Frames)))
			err := attack.SimulateCaptures(rng, trailer, n)
			t.since("tkip.simulate", "frames", t0, n)
			return err
		}
	case "exact":
		sniffer := netsim.NewSniffer(victim.FrameLen())
		frames := make([]tkip.Frame, chunk)
		var sent uint64
		c.capture = func(target uint64) error {
			for attack.Frames < target {
				k := target - attack.Frames
				if k > chunk {
					k = chunk
				}
				t0 := time.Now()
				for i := range frames[:k] {
					frames[i] = victim.Transmit()
				}
				t0 = t.since("netsim.victim", "frames", t0, k)
				kept := frames[:0]
				for _, f := range frames[:k] {
					if sniffer.Filter(f) {
						kept = append(kept, f)
					}
				}
				t0 = t.since("netsim.sniffer", "frames", t0, k)
				for _, f := range kept {
					attack.Observe(f)
				}
				t.since("tkip.fold", "frames", t0, uint64(len(kept)))
				t.inc("netsim.sniffed", float64(k))
				t.inc("netsim.accepted", float64(len(kept)))
				sent += k
			}
			return nil
		}
		c.rc4Replay = func(t *tracer) { replayTKIP(t, session, victim.FrameLen(), sent) }
	default:
		return nil, fmt.Errorf("unknown mode %q", spec.Mode)
	}
	return c, nil
}

// tkipDecoder is tkip.Attack.Decode split at the layer boundary: per-TSC
// likelihoods from the attack, the lazy best-first enumerator from
// recovery, drawn in chunks so its time can be told apart from the
// oracle's inside the walk.
type tkipDecoder struct {
	a *tkip.Attack
	t *tracer
	c *composed
}

func (d *tkipDecoder) Observed() uint64 { return d.a.Frames }

func (d *tkipDecoder) Decode(max int) (recovery.CandidateSource, error) {
	t0 := time.Now()
	lks, err := d.a.Likelihoods()
	if err != nil {
		return nil, err
	}
	d.t.since("tkip.likelihood", "rounds", t0, 1)
	e, err := recovery.NewSingleByteEnumerator(lks)
	if err != nil {
		return nil, err
	}
	return &chunkedSource{e: e, d: d}, nil
}

// chunkedSource draws candidates from the enumerator 64 at a time. The walk
// is bounded by MaxCandidates, a multiple of 64, so the only candidates
// drawn beyond what the walk consumes are the rest of the chunk holding a
// hit.
type chunkedSource struct {
	e   *recovery.SingleByteEnumerator
	d   *tkipDecoder
	buf []recovery.Candidate
	end bool
}

func (s *chunkedSource) Next() (recovery.Candidate, bool) {
	if len(s.buf) == 0 && !s.end {
		t0 := time.Now()
		for i := 0; i < 64; i++ {
			c, ok := s.e.Next()
			if !ok {
				s.end = true
				break
			}
			s.buf = append(s.buf, c)
		}
		d := time.Since(t0)
		s.d.t.add("recovery.candidates", "candidates", d, uint64(len(s.buf)))
		s.d.c.walkCandidates += d
	}
	if len(s.buf) == 0 {
		return recovery.Candidate{}, false
	}
	c := s.buf[0]
	s.buf = s.buf[1:]
	return c, true
}

// runComposed runs one job through the composed pipeline with the online
// runtime, reproducing SoloRun's granule boundaries, and books the online
// and oracle layers.
func runComposed(spec service.JobSpec, model *tkip.PerTSCModel, t *tracer, journal *obs.Journal) (*composed, online.Result, []byte, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return nil, online.Result{}, nil, err
	}
	c, err := composeJob(spec, model, t)
	if err != nil {
		return nil, online.Result{}, nil, err
	}
	feed := online.FeedFunc(func(target uint64) error {
		// Granules end at absolute multiples of CaptureChunk, as in the
		// service: model-mode noise streams re-seed at each boundary.
		for at := c.observed(); at < target; at = c.observed() {
			next := target
			if b := (at/spec.CaptureChunk + 1) * spec.CaptureChunk; b < next {
				next = b
			}
			if err := c.capture(next); err != nil {
				return err
			}
		}
		return nil
	})
	res, runErr := online.Run(online.Config{
		Decoder:       c.decoder,
		Oracle:        c.oracle,
		Cadence:       online.Cadence{First: spec.FirstDecode, Every: spec.DecodeEvery},
		MaxCandidates: spec.MaxCandidates,
		Budget:        spec.Budget,
		Feed:          feed,
		Tracer:        journal,
	})
	if runErr != nil && !errors.Is(runErr, online.ErrBudgetExhausted) {
		return c, res, nil, runErr
	}
	t.add("netsim.oracle", "checks", res.OracleTime-c.walkCandidates, c.oracle.checks)
	t.inc("online.capture_s", res.CaptureTime.Seconds())
	t.inc("online.decode_s", res.DecodeTime.Seconds())
	t.inc("online.oracle_s", res.OracleTime.Seconds())
	t.inc("online.rounds", float64(res.Rounds))
	t.inc("online.checks", float64(res.Checks))
	t.inc("online.skipped", float64(res.Skipped))
	if runErr == nil {
		t.inc("online.successes", 1)
	}
	snap, err := c.evidence()
	if err != nil {
		return c, res, nil, err
	}
	return c, res, snap, runErr
}

// replayTLS re-runs an HTTPS victim's keystream through rc4 alone: one
// connection key, n records of recLen bytes each.
func replayTLS(t *tracer, key []byte, recLen int, n uint64) {
	buf := make([]byte, recLen)
	t0 := time.Now()
	c := rc4.MustNew(key)
	for i := uint64(0); i < n; i++ {
		c.XORKeyStream(buf, buf)
	}
	t.since("rc4", "bytes", t0, n*uint64(recLen))
	t.inc("rc4.rekeys", 1)
}

// replayTKIP re-runs a Wi-Fi victim's per-frame keystreams through rc4
// alone: a fresh key per TSC (mixed outside the timer), frameLen bytes each.
func replayTKIP(t *tracer, s *tkip.Session, frameLen int, n uint64) {
	keys := make([][16]byte, chunk)
	buf := make([]byte, frameLen)
	for i := uint64(0); i < n; i += chunk {
		k := n - i
		if k > chunk {
			k = chunk
		}
		for j := uint64(0); j < k; j++ {
			f := i + j
			keys[j] = tkip.MixKey(s.TK, s.TA, tkip.TSC(f<<16|f&0xff)) // netsim.WiFiVictim's TSC sequence
		}
		t0 := time.Now()
		for j := range keys[:k] {
			rc4.MustNew(keys[j][:]).XORKeyStream(buf, buf)
		}
		t.since("rc4", "bytes", t0, k*uint64(frameLen))
		t.inc("rc4.rekeys", float64(k))
	}
}
