// Package online implements the closed-loop attack runtime the paper's
// attacks actually run as: §6.2 brute-forces the candidate list against the
// real server *while* capture continues, and §7.4 verifies recovered TKIP
// trailers via the Michael MIC. Instead of capturing a fixed ciphertext
// budget and decoding exactly once, the runtime interleaves capture with
// decode attempts on a configurable cadence (geometric by default, so the
// total decode cost stays a constant factor of the capture cost), walks
// each round's ranked candidates against an oracle, and stops at the first
// confirmed hit — reporting rank, observations, and wall-clock at success.
// That turns one-shot success rates into measured records-to-first-success
// distributions. Search is the fixed-budget form (one decode, one walk)
// that the paper's figures and the header-field searches use; both share
// the one candidate walk.
//
// The runtime is attack-agnostic: cookieattack.Attack and tkip.Attack both
// implement Decoder, and netsim.CookieServer / tkip.TrailerOracle implement
// Oracle. Evidence arrives through a pluggable Feed: in-process drivers use
// the job package's granule feed (absolute capture granules; the attack
// CLI's variant checkpoints at granule boundaries and flushes on Ctrl-C at
// the next fold batch, resumable mid-cadence), while the fleet coordinator
// implements Feed directly, blocking until enough worker lanes have merged.
// Decode points are absolute observation counts, so a resumed run lands on
// exactly the cadence an uninterrupted run would use, and a feed that
// overshoots a point (whole-lane granularity) simply decodes at the
// overshot count.
package online

import (
	"errors"
	"fmt"
	"math"
	"time"

	"rc4break/internal/obs"
	"rc4break/internal/recovery"
)

// Decoder turns accumulated ciphertext evidence into ranked candidates —
// incremental evidence in, ranked candidates out.
type Decoder interface {
	// Observed reports the records/frames folded into the evidence so far.
	Observed() uint64
	// Decode ranks candidates from the current evidence, best first. max
	// bounds materialized decoders (the cookie list-Viterbi); lazy sources
	// (the TKIP enumerator) may ignore it — the runtime bounds its walk
	// either way.
	Decode(max int) (recovery.CandidateSource, error)
}

// Oracle confirms one candidate against ground truth: presenting the
// cookie to the target server (§6.2), or the Michael-MIC/ICV trailer
// verification (§7.4). Check must be deterministic per candidate.
type Oracle interface {
	Check(candidate []byte) bool
}

// Feed supplies evidence between decode rounds — the pluggable replacement
// for an in-process capturer. AdvanceTo blocks until the decoder's evidence
// covers at least target observations. A feed may overshoot the target (a
// fleet coordinator merges whole worker lanes, so evidence advances in lane
// granules); Run then decodes at the actual observed count, and the cadence
// — whose points are absolute — simply skips past any overshot points.
type Feed interface {
	AdvanceTo(target uint64) error
}

// FeedFunc adapts a capture function to the Feed interface.
type FeedFunc func(target uint64) error

// AdvanceTo implements Feed.
func (f FeedFunc) AdvanceTo(target uint64) error { return f(target) }

// OracleFunc adapts an acceptance predicate to the Oracle interface.
type OracleFunc func(candidate []byte) bool

// Check implements Oracle.
func (f OracleFunc) Check(candidate []byte) bool { return f(candidate) }

// DefaultFirstDecode is the default first decode point: early enough to
// catch strong-evidence runs, late enough that the first list is not pure
// noise at paper-like scales.
const DefaultFirstDecode = 1 << 20

// DefaultMaxCandidates bounds a round's candidate walk when the caller
// does not say.
const DefaultMaxCandidates = 1 << 16

// Cadence enumerates the observation counts at which decode rounds run.
// The zero value is the default geometric cadence 2^20, 2^21, 2^22, ...
type Cadence struct {
	// First is the observation count of the first decode attempt; 0 means
	// DefaultFirstDecode.
	First uint64
	// Every, when nonzero, spaces decode points arithmetically (First,
	// First+Every, ...). Zero selects the geometric cadence First,
	// 2·First, 4·First, ... — with decode cost roughly linear in evidence
	// volume, geometric spacing keeps total decode work a constant factor
	// of one final decode.
	Every uint64
}

// String describes the cadence for status lines.
func (c Cadence) String() string {
	if c.Every != 0 {
		return fmt.Sprintf("every-%d", c.Every)
	}
	return "geometric"
}

// Next returns the first decode point strictly greater than observed.
// Points are absolute, not relative to the current run's start: a resumed
// run therefore decodes at the same observation counts as an uninterrupted
// one.
func (c Cadence) Next(observed uint64) uint64 {
	first := c.First
	if first == 0 {
		first = DefaultFirstDecode
	}
	if observed < first {
		return first
	}
	if c.Every != 0 {
		k := (observed - first) / c.Every
		return first + (k+1)*c.Every
	}
	p := first
	for p <= observed {
		if p > math.MaxUint64/2 {
			return math.MaxUint64
		}
		p *= 2
	}
	return p
}

// rejectCacheMax bounds the cross-round reject cache; beyond it, further
// rejected candidates are simply re-checked in later rounds.
const rejectCacheMax = 1 << 22

// Config wires one online run.
type Config struct {
	Decoder Decoder
	Oracle  Oracle
	Cadence Cadence
	// MaxCandidates bounds each round's candidate walk; 0 means
	// DefaultMaxCandidates.
	MaxCandidates int
	// Budget is the maximum total observations. The final decode runs at
	// Budget (or wherever the feed's last granule lands at or past it); if
	// it too fails the run returns ErrBudgetExhausted.
	Budget uint64
	// Feed advances the evidence to at least the target observation count.
	Feed Feed
	// Checkpoint, when non-nil, runs after every unsuccessful decode round
	// — with snapshot-backed decoders this makes the run resumable
	// mid-cadence.
	Checkpoint func() error
	// Logf, when non-nil, receives one progress line per round.
	Logf func(format string, args ...interface{})
	// Tracer, when non-nil, records one online.run span plus per-round
	// capture/decode/walk spans into the journal. A nil Tracer costs one
	// nil check per span site; tracing never feeds evidence or candidate
	// ranks, so outputs are bitwise identical either way.
	Tracer *obs.Journal
	// TraceParent parents the online.run span — the coordinator's or job
	// server's span context, so a distributed run renders as one trace.
	TraceParent obs.SpanContext
}

// Result reports the outcome of an online run or a Search. On success
// Plaintext is the confirmed candidate; otherwise the counters still
// describe the work done.
type Result struct {
	Plaintext []byte
	// Rank is the confirmed candidate's 1-based position in the winning
	// round's list (skipped duplicates still occupy their positions).
	Rank int
	// Observed is the observation count at the winning decode point — the
	// records-to-first-success metric.
	Observed uint64
	// Rounds counts decode rounds run, including the winning one.
	Rounds int
	// Checks counts oracle queries; Skipped counts queries saved by the
	// cross-round reject cache (a candidate rejected once is not
	// re-presented to the oracle).
	Checks, Skipped uint64
	// CaptureTime, DecodeTime and OracleTime split Elapsed by phase.
	// Elapsed is set on every return after validation, errors included.
	CaptureTime, DecodeTime, OracleTime time.Duration
	Elapsed                             time.Duration
}

// ErrBudgetExhausted reports an online run that hit its observation budget
// without an oracle-confirmed candidate.
var ErrBudgetExhausted = errors.New("online: observation budget exhausted without an oracle-confirmed hit")

// Run drives the closed loop: capture to the next cadence point, decode,
// walk the list against the oracle, stop at the first confirmed hit.
func Run(cfg Config) (res Result, err error) {
	feed := cfg.Feed
	if cfg.Decoder == nil || cfg.Oracle == nil || feed == nil {
		return Result{}, errors.New("online: Decoder, Oracle and an evidence Feed are required")
	}
	if cfg.Budget == 0 {
		return Result{}, errors.New("online: zero observation budget")
	}
	start := time.Now()                                //rc4lint:allow timing attack-cost metric (Result timing fields), never feeds evidence
	defer func() { res.Elapsed = time.Since(start) }() //rc4lint:allow timing total-elapsed metric
	runSpan := cfg.Tracer.Start(cfg.TraceParent, "online.run",
		obs.U64("budget", cfg.Budget), obs.Str("cadence", cfg.Cadence.String()))
	defer runSpan.End()
	runCtx := runSpan.Context()
	rejected := make(map[string]struct{})
	for {
		target := cfg.Cadence.Next(cfg.Decoder.Observed())
		if target > cfg.Budget {
			target = cfg.Budget
		}
		if target > cfg.Decoder.Observed() {
			capSpan := cfg.Tracer.Start(runCtx, "online.capture", obs.U64("target", target))
			t0 := time.Now() //rc4lint:allow timing capture-time metric
			if err := feed.AdvanceTo(target); err != nil {
				capSpan.End()
				res.Observed = cfg.Decoder.Observed()
				return res, err
			}
			res.CaptureTime += time.Since(t0) //rc4lint:allow timing capture-time metric
			capSpan.SetAttrs(obs.U64("observed", cfg.Decoder.Observed()))
			capSpan.End()
			if got := cfg.Decoder.Observed(); got < target {
				res.Observed = got
				return res, fmt.Errorf("online: capture stopped at %d of %d observations", got, target)
			}
		}
		// The feed may have overshot the cadence point (whole-lane granules);
		// the decode sees whatever was actually observed, and the run ends
		// once the budget is covered.
		res.Observed = cfg.Decoder.Observed()
		walked, err := res.round(cfg.Decoder, cfg.Oracle, cfg.MaxCandidates, rejected, cfg.Tracer, runCtx)
		if err != nil {
			return res, err
		}
		if res.Plaintext != nil {
			runSpan.SetAttrs(obs.Int("rank", int64(res.Rank)), obs.U64("observed", res.Observed))
			return res, nil
		}
		if cfg.Logf != nil {
			cfg.Logf("round %d at %d observations: %d candidates, no oracle hit", res.Rounds, res.Observed, walked)
		}
		if cfg.Checkpoint != nil {
			if err := cfg.Checkpoint(); err != nil {
				return res, err
			}
		}
		if res.Observed >= cfg.Budget {
			return res, ErrBudgetExhausted
		}
	}
}

// Search is the fixed-budget attack: one decode of the evidence dec already
// holds, then one walk of at most max candidates (0 means
// DefaultMaxCandidates) against oracle. A miss returns a nil Plaintext and
// a nil error; the counters still describe the work done.
func Search(dec Decoder, oracle Oracle, max int) (Result, error) {
	start := time.Now() //rc4lint:allow timing attack-cost metric (Result timing fields), never feeds evidence
	res := Result{Observed: dec.Observed()}
	_, err := res.round(dec, oracle, max, nil, nil, obs.SpanContext{})
	res.Elapsed = time.Since(start) //rc4lint:allow timing total-elapsed metric
	return res, err
}

// round runs one decode of dec's current evidence and walks at most max of
// its candidates against oracle, adding its decode and oracle time to res.
// A nil rejected map disables the cross-round reject cache.
func (res *Result) round(dec Decoder, oracle Oracle, max int, rejected map[string]struct{}, tr *obs.Journal, parent obs.SpanContext) (walked int, err error) {
	if max <= 0 {
		max = DefaultMaxCandidates
	}
	res.Rounds++
	decSpan := tr.Start(parent, "online.decode",
		obs.Int("round", int64(res.Rounds)), obs.U64("observed", res.Observed))
	t0 := time.Now() //rc4lint:allow timing decode-time metric
	src, err := dec.Decode(max)
	if err != nil {
		decSpan.End()
		return 0, err
	}
	res.DecodeTime += time.Since(t0) //rc4lint:allow timing decode-time metric
	decSpan.End()

	walkSpan := tr.Start(parent, "online.walk", obs.Int("round", int64(res.Rounds)))
	t0 = time.Now() //rc4lint:allow timing oracle-time metric
	walked = res.walk(src, oracle, max, rejected)
	res.OracleTime += time.Since(t0) //rc4lint:allow timing oracle-time metric
	walkSpan.SetAttrs(obs.Int("walked", int64(walked)), obs.U64("checks", res.Checks))
	walkSpan.End()
	return walked, nil
}

// walk presents up to max candidates to the oracle, skipping candidates a
// previous round already rejected, and records a hit's plaintext and rank.
// It is the one loop that presents candidates to an acceptance check.
func (res *Result) walk(src recovery.CandidateSource, oracle Oracle, max int, rejected map[string]struct{}) (walked int) {
	for rank := 1; rank <= max; rank++ {
		c, ok := src.Next()
		if !ok {
			return rank - 1
		}
		if _, seen := rejected[string(c.Plaintext)]; seen {
			res.Skipped++
			continue
		}
		res.Checks++
		if oracle.Check(c.Plaintext) {
			res.Plaintext, res.Rank = c.Plaintext, rank
			return rank
		}
		if rejected != nil && len(rejected) < rejectCacheMax {
			rejected[string(c.Plaintext)] = struct{}{}
		}
	}
	return max
}
