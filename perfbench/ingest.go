package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"rc4break/internal/cookieattack"
	"rc4break/internal/netsim"
	"rc4break/internal/tkip"
	"rc4break/internal/tlsrec"
	"rc4break/internal/trace"
)

// Capture sizes: each ingest takes on the order of 0.1 s, so a run holds
// enough ingests for a tail percentile.
const (
	tlsRecords = 1 << 14
	tkipFrames = 1 << 17
	// retryEvery is the mean spacing of MAC-level retransmissions in the
	// TKIP capture, which the TSC de-duplication must drop.
	retryEvery = 16
)

// ingestFixture holds one TLS (Ethernet) and one TKIP (radiotap) pcap
// synthesised from netsim victims, ingested from memory.
type ingestFixture struct {
	model    *tkip.PerTSCModel
	trainS   float64
	secret   string
	cfg      cookieattack.Config
	master   []byte
	wantLen  int
	frameLen int
	tlsPcap  []byte
	tkipPcap []byte
	retries  uint64
}

func setupIngest(e *env) (fixture, error) {
	model, trainS, err := trainModel()
	if err != nil {
		return nil, err
	}
	f := &ingestFixture{model: model, trainS: trainS}
	v := netsim.Population(netsim.PopulationConfig{Victims: 1, Seed: e.seed})[0]
	f.secret = v.Secret
	cfg, req, err := cookieConfig(v.Secret)
	if err != nil {
		return nil, err
	}
	f.cfg = cfg
	f.master = make([]byte, 48)
	rand.New(rand.NewSource(v.Seed)).Read(f.master)
	victim, err := netsim.NewHTTPSVictim(f.master, req)
	if err != nil {
		return nil, err
	}
	f.wantLen = victim.RecordPlaintextLen()
	var tls bytes.Buffer
	pw, err := trace.NewPcapWriter(&tls, trace.LinkTypeEthernet)
	if err != nil {
		return nil, err
	}
	sw, err := netsim.NewStreamWriter(pw, trace.LinkTypeEthernet)
	if err != nil {
		return nil, err
	}
	if err := victim.WriteTrace(sw, tlsRecords); err != nil {
		return nil, err
	}
	f.tlsPcap = tls.Bytes()

	session := tkip.DemoSession()
	wifi := netsim.NewWiFiVictim(session, tkip.DemoPayload)
	f.frameLen = wifi.FrameLen()
	var air bytes.Buffer
	if pw, err = trace.NewPcapWriter(&air, trace.LinkTypeRadiotap); err != nil {
		return nil, err
	}
	fw, err := netsim.NewFrameWriter(pw, trace.LinkTypeRadiotap, session)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	for i := 0; i < tkipFrames; i++ {
		fr := wifi.Transmit()
		if err := fw.WriteFrame(uint64(fr.TSC), fr.Body); err != nil {
			return nil, err
		}
		if rng.Intn(retryEvery) == 0 {
			if err := fw.WriteRetry(); err != nil {
				return nil, err
			}
			f.retries++
		}
	}
	f.tkipPcap = air.Bytes()
	return f, nil
}

func (f *ingestFixture) describe() {
	fmt.Printf("  job tls-ingest   %d records, %d capture bytes (Ethernet pcap)\n", tlsRecords, len(f.tlsPcap))
	fmt.Printf("  job tkip-ingest  %d frames + %d retransmissions, %d capture bytes (radiotap pcap)\n", tkipFrames, f.retries, len(f.tkipPcap))
}

func (f *ingestFixture) close() {}

func (f *ingestFixture) ingestTLS(a *cookieattack.Attack) (cookieattack.TraceStats, error) {
	return cookieattack.CollectTraceReaders(a, f.wantLen, []io.Reader{bytes.NewReader(f.tlsPcap)}, 0, 0, false)
}

func (f *ingestFixture) ingestTKIP(a *tkip.Attack) (tkip.TraceStats, error) {
	return tkip.CollectTraceReaders(a, f.frameLen, []io.Reader{bytes.NewReader(f.tkipPcap)}, 0, 0, false)
}

func (f *ingestFixture) newTKIPAttack() (*tkip.Attack, error) {
	return tkip.NewAttack(f.model, tkip.TrailerPositions(f.frameLen-tkip.TrailerSize))
}

// tlsOp ingests the TLS capture into a fresh attack.
func (f *ingestFixture) tlsOp() (jobRun, *cookieattack.Attack) {
	r := jobRun{outcome: outcome{Job: "tls-ingest"}}
	t0 := time.Now()
	a, err := cookieattack.New(f.cfg)
	var st cookieattack.TraceStats
	if err == nil {
		st, err = f.ingestTLS(a)
	}
	r.latency = time.Since(t0)
	if err != nil {
		r.problem = fmt.Sprintf("tls-ingest: %v", err)
		return r, nil
	}
	r.obs, r.bytes = a.Records, st.Bytes
	r.outcome.Observed = a.Records
	if a.Records != tlsRecords || st.DeadFlows != 0 {
		r.problem = fmt.Sprintf("tls-ingest: folded %d of %d records, %d dead flows", a.Records, tlsRecords, st.DeadFlows)
	}
	r.outcome.Digest = snapshotDigest(&r, a.WriteSnapshot)
	return r, a
}

// tkipOp ingests the TKIP capture into a fresh attack.
func (f *ingestFixture) tkipOp() (jobRun, *tkip.Attack) {
	r := jobRun{outcome: outcome{Job: "tkip-ingest"}}
	t0 := time.Now()
	a, err := f.newTKIPAttack()
	var st tkip.TraceStats
	if err == nil {
		st, err = f.ingestTKIP(a)
	}
	r.latency = time.Since(t0)
	if err != nil {
		r.problem = fmt.Sprintf("tkip-ingest: %v", err)
		return r, nil
	}
	r.obs, r.bytes = a.Frames, st.Bytes
	r.outcome.Observed = a.Frames
	if a.Frames != tkipFrames || st.Duplicates != f.retries {
		r.problem = fmt.Sprintf("tkip-ingest: folded %d of %d frames, dropped %d of %d retransmissions",
			a.Frames, tkipFrames, st.Duplicates, f.retries)
	}
	r.outcome.Digest = snapshotDigest(&r, a.WriteSnapshot)
	return r, a
}

// snapshotDigest serializes evidence (outside the op's latency) and returns
// its digest, recording any failure on the job.
func snapshotDigest(r *jobRun, write func(io.Writer) error) string {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		r.problem = fmt.Sprintf("%s: %v", r.outcome.Job, err)
		return ""
	}
	d, err := digest(buf.Bytes())
	if err != nil {
		r.problem = fmt.Sprintf("%s: %v", r.outcome.Job, err)
	}
	return d
}

// pass ingests both captures. Each ingest starts on a collected heap, as a
// one-shot ingest process would, with the collection outside its latency.
func (f *ingestFixture) pass() (passResult, error) {
	var p passResult
	runtime.GC()
	tls, _ := f.tlsOp()
	runtime.GC()
	tk, _ := f.tkipOp()
	p.jobs = []jobRun{tls, tk}
	p.wall = tls.latency + tk.latency
	return p, nil
}

// trace splits each ingest into its layers with separately timed passes over
// the same bytes: a parse-only ingest (nil attack), a TLS scan of the
// reassembled stream, and a fold of the victims' records or frames into a
// fresh attack — which is also the direct capture the ingested evidence must
// equal bit for bit.
func (f *ingestFixture) trace(untraced passResult, t *tracer) error {
	// Regenerate what the victims sent, outside every timer.
	_, req, err := cookieConfig(f.secret)
	if err != nil {
		return err
	}
	victim, err := netsim.NewHTTPSVictim(f.master, req)
	if err != nil {
		return err
	}
	var stream []byte
	for i := 0; i < tlsRecords; i++ {
		stream = append(stream, victim.SendRequest()...)
	}
	wifi := netsim.NewWiFiVictim(tkip.DemoSession(), tkip.DemoPayload)
	frames := make([]tkip.Frame, tkipFrames)
	for i := range frames {
		frames[i] = wifi.Transmit()
	}

	runtime.GC()
	tls, ingested := f.tlsOp()
	runtime.GC()
	tk, ingestedTKIP := f.tkipOp()
	t.out.op(tls.problem, sameOutcome("repeat", untraced.jobs[0].outcome, tls.outcome))
	t.out.op(tk.problem, sameOutcome("repeat", untraced.jobs[1].outcome, tk.outcome))
	if ingested == nil || ingestedTKIP == nil {
		return nil
	}
	t.wall = tls.latency + tk.latency
	t.ledgerBase, t.base = t.wall, "sequential ingest wall time"
	t.obs = tls.obs + tk.obs

	t0 := time.Now()
	tlsStats, err := f.ingestTLS(nil)
	if err != nil {
		return err
	}
	parseTLS := time.Since(t0)
	t0 = time.Now()
	tkipStats, err := f.ingestTKIP(nil)
	if err != nil {
		return err
	}
	parseTKIP := time.Since(t0)

	var flat []byte
	col := &tlsrec.CollectRequests{WantLen: f.wantLen}
	t0 = time.Now()
	for off := 0; off < len(stream); off += 1 << 16 {
		end := off + 1<<16
		if end > len(stream) {
			end = len(stream)
		}
		if err := col.FeedBatch(stream[off:end], func(bodies [][]byte) {
			for _, b := range bodies {
				flat = append(flat, b...)
			}
		}); err != nil {
			return err
		}
	}
	scan := time.Since(t0)

	direct, err := cookieattack.New(f.cfg)
	if err != nil {
		return err
	}
	const batch = 2048
	t0 = time.Now()
	for i := 0; i < tlsRecords; i += batch {
		n := tlsRecords - i
		if n > batch {
			n = batch
		}
		if err := direct.ObserveRecords(flat[i*f.wantLen:], n, f.wantLen); err != nil {
			return err
		}
	}
	foldTLS := time.Since(t0)
	directTKIP, err := f.newTKIPAttack()
	if err != nil {
		return err
	}
	t0 = time.Now()
	for i := 0; i < len(frames); i += 256 {
		directTKIP.ObserveFrames(frames[i : i+256])
	}
	foldTKIP := time.Since(t0)
	var d jobRun
	d.outcome = outcome{Job: "tls-ingest", Observed: direct.Records}
	d.outcome.Digest = snapshotDigest(&d, direct.WriteSnapshot)
	t.out.op(d.problem, sameOutcome("direct capture equivalence", d.outcome, tls.outcome))
	d = jobRun{outcome: outcome{Job: "tkip-ingest", Observed: directTKIP.Frames}}
	d.outcome.Digest = snapshotDigest(&d, directTKIP.WriteSnapshot)
	t.out.op(d.problem, sameOutcome("direct capture equivalence", d.outcome, tk.outcome))

	bytesIn := tlsStats.Bytes + tkipStats.Bytes
	t.add("trace.parse", "bytes", parseTLS-scan+parseTKIP, bytesIn)
	t.add("tlsrec.scan", "bytes", scan, uint64(len(stream)))
	t.add("cookieattack.fold", "records", foldTLS, direct.Records)
	t.add("tkip.fold", "frames", foldTKIP, directTKIP.Frames)
	t.inc("tlsrec.records", float64(tlsStats.Records))
	t.inc("tlsrec.matched", float64(tlsStats.Matched))
	t.set("tkip.train_s", f.trainS)
	t.set("trace.parse_busy_s", (parseTLS + parseTKIP).Seconds())
	t.set("trace.parse_mbps", ratio(float64(bytesIn)/1e6, (parseTLS+parseTKIP).Seconds()))
	t.set("trace.packets", float64(tlsStats.Packets+tkipStats.Packets))
	t.set("trace.dup_drop_ratio", ratio(float64(tkipStats.Duplicates), float64(tkipStats.Matched+tkipStats.Duplicates)))
	t.set("trace.dead_flows", float64(tlsStats.DeadFlows))
	deriveLayerMetrics(t)
	fmt.Printf("ingest: TLS %.1f MB/s (parse-only %.1f MB/s), TKIP %.1f MB/s (parse-only %.1f MB/s)\n",
		float64(tls.bytes)/1e6/tls.latency.Seconds(), float64(tlsStats.Bytes)/1e6/parseTLS.Seconds(),
		float64(tk.bytes)/1e6/tk.latency.Seconds(), float64(tkipStats.Bytes)/1e6/parseTKIP.Seconds())
	return nil
}
