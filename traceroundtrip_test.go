// Integration tests for the trace-ingestion subsystem: a capture written
// by the simulator (sim → pcap) and ingested back (pcap → evidence) must
// be indistinguishable — bit for bit — from direct in-process capture,
// for both attacks, both container formats, and through a snapshot
// write/merge cycle. This is the round-trip pin that lets real captures
// and simulated ones share every layer above the collectors.
package rc4break

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"rc4break/internal/cookieattack"
	"rc4break/internal/netsim"
	"rc4break/internal/packet"
	"rc4break/internal/snapshot"
	"rc4break/internal/tkip"
	"rc4break/internal/trace"
)

// traceTKIPModel trains the small shared model the TKIP round-trip tests
// bind their attacks to.
func traceTKIPModel(t *testing.T) *tkip.PerTSCModel {
	t.Helper()
	msduLen := packet.HeaderSize + 7
	m, err := tkip.Train(tkip.TrainConfig{
		Positions:  msduLen + tkip.TrailerSize,
		KeysPerTSC: 8,
		Master:     [16]byte{0x7A},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newTraceTKIPAttack(t *testing.T, model *tkip.PerTSCModel) *tkip.Attack {
	t.Helper()
	msduLen := packet.HeaderSize + 7
	a, err := tkip.NewAttack(model, tkip.TrailerPositions(msduLen))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func tkipSnapshotBytes(t *testing.T, a *tkip.Attack) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newPacketWriter builds a pcap or pcapng writer over buf.
func newPacketWriter(t *testing.T, buf *bytes.Buffer, format string, linkType uint32) trace.PacketWriter {
	t.Helper()
	var (
		w   trace.PacketWriter
		err error
	)
	switch format {
	case "pcap":
		w, err = trace.NewPcapWriter(buf, linkType)
	case "pcapng":
		w, err = trace.NewPcapNGWriter(buf, linkType)
	default:
		t.Fatalf("unknown format %q", format)
	}
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestTraceRoundTripTKIP is the headline pin for the §5 side: frames
// written to a capture by the simulated victim, ingested back through
// radiotap/802.11 parsing and sniffer-style filtering, must produce an
// evidence snapshot bitwise identical to direct in-process capture — and
// the pooled result of a snapshot write/merge cycle must match too.
func TestTraceRoundTripTKIP(t *testing.T) {
	const n = 1500
	model := traceTKIPModel(t)
	session := tkip.DemoSession()
	stream := snapshot.StreamInfo{Mode: "exact"}

	// Direct in-process capture, exactly like rc4attack's exact TKIP mode.
	direct := newTraceTKIPAttack(t, model)
	direct.Stream = stream
	victim := netsim.NewWiFiVictim(session, tkip.DemoPayload)
	sniffer := netsim.NewSniffer(victim.FrameLen())
	for i := 0; i < n; i++ {
		if f := victim.Transmit(); sniffer.Filter(f) {
			direct.Observe(f)
		}
	}

	for _, format := range []string{"pcap", "pcapng"} {
		for _, link := range []uint32{trace.LinkTypeRadiotap, trace.LinkTypeIEEE80211} {
			var buf bytes.Buffer
			fw, err := netsim.NewFrameWriter(newPacketWriter(t, &buf, format, link), link, session)
			if err != nil {
				t.Fatal(err)
			}
			wvictim := netsim.NewWiFiVictim(session, tkip.DemoPayload)
			if err := wvictim.WriteTrace(fw, n); err != nil {
				t.Fatal(err)
			}

			ingested := newTraceTKIPAttack(t, model)
			ingested.Stream = stream
			stats, err := tkip.CollectTraceReaders(ingested, victim.FrameLen(),
				[]io.Reader{bytes.NewReader(buf.Bytes())}, 0, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Matched != n {
				t.Fatalf("%s/%d: matched %d frames, want %d", format, link, stats.Matched, n)
			}
			if !bytes.Equal(tkipSnapshotBytes(t, direct), tkipSnapshotBytes(t, ingested)) {
				t.Fatalf("%s/%d: trace-ingested evidence differs from direct capture", format, link)
			}

			// Snapshot write/merge cycle: merging the reloaded trace shard
			// into an empty pool must equal merging the direct shard.
			reloaded, err := tkip.ReadAttackSnapshot(bytes.NewReader(tkipSnapshotBytes(t, ingested)), model)
			if err != nil {
				t.Fatal(err)
			}
			poolA, poolB := newTraceTKIPAttack(t, model), newTraceTKIPAttack(t, model)
			if err := poolA.Merge(direct); err != nil {
				t.Fatal(err)
			}
			if err := poolB.Merge(reloaded); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(tkipSnapshotBytes(t, poolA), tkipSnapshotBytes(t, poolB)) {
				t.Fatalf("%s/%d: merged pools differ", format, link)
			}
		}
	}
}

// TestTraceTKIPRetriesAndNoise pins the capture-quirk filtering: MAC-level
// retries (same TSC), foreign frames, and other-length frames must all be
// dropped without perturbing the evidence.
func TestTraceTKIPRetriesAndNoise(t *testing.T) {
	const n = 600
	model := traceTKIPModel(t)
	session := tkip.DemoSession()

	direct := newTraceTKIPAttack(t, model)
	victim := netsim.NewWiFiVictim(session, tkip.DemoPayload)
	for i := 0; i < n; i++ {
		direct.Observe(victim.Transmit())
	}

	var buf bytes.Buffer
	pw := newPacketWriter(t, &buf, "pcap", trace.LinkTypeRadiotap)
	fw, err := netsim.NewFrameWriter(pw, trace.LinkTypeRadiotap, session)
	if err != nil {
		t.Fatal(err)
	}
	wvictim := netsim.NewWiFiVictim(session, tkip.DemoPayload)
	foreign := netsim.NewWiFiVictim(session, []byte("A-DIFFERENT-LENGTH-PAYLOAD"))
	for i := uint64(0); i < n; i++ {
		f := wvictim.Transmit()
		if err := fw.WriteFrame(uint64(f.TSC), f.Body); err != nil {
			t.Fatal(err)
		}
		switch i % 3 {
		case 0: // MAC retry of the frame just written
			if err := fw.WriteRetry(); err != nil {
				t.Fatal(err)
			}
		case 1: // other-length data frame from the same network
			g := foreign.Transmit()
			if err := fw.WriteFrame(uint64(g.TSC), g.Body); err != nil {
				t.Fatal(err)
			}
		case 2: // a beacon-ish management frame (raw, unparseable as data)
			if err := pw.WritePacket(append([]byte{0, 0, 8, 0, 0, 0, 0, 0, 0x80, 0}, make([]byte, 30)...)); err != nil {
				t.Fatal(err)
			}
		}
	}

	ingested := newTraceTKIPAttack(t, model)
	stats, err := tkip.CollectTraceReaders(ingested, victim.FrameLen(),
		[]io.Reader{bytes.NewReader(buf.Bytes())}, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Matched != n {
		t.Fatalf("matched %d, want %d (stats %+v)", stats.Matched, n, stats)
	}
	if stats.Duplicates == 0 || stats.OtherLength == 0 || stats.Skipped == 0 {
		t.Fatalf("noise not classified: %+v", stats)
	}
	if !bytes.Equal(tkipSnapshotBytes(t, direct), tkipSnapshotBytes(t, ingested)) {
		t.Fatal("noisy trace perturbed the evidence")
	}
}

// TestTraceTKIPFragmentsSkipped pins the fragmentation rule: fragment
// MPDUs are counted and skipped, never folded into evidence.
func TestTraceTKIPFragmentsSkipped(t *testing.T) {
	model := traceTKIPModel(t)
	session := tkip.DemoSession()
	victim := netsim.NewWiFiVictim(session, tkip.DemoPayload)

	var buf bytes.Buffer
	pw := newPacketWriter(t, &buf, "pcap", trace.LinkTypeIEEE80211)
	fw, err := netsim.NewFrameWriter(pw, trace.LinkTypeIEEE80211, session)
	if err != nil {
		t.Fatal(err)
	}
	f := victim.Transmit()
	if err := fw.WriteFrame(uint64(f.TSC), f.Body); err != nil {
		t.Fatal(err)
	}
	// Hand-craft a fragment: same shape, MoreFrag bit set (frame control
	// bit 10 — bit 2 of the high FC byte).
	g := victim.Transmit()
	var frag bytes.Buffer
	pw2 := newPacketWriter(t, &frag, "pcap", trace.LinkTypeIEEE80211)
	fw2, err := netsim.NewFrameWriter(pw2, trace.LinkTypeIEEE80211, session)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw2.WriteFrame(uint64(g.TSC), g.Body); err != nil {
		t.Fatal(err)
	}
	fragPkt := append([]byte(nil), frag.Bytes()[24+16:]...)
	fragPkt[1] |= 0x04 // MoreFrag
	if err := pw.WritePacket(fragPkt); err != nil {
		t.Fatal(err)
	}

	a := newTraceTKIPAttack(t, model)
	stats, err := tkip.CollectTraceReaders(a, victim.FrameLen(),
		[]io.Reader{bytes.NewReader(buf.Bytes())}, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Matched != 1 || stats.Fragmented != 1 {
		t.Fatalf("fragment handling wrong: %+v", stats)
	}
	if a.Frames != 1 {
		t.Fatalf("fragment leaked into evidence: %d frames", a.Frames)
	}
}

// TestTraceRoundTripCookie is the headline pin for the §6 side: TLS
// records written as TCP segments, reassembled and scanned back, must
// produce evidence bitwise identical to direct in-process capture —
// including with out-of-order and duplicated segments in the capture.
func TestTraceRoundTripCookie(t *testing.T) {
	const n = 800
	const secret = "Secur3C00kieVal+"
	stream := snapshot.StreamInfo{Mode: "exact", Seed: 41}

	direct := newCookieCaptureRig(t, secret, 41)
	direct.attack.Stream = stream
	direct.capture(t, n)

	for _, format := range []string{"pcap", "pcapng"} {
		for _, link := range []uint32{trace.LinkTypeEthernet, trace.LinkTypeRawIP} {
			var buf bytes.Buffer
			sw, err := netsim.NewStreamWriter(newPacketWriter(t, &buf, format, link), link)
			if err != nil {
				t.Fatal(err)
			}
			// Small MSS so records split across several segments.
			sw.MSS = 200
			writer := newCookieCaptureRig(t, secret, 41)
			if err := writer.victim.WriteTrace(sw, n); err != nil {
				t.Fatal(err)
			}

			ingester := newCookieCaptureRig(t, secret, 41)
			ingester.attack.Stream = stream
			stats, err := cookieattack.CollectTraceReaders(ingester.attack,
				ingester.victim.RecordPlaintextLen(),
				[]io.Reader{bytes.NewReader(buf.Bytes())}, 0, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Matched != n {
				t.Fatalf("%s/%d: matched %d records, want %d", format, link, stats.Matched, n)
			}
			if !bytes.Equal(cookieSnapshotBytes(t, direct.attack), cookieSnapshotBytes(t, ingester.attack)) {
				t.Fatalf("%s/%d: trace-ingested evidence differs from direct capture", format, link)
			}
		}
	}
}

// TestTraceCookieOutOfOrderCapture shuffles and duplicates the capture's
// packets; reassembly must still produce identical evidence.
func TestTraceCookieOutOfOrderCapture(t *testing.T) {
	const n = 400
	const secret = "Secur3C00kieVal+"

	direct := newCookieCaptureRig(t, secret, 43)
	direct.capture(t, n)

	// Write the stream, then re-shuffle packets within small windows (the
	// reordering a multi-path or buffered sniffer produces) and duplicate
	// some (captured retransmissions).
	var buf bytes.Buffer
	pw := newPacketWriter(t, &buf, "pcap", trace.LinkTypeEthernet)
	sw, err := netsim.NewStreamWriter(pw, trace.LinkTypeEthernet)
	if err != nil {
		t.Fatal(err)
	}
	sw.MSS = 300
	writer := newCookieCaptureRig(t, secret, 43)
	if err := writer.victim.WriteTrace(sw, n); err != nil {
		t.Fatal(err)
	}

	r, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var pkts [][]byte
	for {
		p, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, append([]byte(nil), p.Data...))
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i+4 < len(pkts); i += 4 {
		j := i + rng.Intn(4)
		k := i + rng.Intn(4)
		pkts[j], pkts[k] = pkts[k], pkts[j]
	}
	var shuffled bytes.Buffer
	pw2, err := trace.NewPcapWriter(&shuffled, trace.LinkTypeEthernet)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pkts {
		if err := pw2.WritePacket(p); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 { // duplicate as a retransmission
			if err := pw2.WritePacket(p); err != nil {
				t.Fatal(err)
			}
		}
	}

	ingester := newCookieCaptureRig(t, secret, 43)
	stats, err := cookieattack.CollectTraceReaders(ingester.attack,
		ingester.victim.RecordPlaintextLen(),
		[]io.Reader{bytes.NewReader(shuffled.Bytes())}, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Matched != n {
		t.Fatalf("matched %d records, want %d (stats %+v)", stats.Matched, n, stats)
	}
	if !bytes.Equal(cookieSnapshotBytes(t, direct.attack), cookieSnapshotBytes(t, ingester.attack)) {
		t.Fatal("out-of-order capture perturbed the evidence")
	}
}

// TestTraceLaneRangesMatchLanes pins the fleet-serving contract: carving
// observation ranges out of trace file shards reproduces, bit for bit,
// the exact-mode lane capture a fleet worker would run in-process — for
// both attacks — and the shard set behaves as one logical stream even
// when split across files mid-lane.
func TestTraceLaneRangesMatchLanes(t *testing.T) {
	const laneRecords = 300
	const lanes = 3
	const secret = "Secur3C00kieVal+"

	// Cookie side: write the whole stream split unevenly across two files.
	var shard1, shard2 bytes.Buffer
	pw1 := newPacketWriter(t, &shard1, "pcap", trace.LinkTypeEthernet)
	sw, err := netsim.NewStreamWriter(pw1, trace.LinkTypeEthernet)
	if err != nil {
		t.Fatal(err)
	}
	writer := newCookieCaptureRig(t, secret, 41)
	if err := writer.victim.WriteTrace(sw, laneRecords+laneRecords/2); err != nil {
		t.Fatal(err)
	}
	// Continue the same TCP stream in the second shard file: the writer's
	// sequence cursor is advanced past the bytes the first shard holds, so
	// the two files concatenate into one logical flow.
	pw2 := newPacketWriter(t, &shard2, "pcap", trace.LinkTypeEthernet)
	rest := lanes*laneRecords - (laneRecords + laneRecords/2)
	cont, err := netsim.NewStreamWriter(pw2, trace.LinkTypeEthernet)
	if err != nil {
		t.Fatal(err)
	}
	contBytes := uint64(writer.victim.RecordPlaintextLen()+5) * (laneRecords + laneRecords/2)
	cont.SkipSequence(contBytes)
	if err := writer.victim.WriteTrace(cont, uint64(rest)); err != nil {
		t.Fatal(err)
	}

	for lane := uint64(0); lane < lanes; lane++ {
		// In-process exact lane, as a fleet worker collects it.
		inproc := newCookieCaptureRig(t, secret, 41)
		inproc.fastForward(lane * laneRecords)
		inproc.capture(t, laneRecords)

		fromTrace := newCookieCaptureRig(t, secret, 41)
		_, err := cookieattack.CollectTraceReaders(fromTrace.attack,
			fromTrace.victim.RecordPlaintextLen(),
			[]io.Reader{bytes.NewReader(shard1.Bytes()), bytes.NewReader(shard2.Bytes())},
			lane*laneRecords, laneRecords, true)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cookieSnapshotBytes(t, inproc.attack), cookieSnapshotBytes(t, fromTrace.attack)) {
			t.Fatalf("lane %d: trace-served lane differs from in-process capture", lane)
		}
	}

	// A range past the end of the shards must fail loudly in strict mode.
	short := newCookieCaptureRig(t, secret, 41)
	_, err = cookieattack.CollectTraceReaders(short.attack, short.victim.RecordPlaintextLen(),
		[]io.Reader{bytes.NewReader(shard1.Bytes())}, lanes*laneRecords, laneRecords, true)
	if err == nil {
		t.Fatal("strict range beyond the capture did not fail")
	}
}

// TestTraceIngestStreamingMemory demonstrates the O(MB) ingest guarantee:
// a multi-hundred-MB TLS capture streamed through an io.Pipe — never
// materialized — ingests with bounded heap growth.
func TestTraceIngestStreamingMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-MB streaming ingest")
	}
	const records = 420000 // ~256 MB of capture at 537-byte records + headers
	const secret = "Secur3C00kieVal+"

	pr, pwPipe := io.Pipe()
	writeErr := make(chan error, 1)
	go func() {
		pw, err := trace.NewPcapWriter(pwPipe, trace.LinkTypeEthernet)
		if err != nil {
			writeErr <- err
			pwPipe.CloseWithError(err)
			return
		}
		sw, err := netsim.NewStreamWriter(pw, trace.LinkTypeEthernet)
		if err != nil {
			writeErr <- err
			pwPipe.CloseWithError(err)
			return
		}
		rig := newCookieCaptureRig(t, secret, 41)
		err = rig.victim.WriteTrace(sw, records)
		writeErr <- err
		pwPipe.CloseWithError(err)
	}()

	ingester := newCookieCaptureRig(t, secret, 41)
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	stats, err := cookieattack.CollectTraceReaders(ingester.attack,
		ingester.victim.RecordPlaintextLen(), []io.Reader{pr}, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if werr := <-writeErr; werr != nil {
		t.Fatal(werr)
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	if stats.Matched != records {
		t.Fatalf("matched %d records, want %d", stats.Matched, records)
	}
	// The evidence tables themselves are ~25 MB and preallocated before
	// the measurement; the ingest path on top must stay O(MB).
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 32<<20 {
		t.Fatalf("heap grew %d MB over a streaming ingest — trace path is not O(MB)", grew>>20)
	}
}

// TestTraceCookieFoldErrorFailsFast pins the fail-fast contract: once a
// fold error latches mid-capture, Ingest stops paying parse cost — the
// error surfaces promptly and Stats.Packets stops advancing instead of
// draining the rest of the capture for evidence that is already lost.
func TestTraceCookieFoldErrorFailsFast(t *testing.T) {
	const n = 200
	const secret = "Secur3C00kieVal+"

	var buf bytes.Buffer
	sw, err := netsim.NewStreamWriter(newPacketWriter(t, &buf, "pcap", trace.LinkTypeEthernet), trace.LinkTypeEthernet)
	if err != nil {
		t.Fatal(err)
	}
	sw.MSS = 200 // several packets per record: plenty of capture after the first match
	writer := newCookieCaptureRig(t, secret, 41)
	if err := writer.victim.WriteTrace(sw, n); err != nil {
		t.Fatal(err)
	}
	wantLen := writer.victim.RecordPlaintextLen()

	// Parse-only pass: the packet count of a full drain.
	full, err := cookieattack.CollectTraceReaders(nil, wantLen,
		[]io.Reader{bytes.NewReader(buf.Bytes())}, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if full.Matched != n {
		t.Fatalf("parse-only pass matched %d records, want %d", full.Matched, n)
	}

	// An attack modeling more plaintext than the capture's records hold:
	// the first matched record latches a fold error.
	long, err := cookieattack.New(cookieattack.Config{
		CookieLen:   16,
		Offset:      40,
		Plaintext:   make([]byte, 2*wantLen),
		CounterBase: 0,
		MaxGap:      64,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := cookieattack.CollectTraceReaders(long, wantLen,
		[]io.Reader{bytes.NewReader(buf.Bytes())}, 0, 0, false)
	if err == nil {
		t.Fatal("fold error mid-capture did not surface from ingest")
	}
	if stats.Packets >= full.Packets {
		t.Fatalf("latched fold error did not stop ingest: %d packets parsed, full drain is %d",
			stats.Packets, full.Packets)
	}
	if long.Records != 0 {
		t.Fatalf("rejected records folded into evidence: Records=%d", long.Records)
	}
}

// TestTraceWrongLinkType pins the "unknown link type" behavior: feeding a
// capture of the wrong shape to either collector is a hard, typed error
// naming the link type — not a silent zero-evidence pass.
func TestTraceWrongLinkType(t *testing.T) {
	model := traceTKIPModel(t)
	session := tkip.DemoSession()

	// An Ethernet capture into the 802.11 pipeline.
	var eth bytes.Buffer
	sw, err := netsim.NewStreamWriter(newPacketWriter(t, &eth, "pcap", trace.LinkTypeEthernet), trace.LinkTypeEthernet)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteStream([]byte("stream bytes")); err != nil {
		t.Fatal(err)
	}
	a := newTraceTKIPAttack(t, model)
	var lte *trace.LinkTypeError
	_, err = tkip.CollectTraceReaders(a, 10, []io.Reader{bytes.NewReader(eth.Bytes())}, 0, 0, false)
	if !errors.As(err, &lte) {
		t.Fatalf("802.11 collector on Ethernet capture: got %v, want LinkTypeError", err)
	}

	// A radiotap capture into the TCP/TLS pipeline.
	var wifi bytes.Buffer
	fw, err := netsim.NewFrameWriter(newPacketWriter(t, &wifi, "pcap", trace.LinkTypeRadiotap), trace.LinkTypeRadiotap, session)
	if err != nil {
		t.Fatal(err)
	}
	victim := netsim.NewWiFiVictim(session, tkip.DemoPayload)
	if err := victim.WriteTrace(fw, 3); err != nil {
		t.Fatal(err)
	}
	rig := newCookieCaptureRig(t, "Secur3C00kieVal+", 41)
	_, err = cookieattack.CollectTraceReaders(rig.attack, rig.victim.RecordPlaintextLen(),
		[]io.Reader{bytes.NewReader(wifi.Bytes())}, 0, 0, false)
	if !errors.As(err, &lte) {
		t.Fatalf("TCP collector on radiotap capture: got %v, want LinkTypeError", err)
	}
}
