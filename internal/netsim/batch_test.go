package netsim

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"rc4break/internal/tkip"
	"rc4break/internal/trace"
)

// TestTransmitBatchMatchesTransmit pins the victim's batch call against
// its scalar path and the session's reference encapsulation: every batch
// length (one frame, a partial lane group, a group and a lane, many groups
// plus a tail), every worker count, from a fresh victim and after Skip,
// must yield exactly the frames the same number of Transmit calls would,
// and leave the victim where those calls would.
func TestTransmitBatchMatchesTransmit(t *testing.T) {
	s := testTKIPSession()
	for _, skip := range []uint64{0, 1000} {
		for _, n := range []int{1, 31, 33, 2048 + 5} {
			for workers := 1; workers <= 4; workers++ {
				t.Run(fmt.Sprintf("skip=%d/n=%d/workers=%d", skip, n, workers), func(t *testing.T) {
					batched := NewWiFiVictim(s, []byte("PAYLOAD"))
					scalar := NewWiFiVictim(s, []byte("PAYLOAD"))
					batched.Skip(skip)
					scalar.Skip(skip)
					dst := make([]tkip.Frame, n)
					for round := 0; round < 2; round++ {
						batched.TransmitBatch(dst, workers)
						for i, got := range dst {
							want := scalar.Transmit()
							if got.TSC != want.TSC || !bytes.Equal(got.Body, want.Body) {
								t.Fatalf("round %d frame %d: batch (TSC %#x) differs from Transmit (TSC %#x)",
									round, i, got.TSC, want.TSC)
							}
							if ref := s.Encapsulate(scalar.MSDU, want.TSC); !bytes.Equal(want.Body, ref.Body) {
								t.Fatalf("round %d frame %d: Transmit differs from Encapsulate", round, i)
							}
						}
					}
					if got, want := batched.Transmit(), scalar.Transmit(); got.TSC != want.TSC {
						t.Fatalf("after the batches the victim is at TSC %#x, want %#x", got.TSC, want.TSC)
					}
				})
			}
		}
	}
}

// TestSnifferMatchesTraceDedup feeds one frame sequence to the in-process
// sniffer and, as a capture, to trace ingest: both must make the same
// accept/drop decisions, so their counts and folded evidence agree. The
// sequence holds immediate retries, late retransmissions still inside the
// de-dup window, foreign-length frames, and re-appearances of TSCs after
// more than 2^16 acceptances (accepted again) and within them (dropped).
func TestSnifferMatchesTraceDedup(t *testing.T) {
	const n = 1<<16 + 3
	s := testTKIPSession()
	v := NewWiFiVictim(s, []byte("PAYLOAD"))
	sent := make([]tkip.Frame, n)
	v.TransmitBatch(sent, 0)
	foreign := tkip.Frame{TSC: 0xBEEF << 16, Body: make([]byte, v.FrameLen()+3)}
	var seq []tkip.Frame
	for i, f := range sent {
		seq = append(seq, f)
		if i%97 == 0 {
			seq = append(seq, f)
		}
		if i%1001 == 0 && i >= 500 {
			seq = append(seq, sent[i-500])
		}
		if i%5000 == 0 {
			seq = append(seq, foreign)
		}
	}
	// Frames 0..2 left the window; 4 is still in it. Re-accepting 0 evicts
	// 3, which is then accepted again too.
	seq = append(seq, sent[0], sent[4], sent[3], sent[n-1])

	positions := tkip.TrailerPositions(len(v.MSDU))
	model := tkip.SyntheticModel(positions[len(positions)-1], 1.0/512, 1)
	direct, err := tkip.NewAttack(model, positions)
	if err != nil {
		t.Fatal(err)
	}
	sn := NewSniffer(v.FrameLen())
	var buf bytes.Buffer
	pw, err := trace.NewPcapWriter(&buf, trace.LinkTypeRadiotap)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := NewFrameWriter(pw, trace.LinkTypeRadiotap, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range seq {
		if sn.Filter(f) {
			direct.Observe(f)
		}
		if err := fw.WriteFrame(uint64(f.TSC), f.Body); err != nil {
			t.Fatal(err)
		}
	}
	if want := uint64(n + 2); sn.Captured != want {
		t.Fatalf("sniffer captured %d frames, want %d", sn.Captured, want)
	}

	ingested, err := tkip.NewAttack(model, positions)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := tkip.CollectTraceReaders(ingested, v.FrameLen(), []io.Reader{&buf}, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Matched != sn.Captured || stats.Duplicates+stats.OtherLength != sn.Dropped {
		t.Fatalf("trace ingest matched %d, dropped %d+%d; sniffer captured %d, dropped %d",
			stats.Matched, stats.Duplicates, stats.OtherLength, sn.Captured, sn.Dropped)
	}
	var a, b bytes.Buffer
	if err := direct.WriteSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := ingested.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("sniffer and trace ingest folded different frames")
	}
}
