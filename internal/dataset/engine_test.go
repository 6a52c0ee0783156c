package dataset

import (
	"context"
	"sync"
	"testing"

	"rc4break/internal/rc4"
)

// --- sequential references ----------------------------------------------
//
// Each reference is one sequential rc4.Cipher pass over keys 0..n-1 of the
// collector's lane, with its own skip and carry mechanics rather than the
// engine's windows. The pins below hold every collector to its reference
// at several worker counts, so they pin both the batched kernel against
// the per-key Cipher and the result against the worker count.

// pinWorkers are the worker counts every reference pin runs at.
var pinWorkers = []int{1, 2, 3, 7}

// refRun is dataset.Run as one sequential pass.
func refRun(cfg Config, factory func() Observer) Observer {
	obs := factory()
	src := NewKeySourceAt(cfg.Master, runLaneOffset+cfg.LaneOffset, cfg.FirstKey)
	key := make([]byte, 16)
	ks := make([]byte, obs.KeystreamLen())
	for i := uint64(0); i < cfg.Keys; i++ {
		src.NextKey(key)
		rc4.MustNew(key).Keystream(ks)
		obs.Observe(ks)
	}
	return obs
}

// refCollectLongTerm is CollectLongTerm as one sequential pass.
func refCollectLongTerm(master [16]byte, keys, blocks int) *LongTermDigraphs {
	merged := &LongTermDigraphs{}
	src := NewKeySource(master, longTermLaneOffset)
	key := make([]byte, 16)
	buf := make([]byte, 257)
	for k := 0; k < keys; k++ {
		src.NextKey(key)
		c := rc4.MustNew(key)
		c.Skip(1023)
		c.Keystream(buf[:1])
		for b := 0; b < blocks; b++ {
			c.Keystream(buf[1:])
			for r := 0; r < 256; r++ {
				merged.Counts[r*65536+int(buf[r])*256+int(buf[r+1])]++
			}
			merged.Pairs += 256
			buf[0] = buf[256]
		}
	}
	return merged
}

// refCollectLongTermTargeted is CollectLongTermTargeted as one sequential
// pass.
func refCollectLongTermTargeted(master [16]byte, keys, blocks int, cells []LongTermCell) *TargetedLongTerm {
	merged := &TargetedLongTerm{Cells: cells, Counts: make([]uint64, len(cells))}
	src := NewKeySource(master, targetedLaneOffset)
	key := make([]byte, 16)
	buf := make([]byte, 257)
	for k := 0; k < keys; k++ {
		src.NextKey(key)
		c := rc4.MustNew(key)
		c.Skip(1023)
		c.Keystream(buf[:1])
		for b := 0; b < blocks; b++ {
			c.Keystream(buf[1:])
			for r := 0; r < 256; r++ {
				x, y := buf[r], buf[r+1]
				for ci := range cells {
					cell := &cells[ci]
					if cell.I >= 0 && cell.I != r {
						continue
					}
					cx, cy := cell.X, cell.Y
					if cell.XPlusI {
						cx += byte(r)
					}
					if cell.YPlusI {
						cy += byte(r)
					}
					if x == cx && y == cy {
						merged.Counts[ci]++
					}
				}
			}
			merged.Pairs += 256
			buf[0] = buf[256]
		}
	}
	merged.PerI = merged.Pairs / 256
	return merged
}

// --- equivalence tests ---------------------------------------------------

func TestRunMatchesPreEngineLoop(t *testing.T) {
	master := [16]byte{0x11, 0x22}
	want := refRun(Config{Keys: 500, Master: master}, func() Observer { return NewSingleByteCounts(16) }).(*SingleByteCounts)
	for _, workers := range pinWorkers {
		got, err := Run(Config{Keys: 500, Workers: workers, Master: master}, func() Observer { return NewSingleByteCounts(16) })
		if err != nil {
			t.Fatal(err)
		}
		g := got.(*SingleByteCounts)
		if g.Keys != want.Keys {
			t.Fatalf("workers=%d: keys %d vs %d", workers, g.Keys, want.Keys)
		}
		if !equalCounts(g.Counts, want.Counts) {
			t.Fatalf("workers=%d: counts diverge from the sequential pass", workers)
		}
	}
}

// TestRunSplitMatchesWhole pins key ranges: Run over [0,a) merged with Run
// over [a,n) is Run over [0,n), for splits inside and across kernel
// batches, at any worker count.
func TestRunSplitMatchesWhole(t *testing.T) {
	const n = 300
	master := [16]byte{0x5a}
	gen := func(first, keys uint64, workers int) *SingleByteCounts {
		obs, err := Run(Config{Keys: keys, FirstKey: first, Workers: workers, Master: master, LaneOffset: 3},
			func() Observer { return NewSingleByteCounts(8) })
		if err != nil {
			t.Fatal(err)
		}
		return obs.(*SingleByteCounts)
	}
	whole := gen(0, n, 1)
	if ref := refRun(Config{Keys: n, Master: master, LaneOffset: 3}, func() Observer { return NewSingleByteCounts(8) }); !equalCounts(whole.Counts, ref.(*SingleByteCounts).Counts) {
		t.Fatal("whole run diverges from the sequential pass")
	}
	for _, a := range []uint64{1, 31, 32, 33, 150, 299} {
		for _, workers := range pinWorkers {
			head := gen(0, a, workers)
			if err := head.Merge(gen(a, n-a, workers)); err != nil {
				t.Fatal(err)
			}
			if head.Keys != whole.Keys || !equalCounts(head.Counts, whole.Counts) {
				t.Fatalf("split at %d, workers=%d: merged ranges differ from the whole run", a, workers)
			}
		}
	}
}

// TestRunKeyDeriverMatchesPreEngineLoop pins the deriver's view of a key:
// at any worker count it sees every (lane, index) of the range exactly
// once, with the key the sequential KeySource draws at that index.
func TestRunKeyDeriverMatchesPreEngineLoop(t *testing.T) {
	const lane, first, keys = 11, 40, 100
	master := [16]byte{0x77}
	want := make(map[uint64][16]byte)
	src := NewKeySourceAt(master, lane, first)
	for i := uint64(0); i < keys; i++ {
		var k [16]byte
		src.NextKey(k[:])
		want[first+i] = k
	}
	for _, workers := range pinWorkers {
		var mu sync.Mutex
		got := make(map[uint64][16]byte)
		_, err := Engine{Workers: workers}.Run(context.Background(), Stream{
			Master:   master,
			BlockLen: 1,
			KeyDeriver: func(l, index uint64, key []byte) {
				if l != lane {
					t.Errorf("deriver saw lane %d", l)
				}
				mu.Lock()
				defer mu.Unlock()
				if _, dup := got[index]; dup {
					t.Errorf("index %d derived twice", index)
				}
				got[index] = [16]byte(key)
			},
		}, SplitKeys(Shard{Lane: lane, FirstKey: first, Keys: keys}, workers),
			func(int) Sink { return observerSink{NewSingleByteCounts(1)} })
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d keys derived, want %d", workers, len(got), len(want))
		}
		for i, k := range want {
			if got[i] != k {
				t.Fatalf("workers=%d: key %d differs from the sequential draw", workers, i)
			}
		}
	}
}

func TestCollectLongTermMatchesPreEngineLoop(t *testing.T) {
	// Every shard holds a 128 MB table, so three keys cap a run at three.
	master := [16]byte{0xab}
	want := refCollectLongTerm(master, 3, 8)
	for _, workers := range pinWorkers {
		got, err := CollectLongTerm(context.Background(), master, 3, 8, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got.Pairs != want.Pairs {
			t.Fatalf("workers=%d: pairs %d vs %d", workers, got.Pairs, want.Pairs)
		}
		for i := range got.Counts {
			if got.Counts[i] != want.Counts[i] {
				t.Fatalf("workers=%d: counts diverge at %d", workers, i)
			}
		}
	}
}

func TestCollectLongTermTargetedMatchesPreEngineLoop(t *testing.T) {
	master := [16]byte{0xcd}
	cells := []LongTermCell{
		{I: -1, X: 0, Y: 0},
		{I: 3, X: 255, Y: 255},
		{I: -1, X: 0, Y: 1, YPlusI: true},
	}
	want := refCollectLongTermTargeted(master, 6, 8, cells)
	for _, workers := range pinWorkers {
		got, err := CollectLongTermTargeted(context.Background(), master, 6, 8, workers, cells)
		if err != nil {
			t.Fatal(err)
		}
		if got.Pairs != want.Pairs || got.PerI != want.PerI {
			t.Fatalf("workers=%d: pairs %d/%d vs %d/%d", workers, got.Pairs, got.PerI, want.Pairs, want.PerI)
		}
		for i := range got.Counts {
			if got.Counts[i] != want.Counts[i] {
				t.Fatalf("workers=%d: cell %d: %d vs %d", workers, i, got.Counts[i], want.Counts[i])
			}
		}
	}
}

// TestCollectLongTermZeroKeys is the regression test for the pre-Engine
// panic: workers were clamped to the key count, so zero keys indexed
// results[0] out of range.
func TestCollectLongTermZeroKeys(t *testing.T) {
	lt, err := CollectLongTerm(context.Background(), [16]byte{1}, 0, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if lt == nil || lt.Pairs != 0 {
		t.Fatalf("want empty result, got %+v", lt)
	}
	tt, err := CollectLongTermTargeted(context.Background(), [16]byte{1}, 0, 16, 4, []LongTermCell{{I: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if tt == nil || tt.Pairs != 0 || len(tt.Counts) != 1 {
		t.Fatalf("want empty result, got %+v", tt)
	}
	// Zero blocks must also yield an empty result, matching the pre-Engine
	// loops (whose block loop simply never ran).
	lt, err = CollectLongTerm(context.Background(), [16]byte{1}, 4, 0, 2)
	if err != nil || lt.Pairs != 0 {
		t.Fatalf("zero blocks: pairs %d err %v", lt.Pairs, err)
	}
}

// --- engine behavior tests ----------------------------------------------

func TestSplitKeys(t *testing.T) {
	shards := SplitKeys(Shard{Lane: 100, FirstKey: 5, Keys: 10}, 4)
	if len(shards) != 4 {
		t.Fatalf("%d shards", len(shards))
	}
	var total uint64
	next := uint64(5)
	for w, sh := range shards {
		if sh.Lane != 100 {
			t.Errorf("shard %d lane %d, want the range's lane 100", w, sh.Lane)
		}
		if sh.FirstKey != next {
			t.Errorf("shard %d first key %d, want %d", w, sh.FirstKey, next)
		}
		next += sh.Keys
		total += sh.Keys
	}
	if total != 10 {
		t.Errorf("total %d", total)
	}
	// First keys%workers shards get the extra key.
	if shards[0].Keys != 3 || shards[1].Keys != 3 || shards[2].Keys != 2 || shards[3].Keys != 2 {
		t.Errorf("split %v", shards)
	}
	// Workers clamp to the key count.
	if got := SplitKeys(Shard{Keys: 2}, 8); len(got) != 2 {
		t.Errorf("clamp: %d shards", len(got))
	}
	if got := SplitKeys(Shard{}, 8); got != nil {
		t.Errorf("zero keys: %v", got)
	}
}

func TestEngineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Engine{}.Run(ctx, Stream{BlockLen: 8}, SplitKeys(Shard{Keys: 100}, 2),
		func(int) Sink { return observerSink{NewSingleByteCounts(8)} })
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestEngineProgress(t *testing.T) {
	var mu sync.Mutex
	var calls []uint64
	ctx := WithProgress(context.Background(), func(done, total uint64) {
		mu.Lock()
		defer mu.Unlock()
		if total != 50 {
			t.Errorf("total = %d, want 50", total)
		}
		calls = append(calls, done)
	})
	_, err := Engine{Workers: 2}.Run(ctx, Stream{BlockLen: 4}, SplitKeys(Shard{Keys: 50}, 2),
		func(int) Sink { return observerSink{NewSingleByteCounts(4)} })
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) == 0 {
		t.Fatal("progress callback never fired")
	}
	if calls[len(calls)-1] != 50 {
		t.Errorf("final progress %d, want 50", calls[len(calls)-1])
	}
}

func TestEngineValidation(t *testing.T) {
	sink := func(int) Sink { return observerSink{NewSingleByteCounts(1)} }
	shards := SplitKeys(Shard{Keys: 4}, 2)
	if _, err := (Engine{}).Run(context.Background(), Stream{BlockLen: -1}, shards, sink); err == nil {
		t.Error("negative block length accepted")
	}
	if _, err := (Engine{}).Run(context.Background(), Stream{BlockLen: 1, Skip: -1}, shards, sink); err == nil {
		t.Error("negative skip accepted")
	}
	got, err := (Engine{}).Run(context.Background(), Stream{BlockLen: 1}, nil, sink)
	if err != nil || got != nil {
		t.Errorf("empty shards: sink %v err %v", got, err)
	}
}

// TestEngineOverlapCarry checks the windowing contract directly: with
// Overlap = 2, each window's first two bytes must equal the previous
// window's last two, and the concatenated fresh parts must equal the
// underlying keystream.
func TestEngineOverlapCarry(t *testing.T) {
	const overlap, blockLen, blocks = 2, 16, 5
	var wins [][]byte
	collector := collectSink{wins: &wins}
	_, err := Engine{Workers: 1}.Run(context.Background(), Stream{
		Skip: 7, Overlap: overlap, BlockLen: blockLen, Blocks: blocks,
	}, SplitKeys(Shard{Lane: 42, Keys: 1}, 1), func(int) Sink { return collector })
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != blocks {
		t.Fatalf("%d windows, want %d", len(wins), blocks)
	}
	// Rebuild the expected keystream with the plain cipher.
	src := NewKeySource([16]byte{}, 42)
	key := make([]byte, 16)
	src.NextKey(key)
	c := rc4.MustNew(key)
	c.Skip(7)
	want := make([]byte, overlap+blocks*blockLen)
	c.Keystream(want)
	for b, win := range wins {
		if len(win) != overlap+blockLen {
			t.Fatalf("window %d has %d bytes", b, len(win))
		}
		expect := want[b*blockLen : b*blockLen+overlap+blockLen]
		for i := range win {
			if win[i] != expect[i] {
				t.Fatalf("window %d byte %d: %#x want %#x", b, i, win[i], expect[i])
			}
		}
	}
}

// collectSink snapshots every delivered window.
type collectSink struct{ wins *[][]byte }

func (c collectSink) Window(win []byte) {
	*c.wins = append(*c.wins, append([]byte(nil), win...))
}

func (c collectSink) Merge(other Sink) error { return nil }
