package dataset

import (
	"context"
	"hash/fnv"
	"testing"

	"rc4break/internal/rc4"
)

// digestSink folds every window into an order-insensitive digest: the sum of
// per-window FNV hashes. Summation commutes, so two runs that deliver the
// same multiset of windows — however interleaved across keys or shards —
// produce the same digest, while any single flipped keystream byte changes
// it. That is exactly the Sink ordering contract the batched kernel is
// allowed to relax, and no more.
type digestSink struct {
	sum     uint64
	windows uint64
}

func (d *digestSink) Window(win []byte) {
	h := fnv.New64a()
	h.Write(win)
	d.sum += h.Sum64()
	d.windows++
}

func (d *digestSink) Merge(other Sink) error {
	o, ok := other.(*digestSink)
	if !ok {
		return errIncompatibleSink
	}
	d.sum += o.sum
	d.windows += o.windows
	return nil
}

// TestEngineBackendEquivalence pins the batched kernel against a
// sequential rc4.Cipher pass over the same keys across batch-boundary
// shapes: shards bigger than one lane batch, shards with ragged tails, and
// shards smaller than a single batch (all of it padded), at several worker
// counts. Covers skip, overlap carry, multi-block delivery, and a
// KeyDeriver that folds the key's index into it.
func TestEngineBackendEquivalence(t *testing.T) {
	const lane, first = 7, 1000
	st := Stream{
		Skip:     5,
		Overlap:  2,
		BlockLen: 9,
		Blocks:   4,
		KeyDeriver: func(_, index uint64, key []byte) {
			key[0] = byte(index)
		},
	}
	for _, keys := range []uint64{1, 3, 32, 70, 131} {
		want := &digestSink{}
		src := NewKeySourceAt(st.Master, lane, first)
		key := make([]byte, 16)
		win := make([]byte, st.Overlap+st.BlockLen)
		for k := uint64(0); k < keys; k++ {
			src.NextKey(key)
			st.KeyDeriver(lane, first+k, key)
			c := rc4.MustNew(key)
			c.Skip(st.Skip)
			c.Keystream(win)
			want.Window(win)
			for b := 1; b < st.Blocks; b++ {
				copy(win, win[st.BlockLen:])
				c.Keystream(win[st.Overlap:])
				want.Window(win)
			}
		}
		for _, workers := range pinWorkers {
			sink, err := Engine{Workers: workers}.Run(context.Background(), st,
				SplitKeys(Shard{Lane: lane, FirstKey: first, Keys: keys}, workers),
				func(int) Sink { return &digestSink{} })
			if err != nil {
				t.Fatal(err)
			}
			got := sink.(*digestSink)
			if got.windows != want.windows || got.sum != want.sum {
				t.Fatalf("keys=%d workers=%d: batched digest %d/%x, sequential %d/%x",
					keys, workers, got.windows, got.sum, want.windows, want.sum)
			}
		}
	}
}
