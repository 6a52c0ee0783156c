package tkip

import (
	"crypto/cipher"
	"crypto/subtle"
	"runtime"

	"rc4break/internal/dataset"
	"rc4break/internal/rc4"
)

// Encapsulator encrypts one fixed MSDU at many TSCs: the §5.2 victim's
// identical retransmissions. Only the per-packet key and keystream depend
// on the TSC, so the rest is computed once: the plaintext MSDU ‖ MIC ‖ ICV
// and the TK's AES block that MixKey's PRF runs under. Frame is the scalar
// single-frame path; Batch keys rc4.MultiLanes frames at a time through one
// rc4.MultiCipher. Both are bitwise Session.Encapsulate. An Encapsulator is
// not safe for concurrent use.
type Encapsulator struct {
	plain []byte
	block cipher.Block
	ta    [6]byte
	// shards holds one lane batch per Batch shard, reused across calls.
	shards []*laneBatch
}

// Encapsulator prepares the session's encapsulation of msdu. The session's
// keys and addresses are read now; later changes to them are not seen.
func (s *Session) Encapsulator(msdu []byte) *Encapsulator {
	return &Encapsulator{plain: s.plaintext(msdu), block: tkBlock(s.TK), ta: s.TA}
}

// Frame encrypts the MSDU at tsc through a scalar RC4 cipher.
func (e *Encapsulator) Frame(tsc TSC) Frame {
	var key [16]byte
	mixKey(&key, e.block, e.ta, tsc)
	body := make([]byte, len(e.plain))
	rc4.MustNew(key[:]).XORKeyStream(body, e.plain)
	return Frame{TSC: tsc, Body: body}
}

// Batch fills every dst[i].Body with the MSDU encrypted at dst[i].TSC,
// exactly as Encapsulate(msdu, dst[i].TSC) would. A Body that already has
// capacity for the frame is reused, so a caller cycling one dst slice
// allocates nothing per batch; reused bodies must not overlap.
//
// Frames are keyed rc4.MultiLanes at a time; a final partial group pads its
// unused lanes and discards their keystream. Contiguous lane-aligned slices
// of dst fan out over workers (0 = GOMAXPROCS) through dataset.ForShards,
// running inline when one worker suffices. Each frame depends only on its
// TSC, so the output is identical for any worker count.
func (e *Encapsulator) Batch(dst []Frame, workers int) {
	if len(dst) == 0 {
		return
	}
	n := len(e.plain)
	var spare []byte
	for i := range dst {
		if cap(dst[i].Body) < n {
			if len(spare) < n {
				spare = make([]byte, (len(dst)-i)*n)
			}
			dst[i].Body, spare = spare[:n:n], spare[n:]
		}
		dst[i].Body = dst[i].Body[:n]
	}
	groups := (len(dst) + rc4.MultiLanes - 1) / rc4.MultiLanes
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := min(workers, groups)
	for len(e.shards) < shards {
		e.shards = append(e.shards, &laneBatch{})
	}
	_ = dataset.ForShards(shards, shards, func(s int) error {
		lo := s * groups / shards * rc4.MultiLanes
		hi := min((s+1)*groups/shards*rc4.MultiLanes, len(dst))
		e.shards[s].encrypt(e, dst[lo:hi])
		return nil
	})
}

// laneBatch is one shard's keying state: the lane cipher, its keys, and
// scratch output for lanes past the end of a partial group.
type laneBatch struct {
	mc   rc4.MultiCipher
	keys [rc4.MultiLanes][16]byte
	kv   [][]byte
	dsts [][]byte
	pad  []byte
}

// encrypt fills the bodies of frames, rc4.MultiLanes frames per Rekey.
func (b *laneBatch) encrypt(e *Encapsulator, frames []Frame) {
	n := len(e.plain)
	if b.kv == nil {
		b.kv = make([][]byte, rc4.MultiLanes)
		for l := range b.keys {
			b.kv[l] = b.keys[l][:]
		}
		b.dsts = make([][]byte, rc4.MultiLanes)
	}
	for len(frames) > 0 {
		group := frames[:min(rc4.MultiLanes, len(frames))]
		frames = frames[len(group):]
		for l := range b.keys {
			if l < len(group) {
				mixKey(&b.keys[l], e.block, e.ta, group[l].TSC)
				b.dsts[l] = group[l].Body
				continue
			}
			if len(b.pad) != rc4.MultiLanes*n {
				b.pad = make([]byte, rc4.MultiLanes*n)
			}
			b.keys[l] = b.keys[0]
			b.dsts[l] = b.pad[l*n : (l+1)*n]
		}
		if err := b.mc.Rekey(b.kv); err != nil {
			panic("tkip: impossible lane key error: " + err.Error())
		}
		b.mc.Keystream(b.dsts)
		for _, f := range group {
			subtle.XORBytes(f.Body, f.Body, e.plain)
		}
	}
}
