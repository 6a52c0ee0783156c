// Package dataset implements the keystream-statistics generation pipeline of
// §3.2: workers derive random 128-bit RC4 keys from AES in counter mode,
// generate keystreams, and fold them into mergeable counter structures. The
// paper ran this across ~80 machines for CPU-years; here the same design
// runs across goroutines with configurable key counts, so every experiment
// can be reproduced at laptop scale and scaled up by flag.
//
// The counters follow the paper's overflow design: workers accumulate into
// compact per-worker arrays and the driver merges them into shared uint64
// totals, which keeps the hot loop cache-friendly.
package dataset

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
)

// KeySource deterministically derives RC4 keys from a master AES-128 key in
// counter mode, mirroring the paper's worker start-up ("each worker
// generates a cryptographically random AES key. Random 128-bit RC4 keys are
// derived from this key using AES in counter mode"). A given (master, lane)
// pair always yields the same key sequence, which makes every dataset in
// this repository exactly reproducible.
//
// The counter block is lane‖index (two big-endian uint64s), and a 16-byte
// key is exactly one AES block, so key k of a lane is the encryption of
// lane‖k. A key's identity is therefore its absolute (lane, index) pair:
// NewKeySourceAt starts a lane at any index in O(1), and the keys it draws
// equal those of a source that drew and discarded the first index keys.
type KeySource struct {
	stream cipher.Stream
	buf    []byte
}

// NewKeySource creates a key source at the start of the given lane. Each
// lane gets a disjoint counter-mode keystream by seeding the IV with the
// lane number.
func NewKeySource(master [16]byte, lane uint64) *KeySource {
	return NewKeySourceAt(master, lane, 0)
}

// NewKeySourceAt creates a key source whose next 16-byte key is key index
// first of the given lane.
func NewKeySourceAt(master [16]byte, lane, first uint64) *KeySource {
	block, err := aes.NewCipher(master[:])
	if err != nil {
		// aes.NewCipher only fails on bad key sizes; [16]byte cannot be one.
		panic("dataset: impossible AES key error: " + err.Error())
	}
	var iv [aes.BlockSize]byte
	binary.BigEndian.PutUint64(iv[:8], lane)
	binary.BigEndian.PutUint64(iv[8:], first)
	return &KeySource{stream: cipher.NewCTR(block, iv[:])}
}

// NextKey fills key with the next derived RC4 key bytes.
func (ks *KeySource) NextKey(key []byte) {
	if cap(ks.buf) < len(key) {
		ks.buf = make([]byte, len(key))
	}
	b := ks.buf[:len(key)]
	for i := range b {
		b[i] = 0
	}
	ks.stream.XORKeyStream(key, b)
}
