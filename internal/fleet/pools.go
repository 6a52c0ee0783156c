package fleet

import (
	"bytes"
	"errors"
	"fmt"

	"rc4break/internal/cookieattack"
	"rc4break/internal/recovery"
	"rc4break/internal/snapshot"
	"rc4break/internal/tkip"
)

// CookiePool adapts a cookieattack evidence pool to the coordinator. Lane
// uploads are cookieattack snapshots and must carry the pool's request
// layout fingerprint — the same compatibility contract as rc4attack's
// -merge.
type CookiePool struct {
	Attack *cookieattack.Attack
}

// Observed implements Pool.
func (p *CookiePool) Observed() uint64 { return p.Attack.Observed() }

// Decode implements Pool.
func (p *CookiePool) Decode(max int) (recovery.CandidateSource, error) { return p.Attack.Decode(max) }

// Validate implements Pool: decode the lane snapshot and apply the -merge
// compatibility checks plus the lane identity the lease pinned.
func (p *CookiePool) Validate(snap []byte, want snapshot.StreamInfo, records uint64) (Shard, error) {
	shard, err := cookieattack.ReadSnapshot(bytes.NewReader(snap))
	if err != nil {
		return nil, err
	}
	if shard.Fingerprint() != p.Attack.Fingerprint() {
		return nil, errors.New("captured against a different request layout (fingerprint mismatch)")
	}
	if shard.Stream != want {
		return nil, fmt.Errorf("snapshot stream %s/seed %d/lane %d does not match the lease",
			shard.Stream.Mode, shard.Stream.Seed, shard.Stream.Lane)
	}
	if shard.Records != records {
		return nil, fmt.Errorf("snapshot holds %d records, lease specified %d", shard.Records, records)
	}
	return shard, nil
}

// Merge implements Pool.
func (p *CookiePool) Merge(s Shard) error { return p.Attack.Merge(s.(*cookieattack.Attack)) }

// WriteSnapshotFile implements Pool.
func (p *CookiePool) WriteSnapshotFile(path string) error { return p.Attack.WriteSnapshotFile(path) }

// TKIPPool adapts a tkip capture pool to the coordinator. Lane uploads are
// tkip attack snapshots and must have been captured against the pool's
// trained model (fingerprint-checked on decode).
type TKIPPool struct {
	Attack *tkip.Attack
	Model  *tkip.PerTSCModel
}

// Observed implements Pool.
func (p *TKIPPool) Observed() uint64 { return p.Attack.Observed() }

// Decode implements Pool.
func (p *TKIPPool) Decode(max int) (recovery.CandidateSource, error) { return p.Attack.Decode(max) }

// Validate implements Pool.
func (p *TKIPPool) Validate(snap []byte, want snapshot.StreamInfo, records uint64) (Shard, error) {
	shard, err := tkip.ReadAttackSnapshot(bytes.NewReader(snap), p.Model)
	if err != nil {
		return nil, err
	}
	if shard.Stream != want {
		return nil, fmt.Errorf("snapshot stream %s/seed %d/lane %d does not match the lease",
			shard.Stream.Mode, shard.Stream.Seed, shard.Stream.Lane)
	}
	if shard.Frames != records {
		return nil, fmt.Errorf("snapshot holds %d frames, lease specified %d", shard.Frames, records)
	}
	return shard, nil
}

// Merge implements Pool.
func (p *TKIPPool) Merge(s Shard) error { return p.Attack.Merge(s.(*tkip.Attack)) }

// WriteSnapshotFile implements Pool.
func (p *TKIPPool) WriteSnapshotFile(path string) error { return p.Attack.WriteSnapshotFile(path) }
