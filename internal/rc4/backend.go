package rc4

import (
	"fmt"
	"os"
)

// Backend names a keystream kernel family for batch consumers (the dataset
// engine's shard workers). The scalar backend runs one Cipher per key with
// the unrolled fused skip+generate kernel; the multi backend drives
// MultiLanes independent states in lockstep through MultiCipher. Outputs are
// bitwise identical — the choice is purely a throughput/footprint trade, and
// the cross-backend tests and FuzzKeystreamBackends hold the two families to
// byte equality.
type Backend int

const (
	// BackendAuto defers the choice to Resolve: the RC4_BACKEND
	// environment variable if set, else the compile-time default
	// (BackendMulti, or BackendScalar under the rc4_purego build tag).
	BackendAuto Backend = iota
	// BackendScalar forces the per-key scalar Cipher path.
	BackendScalar
	// BackendMulti forces the batched multi-state path.
	BackendMulti
)

// BackendEnv is the environment variable Resolve consults when the backend
// is BackendAuto. Recognized values: "scalar", "multi", and "" / "auto" for
// the compile-time default.
const BackendEnv = "RC4_BACKEND"

func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendScalar:
		return "scalar"
	case BackendMulti:
		return "multi"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// ParseBackend maps a backend name to its Backend.
func ParseBackend(name string) (Backend, error) {
	switch name {
	case "", "auto":
		return BackendAuto, nil
	case "scalar":
		return BackendScalar, nil
	case "multi":
		return BackendMulti, nil
	}
	return BackendAuto, fmt.Errorf("rc4: unknown backend %q (want auto, scalar or multi)", name)
}

// Resolve turns a possibly-auto Backend into a concrete one: an explicit
// choice resolves to itself; BackendAuto consults RC4_BACKEND and falls back
// to the compile-time default. An unparseable RC4_BACKEND value is an error
// rather than a silent fallback — a benchmark or CI matrix leg that thinks
// it forced a backend must never quietly measure the wrong one.
func (b Backend) Resolve() (Backend, error) {
	if b != BackendAuto {
		return b, nil
	}
	env, err := ParseBackend(os.Getenv(BackendEnv))
	if err != nil {
		return BackendAuto, err
	}
	if env != BackendAuto {
		return env, nil
	}
	return defaultBackend, nil
}
