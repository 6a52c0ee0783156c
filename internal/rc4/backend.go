package rc4

import "fmt"

// Backend names the keystream kernel family batch consumers run on. There
// is one: the batched MultiCipher kernel, which steps MultiLanes
// independent states in lockstep. Cipher stays as the per-key reference it
// is held to byte for byte (FuzzKeystreamBackends and the dataset pins).
type Backend int

const (
	// BackendAuto is the default choice; it resolves to BackendMulti.
	BackendAuto Backend = iota
	// BackendMulti is the batched multi-state kernel.
	BackendMulti
)

func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendMulti:
		return "multi"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// Resolve returns the kernel family b runs on: always BackendMulti.
func (b Backend) Resolve() (Backend, error) {
	return BackendMulti, nil
}
