package rc4

import "testing"

func TestBackendResolve(t *testing.T) {
	for _, b := range []Backend{BackendAuto, BackendMulti} {
		if got, err := b.Resolve(); err != nil || got != BackendMulti {
			t.Errorf("%v resolved to %v, %v; want multi", b, got, err)
		}
	}
}

func TestBackendString(t *testing.T) {
	for b, want := range map[Backend]string{
		BackendAuto: "auto", BackendMulti: "multi", Backend(9): "Backend(9)",
	} {
		if got := b.String(); got != want {
			t.Errorf("Backend(%d).String() = %q, want %q", int(b), got, want)
		}
	}
}
