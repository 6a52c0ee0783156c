package rc4

import "testing"

func TestParseBackend(t *testing.T) {
	cases := []struct {
		name string
		want Backend
		ok   bool
	}{
		{"", BackendAuto, true},
		{"auto", BackendAuto, true},
		{"scalar", BackendScalar, true},
		{"multi", BackendMulti, true},
		{"soa", 0, false},
		{"Multi", 0, false},
		{"avx2", 0, false},
	}
	for _, c := range cases {
		got, err := ParseBackend(c.name)
		if c.ok != (err == nil) {
			t.Errorf("ParseBackend(%q) err = %v, want ok=%v", c.name, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseBackend(%q) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestBackendResolve(t *testing.T) {
	t.Setenv(BackendEnv, "")
	if got, err := BackendScalar.Resolve(); err != nil || got != BackendScalar {
		t.Errorf("explicit scalar resolved to %v, %v", got, err)
	}
	if got, err := BackendAuto.Resolve(); err != nil || got != defaultBackend {
		t.Errorf("auto resolved to %v, %v; want compile-time default %v", got, err, defaultBackend)
	}

	t.Setenv(BackendEnv, "scalar")
	if got, err := BackendAuto.Resolve(); err != nil || got != BackendScalar {
		t.Errorf("auto with RC4_BACKEND=scalar resolved to %v, %v", got, err)
	}
	// An explicit choice beats the environment.
	if got, err := BackendMulti.Resolve(); err != nil || got != BackendMulti {
		t.Errorf("explicit multi with RC4_BACKEND=scalar resolved to %v, %v", got, err)
	}

	t.Setenv(BackendEnv, "multi")
	if got, err := BackendAuto.Resolve(); err != nil || got != BackendMulti {
		t.Errorf("auto with RC4_BACKEND=multi resolved to %v, %v", got, err)
	}

	t.Setenv(BackendEnv, "vliw")
	if _, err := BackendAuto.Resolve(); err == nil {
		t.Error("invalid RC4_BACKEND value did not error")
	}
}

func TestBackendString(t *testing.T) {
	for b, want := range map[Backend]string{
		BackendAuto: "auto", BackendScalar: "scalar", BackendMulti: "multi", Backend(9): "Backend(9)",
	} {
		if got := b.String(); got != want {
			t.Errorf("Backend(%d).String() = %q, want %q", int(b), got, want)
		}
	}
}
