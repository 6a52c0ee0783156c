package tkip

// DemoSession returns the fixed demonstration session the attack tooling
// shares: cmd/rc4attack's TKIP victim and cmd/fleetd's coordinator must
// agree on every byte of it — the coordinator's trailer oracle and
// exact-mode workers' victim streams both derive from it, and a one-byte
// drift between two copies would silently poison a fleet's pooled evidence
// rather than fail any fingerprint check. Call this; do not copy the
// literals.
func DemoSession() *Session {
	return &Session{
		TK:     [16]byte{0x10, 0x21, 0x32, 0x43, 0x54, 0x65, 0x76, 0x87, 0x98, 0xa9, 0xba, 0xcb, 0xdc, 0xed, 0xfe, 0x0f},
		MICKey: [8]byte{0xc0, 0xff, 0xee, 0x15, 0x90, 0x0d, 0xf0, 0x0d},
		TA:     [6]byte{0x00, 0x0c, 0x41, 0x82, 0xb2, 0x55},
		DA:     [6]byte{0x00, 0x1e, 0x58, 0xaa, 0xbb, 0xcc},
		SA:     [6]byte{0x00, 0x22, 0xfb, 0x11, 0x22, 0x33},
	}
}

// DemoPayload is the injected packet's TCP payload in the demo setup (the
// paper's preferred 7-byte payload, §5.2) — shared for the same reason as
// DemoSession: the frame length it implies is part of the capture stream's
// identity.
var DemoPayload = []byte("PAYLOAD")
