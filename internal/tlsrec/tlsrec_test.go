package tlsrec

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha1"
	"encoding/binary"
	"testing"
	"testing/quick"

	"rc4break/internal/rc4"
)

func testConns(t *testing.T) (send, recv *Conn) {
	t.Helper()
	master := make([]byte, MasterSecretSize)
	for i := range master {
		master[i] = byte(i * 7)
	}
	var cr, sr [32]byte
	cr[0], sr[0] = 1, 2
	client, _, err := DeriveKeys(master, cr, sr)
	if err != nil {
		t.Fatal(err)
	}
	return NewConn(client), NewConn(client)
}

func TestPRFDeterministicAndLength(t *testing.T) {
	secret := []byte("secret")
	a := PRF(secret, "label", []byte("seed"), 100)
	b := PRF(secret, "label", []byte("seed"), 100)
	if !bytes.Equal(a, b) {
		t.Fatal("PRF not deterministic")
	}
	if len(a) != 100 {
		t.Fatalf("length %d", len(a))
	}
	c := PRF(secret, "label2", []byte("seed"), 100)
	if bytes.Equal(a, c) {
		t.Fatal("different labels gave identical output")
	}
	// Prefix property: shorter request is a prefix of longer.
	d := PRF(secret, "label", []byte("seed"), 40)
	if !bytes.Equal(a[:40], d) {
		t.Fatal("PRF prefix property violated")
	}
}

func TestDeriveKeys(t *testing.T) {
	master := make([]byte, MasterSecretSize)
	var cr, sr [32]byte
	client, server, err := DeriveKeys(master, cr, sr)
	if err != nil {
		t.Fatal(err)
	}
	if client == server {
		t.Fatal("client and server key blocks identical")
	}
	if _, _, err := DeriveKeys(master[:47], cr, sr); err == nil {
		t.Fatal("short master secret accepted")
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	send, recv := testConns(t)
	for i := 0; i < 20; i++ {
		payload := []byte("GET / HTTP/1.1\r\nCookie: auth=secret\r\n\r\n")
		rec := send.Seal(payload)
		got, err := recv.Open(rec)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("record %d: corrupted payload", i)
		}
	}
	if send.Seq() != 20 || recv.Seq() != 20 {
		t.Fatalf("sequence numbers %d/%d", send.Seq(), recv.Seq())
	}
}

func TestRecordLayout(t *testing.T) {
	send, _ := testConns(t)
	payload := []byte("hello")
	rec := send.Seal(payload)
	if rec[0] != TypeApplicationData {
		t.Error("wrong record type")
	}
	if rec[1] != 0x03 || rec[2] != 0x03 {
		t.Error("wrong version")
	}
	wantLen := len(payload) + MACSize
	if int(rec[3])<<8|int(rec[4]) != wantLen {
		t.Error("wrong length field")
	}
	if len(rec) != HeaderSize+wantLen {
		t.Error("wrong total size")
	}
	// Ciphertext must differ from plaintext.
	if bytes.Contains(rec, payload) {
		t.Error("payload visible in record")
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	send, recv := testConns(t)
	rec := send.Seal([]byte("payload payload"))
	rec[HeaderSize] ^= 1
	if _, err := recv.Open(rec); err != ErrMAC {
		t.Fatalf("err = %v, want ErrMAC", err)
	}
}

func TestOpenRejectsMalformed(t *testing.T) {
	_, recv := testConns(t)
	if _, err := recv.Open([]byte{1, 2, 3}); err != ErrRecord {
		t.Error("short record accepted")
	}
	send, recv2 := testConns(t)
	rec := send.Seal([]byte("x"))
	rec[0] = 22 // handshake type
	if _, err := recv2.Open(rec); err != ErrRecord {
		t.Error("wrong type accepted")
	}
	rec[0] = TypeApplicationData
	rec[3] = 0xff // corrupt length
	if _, err := recv2.Open(rec); err != ErrRecord {
		t.Error("bad length accepted")
	}
}

func TestOpenRejectsReplay(t *testing.T) {
	// Replaying a record desynchronizes both the RC4 state and the
	// sequence number; Open must fail.
	send, recv := testConns(t)
	rec := send.Seal([]byte("first"))
	if _, err := recv.Open(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := recv.Open(rec); err == nil {
		t.Fatal("replayed record accepted")
	}
}

func TestOutOfOrderFails(t *testing.T) {
	send, recv := testConns(t)
	r1 := send.Seal([]byte("one"))
	r2 := send.Seal([]byte("two"))
	if _, err := recv.Open(r2); err == nil {
		t.Fatal("out-of-order record accepted")
	}
	_ = r1
}

func TestPersistentConnectionKeystreamContinuity(t *testing.T) {
	// §2.3: on a persistent connection RC4 is initialized once, so the
	// keystream position of record k's payload is deterministic — the
	// alignment the §6 attack depends on. Verify that byte offsets accumulate
	// exactly.
	send, _ := testConns(t)
	total := 0
	for i := 0; i < 5; i++ {
		p := bytes.Repeat([]byte{'a'}, 100)
		rec := send.Seal(p)
		total += len(rec) - HeaderSize
	}
	if total != 5*(100+MACSize) {
		t.Fatalf("keystream consumed %d", total)
	}
}

func TestSealDeterministicGivenState(t *testing.T) {
	f := func(payload []byte) bool {
		if len(payload) > 1000 {
			payload = payload[:1000]
		}
		a, b := testConnsQuick()
		ra := a.Seal(payload)
		rb := b.Seal(payload)
		return bytes.Equal(ra, rb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestSealMatchesFreshHMAC pins the connection's reused, per-record Reset
// HMAC against a reference that keys a fresh hmac.New for every record:
// 1200 records of varying length must seal to identical wire bytes, and
// Open must accept every one of them.
func TestSealMatchesFreshHMAC(t *testing.T) {
	var kb KeyBlock
	for i := range kb.MACKey {
		kb.MACKey[i] = byte(3*i + 1)
	}
	for i := range kb.Key {
		kb.Key[i] = byte(5*i + 2)
	}
	send, recv := NewConn(kb), NewConn(kb)
	ref := rc4.MustNew(kb.Key[:])
	for seq := uint64(0); seq < 1200; seq++ {
		payload := bytes.Repeat([]byte{byte(seq)}, int(seq*37%700))
		mac := hmac.New(sha1.New, kb.MACKey[:])
		var pre [13]byte
		binary.BigEndian.PutUint64(pre[0:8], seq)
		pre[8] = TypeApplicationData
		binary.BigEndian.PutUint16(pre[9:11], VersionTLS12)
		binary.BigEndian.PutUint16(pre[11:13], uint16(len(payload)))
		mac.Write(pre[:])
		mac.Write(payload)
		inner := mac.Sum(append([]byte(nil), payload...))
		want := make([]byte, HeaderSize+len(inner))
		want[0] = TypeApplicationData
		binary.BigEndian.PutUint16(want[1:3], VersionTLS12)
		binary.BigEndian.PutUint16(want[3:5], uint16(len(inner)))
		ref.XORKeyStream(want[HeaderSize:], inner)

		rec := send.Seal(payload)
		if !bytes.Equal(rec, want) {
			t.Fatalf("record %d: Seal differs from the fresh-HMAC reference", seq)
		}
		got, err := recv.Open(rec)
		if err != nil {
			t.Fatalf("record %d: %v", seq, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("record %d: Open returned a different payload", seq)
		}
	}
}

func testConnsQuick() (a, b *Conn) {
	var kb KeyBlock
	for i := range kb.Key {
		kb.Key[i] = byte(i + 1)
	}
	return NewConn(kb), NewConn(kb)
}

func BenchmarkSeal512(b *testing.B) {
	var kb KeyBlock
	kb.Key[0] = 1
	c := NewConn(kb)
	payload := make([]byte, 512-MACSize)
	b.SetBytes(512)
	for n := 0; n < b.N; n++ {
		c.Seal(payload)
	}
}
