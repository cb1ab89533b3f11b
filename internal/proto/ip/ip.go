// Package ip implements IPv4 (RFC 791) as a user-level library: header
// marshal/parse with header checksum, identification, and send-side
// fragmentation with receive-side reassembly. Routing is direct delivery
// (all hosts share a link), with pluggable address resolution — a static
// table over the AN2 and ARP over the Ethernet.
package ip

import (
	"encoding/binary"
	"fmt"

	"ashs/internal/vcode"
)

// Addr is an IPv4 address.
type Addr [4]byte

// V4 builds an address from its octets.
func V4(a, b, c, d byte) Addr { return Addr{a, b, c, d} }

// HostAddr is the conventional address of switch port n in this testbed.
// The host number spreads across the low three octets so fan-in worlds
// with up to ~16M ports get distinct addresses (port 0 → 10.0.0.1,
// port 254 → 10.0.0.255, port 255 → 10.0.1.0, port 65535 → 10.1.0.0, ...).
// For ports below 65535 the mapping is identical to the historical
// two-octet spread, so all committed outputs are unchanged.
func HostAddr(port int) Addr {
	n := port + 1
	return V4(10, byte(n>>16), byte(n>>8), byte(n))
}

// HostPort inverts HostAddr: the switch port whose conventional address a
// is, and false for an address outside 10/8 or 10.0.0.0, which no port has.
func HostPort(a Addr) (int, bool) {
	if a[0] != 10 {
		return 0, false
	}
	port := (int(a[1])<<16 | int(a[2])<<8 | int(a[3])) - 1
	return port, port >= 0
}

// String formats dotted quad.
func (a Addr) String() string { return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3]) }

// Protocol numbers.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// HeaderLen is the size of a header without options (the library never
// emits options).
const HeaderLen = 20

// Fragmentation flag bits (in the flags/fragment-offset word).
const (
	flagDF = 0x4000
	flagMF = 0x2000
)

// Header is a parsed IPv4 header.
type Header struct {
	TOS      byte
	TotalLen uint16
	ID       uint16
	DF, MF   bool
	FragOff  int // byte offset of this fragment
	TTL      byte
	Proto    byte
	Checksum uint16
	Src, Dst Addr
}

// Marshal appends the 20-byte wire header to b, computing the header
// checksum.
func (h *Header) Marshal(b []byte) []byte {
	start := len(b)
	b = append(b, 0x45, h.TOS)
	b = binary.BigEndian.AppendUint16(b, h.TotalLen)
	b = binary.BigEndian.AppendUint16(b, h.ID)
	ff := uint16(h.FragOff / 8)
	if h.DF {
		ff |= flagDF
	}
	if h.MF {
		ff |= flagMF
	}
	b = binary.BigEndian.AppendUint16(b, ff)
	b = append(b, h.TTL, h.Proto, 0, 0) // checksum filled below
	b = append(b, h.Src[:]...)
	b = append(b, h.Dst[:]...)
	ck := ^vcode.Fold16(vcode.CksumData(0, b[start:start+HeaderLen]))
	binary.BigEndian.PutUint16(b[start+10:], ck)
	return b
}

// Parse reads and validates a header from the front of b.
func Parse(b []byte) (Header, error) {
	var h Header
	if len(b) < HeaderLen {
		return h, fmt.Errorf("ip: truncated header (%d bytes)", len(b))
	}
	if b[0]>>4 != 4 {
		return h, fmt.Errorf("ip: version %d", b[0]>>4)
	}
	ihl := int(b[0]&0xf) * 4
	if ihl < HeaderLen || ihl > len(b) {
		// Out-of-range IHL: malformed, or a bit flip that survived the
		// link CRC. Rejecting it here (rather than slicing past the
		// buffer) keeps corrupted headers on the error path.
		return h, fmt.Errorf("ip: bad IHL %d", ihl)
	}
	if vcode.Fold16(vcode.CksumData(0, b[:ihl])) != 0xffff {
		// Checksum over a valid header (including its checksum field)
		// folds to 0xffff.
		return h, fmt.Errorf("ip: header checksum failure")
	}
	h.TOS = b[1]
	h.TotalLen = binary.BigEndian.Uint16(b[2:])
	h.ID = binary.BigEndian.Uint16(b[4:])
	ff := binary.BigEndian.Uint16(b[6:])
	h.DF = ff&flagDF != 0
	h.MF = ff&flagMF != 0
	h.FragOff = int(ff&0x1fff) * 8
	h.TTL = b[8]
	h.Proto = b[9]
	h.Checksum = binary.BigEndian.Uint16(b[10:])
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	if int(h.TotalLen) < ihl {
		return h, fmt.Errorf("ip: total length %d below header", h.TotalLen)
	}
	return h, nil
}

// PseudoCksum computes the TCP/UDP pseudo-header checksum contribution.
func PseudoCksum(src, dst Addr, proto byte, length int) uint32 {
	var sum uint32
	add16 := func(v uint32) {
		sum += v
	}
	add16(uint32(src[0])<<8 | uint32(src[1]))
	add16(uint32(src[2])<<8 | uint32(src[3]))
	add16(uint32(dst[0])<<8 | uint32(dst[1]))
	add16(uint32(dst[2])<<8 | uint32(dst[3]))
	add16(uint32(proto))
	add16(uint32(length))
	return sum
}
