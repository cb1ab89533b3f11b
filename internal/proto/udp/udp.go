// Package udp is a straightforward user-level implementation of the UDP
// protocol as specified in RFC 768 (Section IV-D of the paper), layered on
// the ip library. It supports the four receive disciplines Table II
// compares: in-place vs copying delivery, each with or without end-to-end
// Internet checksums. Per the paper, the library's copy and checksum are
// *not* integrated (separate passes); integration is what the ASH/DILP
// path adds.
package udp

import (
	"encoding/binary"
	"fmt"

	"ashs/internal/aegis"
	"ashs/internal/proto/ip"
	"ashs/internal/proto/link"
	"ashs/internal/sim"
)

// HeaderLen is the UDP header size.
const HeaderLen = 8

// Header is a UDP header.
type Header struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16
}

// Marshal appends the wire header to b (checksum field as given).
func (h *Header) Marshal(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, h.SrcPort)
	b = binary.BigEndian.AppendUint16(b, h.DstPort)
	b = binary.BigEndian.AppendUint16(b, h.Length)
	return binary.BigEndian.AppendUint16(b, h.Checksum)
}

// Parse reads a header from b.
func Parse(b []byte) (Header, error) {
	if len(b) < HeaderLen {
		return Header{}, fmt.Errorf("udp: truncated header")
	}
	return Header{
		SrcPort:  binary.BigEndian.Uint16(b),
		DstPort:  binary.BigEndian.Uint16(b[2:]),
		Length:   binary.BigEndian.Uint16(b[4:]),
		Checksum: binary.BigEndian.Uint16(b[6:]),
	}, nil
}

// Options selects the receive discipline.
type Options struct {
	// Checksum enables end-to-end Internet checksums (compute on send,
	// verify on receive).
	Checksum bool
	// InPlace delivers payloads in the receive buffer ("an application
	// can be informed where its data has landed, and may use the data
	// directly out of that buffer"); otherwise payloads are copied into
	// the application's buffer through a read/write-style interface.
	InPlace bool
}

// Costs are the per-operation protocol-processing charges, calibrated
// against Table II (see DESIGN.md).
type Costs struct {
	Build      sim.Time // allocate send buffer, initialize IP and UDP fields
	Parse      sim.Time // header parse + port demux + length validation
	CksumFixed sim.Time // fixed checksum-path setup (pseudo-header etc.)
}

// DefaultCosts is the calibrated cost set.
func DefaultCosts() Costs { return Costs{Build: 380, Parse: 240, CksumFixed: 190} }

// Socket is a bound UDP endpoint.
type Socket struct {
	St        *ip.Stack
	LocalPort uint16
	Opts      Options
	Costs     Costs

	rxApp aegis.Segment // application buffer for copying delivery
	txApp aegis.Segment // staging for SendBytes

	// Statistics.
	BadChecksum, BadPort, Delivered uint64
}

// MaxPayload bounds a datagram this library will send.
const MaxPayload = 56 * 1024

// NewSocket binds local port lp over stack st.
func NewSocket(st *ip.Stack, lp uint16, opts Options) *Socket {
	s := &Socket{St: st, LocalPort: lp, Opts: opts, Costs: DefaultCosts()}
	owner := st.Ep.Owner()
	s.rxApp = owner.AS.MustAlloc(MaxPayload, fmt.Sprintf("udp-%d-rx", lp))
	s.txApp = owner.AS.MustAlloc(MaxPayload, fmt.Sprintf("udp-%d-tx", lp))
	return s
}

// SendTo transmits n bytes at addr (in the owner's address space) to
// dst:port. The checksum traversal, when enabled, is charged against the
// data's real cache state.
func (s *Socket) SendTo(dst ip.Addr, dstPort uint16, addr uint32, n int) error {
	if n > MaxPayload {
		return fmt.Errorf("udp: payload %d exceeds max %d", n, MaxPayload)
	}
	p := s.St.Ep.Owner()
	k := s.St.Ep.Kernel()
	p.Compute(s.Costs.Build)

	data, err := p.AS.Bytes(addr, n)
	if err != nil {
		return err
	}
	h := Header{SrcPort: s.LocalPort, DstPort: dstPort, Length: uint16(HeaderLen + n)}
	if s.Opts.Checksum {
		p.Compute(s.Costs.CksumFixed)
		acc := ip.PseudoCksum(s.St.Local, dst, ip.ProtoUDP, HeaderLen+n) + h.headerAccum()
		acc += link.CksumRange(p, k, addr, n) // charged traversal
		ck := ^link.FoldCksum(acc)
		if ck == 0 {
			ck = 0xffff // RFC 768: transmitted as all ones
		}
		h.Checksum = ck
	}
	var hdr [HeaderLen]byte
	return s.St.Send(ip.ProtoUDP, dst, h.Marshal(hdr[:0]), data)
}

// SendBytes stages data into the socket's transmit buffer and sends it.
func (s *Socket) SendBytes(dst ip.Addr, dstPort uint16, data []byte) error {
	p := s.St.Ep.Owner()
	buf, err := p.AS.Bytes(s.txApp.Base, len(data))
	if err != nil {
		return err
	}
	copy(buf, data)
	return s.SendTo(dst, dstPort, s.txApp.Base, len(data))
}

// Msg is a received datagram.
type Msg struct {
	From     ip.Addr
	FromPort uint16
	Addr     uint32 // where the payload lives (app buffer or receive buffer)
	N        int

	dgram ip.Dgram
	held  bool // in-place: underlying buffer still held
}

// Bytes returns the payload view.
func (m *Msg) Bytes(k *aegis.Kernel) []byte { return k.Bytes(m.Addr, m.N) }

// Recv returns the next datagram for this socket's port. Datagrams failing
// checksum or port match are dropped and the wait continues.
func (s *Socket) Recv(polling bool) (Msg, error) {
	for {
		d, err := s.St.Recv(polling)
		if err != nil {
			return Msg{}, err
		}
		if m, ok := s.input(d); ok {
			return m, nil
		}
	}
}

// RecvUntil is Recv with an absolute virtual-time deadline (0 = none);
// ok is false on timeout.
func (s *Socket) RecvUntil(polling bool, deadline sim.Time) (Msg, bool, error) {
	for {
		d, ok, err := s.St.RecvUntil(polling, deadline)
		if err != nil || !ok {
			return Msg{}, false, err
		}
		if d.Doorbell {
			continue
		}
		if m, delivered := s.input(d); delivered {
			return m, true, nil
		}
	}
}

// TryRecv is Recv without blocking.
func (s *Socket) TryRecv() (Msg, bool, error) {
	for {
		d, ok, err := s.St.TryRecv()
		if err != nil {
			return Msg{}, false, err
		}
		if !ok {
			return Msg{}, false, nil
		}
		if m, ok := s.input(d); ok {
			return m, true, nil
		}
	}
}

// input processes one IP datagram; ok=false means it was consumed/dropped.
func (s *Socket) input(d ip.Dgram) (Msg, bool) {
	p := s.St.Ep.Owner()
	k := s.St.Ep.Kernel()
	p.Compute(s.Costs.Parse)

	if d.Hdr.Proto != ip.ProtoUDP || d.PayloadLen() < HeaderLen {
		s.St.Release(d)
		return Msg{}, false
	}
	raw := make([]byte, HeaderLen)
	d.Frame.Bytes(raw, d.Off, HeaderLen)
	h, err := Parse(raw)
	if err != nil || h.DstPort != s.LocalPort || int(h.Length) > d.PayloadLen() {
		s.BadPort++
		s.St.Release(d)
		return Msg{}, false
	}
	n := int(h.Length) - HeaderLen

	var payloadAcc uint32
	haveAcc := false
	var m Msg
	if s.Opts.InPlace {
		// Use the data wherever it landed.
		m = Msg{From: d.Hdr.Src, FromPort: h.SrcPort, N: n, dgram: d, held: true}
		if d.Frame.Striped {
			// Striped layouts cannot be used in place; charge the copy out.
			payloadAcc = link.CopyFromFrame(p, d.Frame, d.Off+HeaderLen, s.rxApp.Base, n, false)
			haveAcc = false
			m.Addr = s.rxApp.Base
		} else {
			m.Addr = d.Frame.Addr() + uint32(d.Off+HeaderLen)
		}
	} else {
		// Copy into the application's data structures.
		link.CopyFromFrame(p, d.Frame, d.Off+HeaderLen, s.rxApp.Base, n, false)
		m = Msg{From: d.Hdr.Src, FromPort: h.SrcPort, Addr: s.rxApp.Base, N: n, dgram: d, held: true}
	}

	if s.Opts.Checksum && h.Checksum != 0 {
		p.Compute(s.Costs.CksumFixed)
		// Separate checksum pass (the library does not integrate; the
		// data is in cache if it was just copied).
		if !haveAcc {
			payloadAcc = link.CksumRange(p, k, m.Addr, n)
		}
		acc := ip.PseudoCksum(d.Hdr.Src, d.Hdr.Dst, ip.ProtoUDP, int(h.Length))
		hb := Header{SrcPort: h.SrcPort, DstPort: h.DstPort, Length: h.Length}.headerAccum()
		acc += hb + uint32(h.Checksum) + payloadAcc
		if link.FoldCksum(acc) != 0xffff {
			s.BadChecksum++
			s.St.Release(d)
			return Msg{}, false
		}
	}
	s.Delivered++
	if !s.Opts.InPlace || d.Frame.Striped {
		// The copy is done; the receive buffer can go back immediately.
		s.St.Release(d)
		m.held = false
	}
	return m, true
}

// headerAccum folds the header (with zero checksum field) into a sum.
func (h Header) headerAccum() uint32 {
	return uint32(h.SrcPort) + uint32(h.DstPort) + uint32(h.Length)
}

// Release returns an in-place message's receive buffer.
func (s *Socket) Release(m Msg) {
	if m.held {
		s.St.Release(m.dgram)
	}
}
