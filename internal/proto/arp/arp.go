// Package arp implements the Address Resolution Protocol (RFC 826) for the
// Ethernet side of the testbed. Each host runs one resolver daemon that
// answers requests for the host's address and completes outstanding
// resolutions; protocol stacks plug the daemon in as their ip.Resolver.
package arp

import (
	"encoding/binary"
	"fmt"

	"ashs/internal/aegis"
	"ashs/internal/dpf"
	"ashs/internal/proto/ether"
	"ashs/internal/proto/ip"
	"ashs/internal/proto/link"
	"ashs/internal/sim"
)

// Opcodes.
const (
	OpRequest = 1
	OpReply   = 2
)

// PacketLen is the ARP payload size for Ethernet/IPv4.
const PacketLen = 28

// Packet is an Ethernet/IPv4 ARP packet.
type Packet struct {
	Op        uint16
	SenderMAC ether.MAC
	SenderIP  ip.Addr
	TargetMAC ether.MAC
	TargetIP  ip.Addr
}

// Marshal appends the wire form to b.
func (p *Packet) Marshal(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, 1) // hardware: Ethernet
	b = binary.BigEndian.AppendUint16(b, ether.TypeIPv4)
	b = append(b, 6, 4)
	b = binary.BigEndian.AppendUint16(b, p.Op)
	b = append(b, p.SenderMAC[:]...)
	b = append(b, p.SenderIP[:]...)
	b = append(b, p.TargetMAC[:]...)
	b = append(b, p.TargetIP[:]...)
	return b
}

// Parse reads a packet from b.
func Parse(b []byte) (Packet, error) {
	var p Packet
	if len(b) < PacketLen {
		return p, fmt.Errorf("arp: truncated packet (%d bytes)", len(b))
	}
	if binary.BigEndian.Uint16(b) != 1 || binary.BigEndian.Uint16(b[2:]) != ether.TypeIPv4 ||
		b[4] != 6 || b[5] != 4 {
		return p, fmt.Errorf("arp: unsupported hardware/protocol space")
	}
	p.Op = binary.BigEndian.Uint16(b[6:])
	copy(p.SenderMAC[:], b[8:14])
	copy(p.SenderIP[:], b[14:18])
	copy(p.TargetMAC[:], b[18:24])
	copy(p.TargetIP[:], b[24:28])
	return p, nil
}

// Service is a host's ARP daemon plus cache.
type Service struct {
	MyIP  ip.Addr
	MyMAC ether.MAC

	eth   *aegis.EthernetIf
	ep    *link.Link
	proc  *aegis.Process
	cache map[ip.Addr]ether.MAC
	cond  aegis.Cond

	// Statistics.
	RequestsServed uint64
}

// procCycles is the parse/build charge per packet, in cycles; uncalibrated.
const procCycles sim.Time = 100

// resolveTimeout is how long one resolution attempt waits for a reply.
const resolveTimeoutUs = 100_000

// resolveAttempts bounds retransmissions of a request.
const resolveAttempts = 3

// Start spawns the ARP daemon on host k over the Ethernet interface.
func Start(k *aegis.Kernel, eth *aegis.EthernetIf, myIP ip.Addr) (*Service, error) {
	s := &Service{
		MyIP: myIP, MyMAC: ether.PortMAC(eth.Addr()),
		eth: eth, cache: map[ip.Addr]ether.MAC{},
	}
	// Own address is always known.
	s.cache[myIP] = s.MyMAC
	s.proc = k.Spawn("arpd", func(p *aegis.Process) { s.serve(p) })
	filter := dpf.NewFilter().Eq16(12, ether.TypeARP)
	ep, err := link.BindEthernet(eth, s.proc, filter)
	if err != nil {
		return nil, err
	}
	s.ep = ep
	return s, nil
}

// serve is the daemon loop: answer requests, learn replies.
func (s *Service) serve(p *aegis.Process) {
	for {
		f := s.ep.Recv(false)
		p.Compute(procCycles)
		raw := make([]byte, PacketLen)
		if f.Len() < ether.HeaderLen+PacketLen {
			s.ep.Release(f)
			continue
		}
		f.Bytes(raw, ether.HeaderLen, PacketLen)
		pkt, err := Parse(raw)
		s.ep.Release(f)
		if err != nil {
			continue
		}
		// Learn the sender binding opportunistically (classic ARP).
		s.cache[pkt.SenderIP] = pkt.SenderMAC
		switch pkt.Op {
		case OpRequest:
			if pkt.TargetIP != s.MyIP {
				continue
			}
			s.RequestsServed++
			reply := Packet{Op: OpReply, SenderMAC: s.MyMAC, SenderIP: s.MyIP,
				TargetMAC: pkt.SenderMAC, TargetIP: pkt.SenderIP}
			s.transmit(p, pkt.SenderMAC, &reply)
		case OpReply:
			s.cond.Broadcast(0)
		}
	}
}

func (s *Service) transmit(p *aegis.Process, dst ether.MAC, pkt *Packet) {
	p.Compute(procCycles)
	h := ether.Header{Dst: dst, Src: s.MyMAC, Type: ether.TypeARP}
	frame := h.Marshal(nil)
	frame = pkt.Marshal(frame)
	if port, ok := ether.PortOfMAC(dst); ok && !dst.IsBroadcast() {
		s.eth.Send(p, port, 0, frame)
	} else {
		s.eth.Broadcast(p, frame)
	}
}

// Lookup returns a cached binding without resolving.
func (s *Service) Lookup(a ip.Addr) (ether.MAC, bool) {
	m, ok := s.cache[a]
	return m, ok
}

// Resolve implements ip.Resolver: it answers from the cache or broadcasts
// a request and blocks the caller until the daemon learns the reply.
func (s *Service) Resolve(p *aegis.Process, dst ip.Addr) (link.Addr, error) {
	for attempt := 0; attempt < resolveAttempts; attempt++ {
		if mac, ok := s.cache[dst]; ok {
			port, ok := ether.PortOfMAC(mac)
			if !ok {
				return link.Addr{}, fmt.Errorf("arp: unroutable MAC %s", mac)
			}
			return link.Addr{Port: port}, nil
		}
		req := Packet{Op: OpRequest, SenderMAC: s.MyMAC, SenderIP: s.MyIP, TargetIP: dst}
		s.transmit(p, ether.BroadcastMAC, &req)
		s.cond.WaitTimeout(p, p.K.Prof.Cycles(resolveTimeoutUs))
	}
	if mac, ok := s.cache[dst]; ok {
		port, _ := ether.PortOfMAC(mac)
		return link.Addr{Port: port}, nil
	}
	return link.Addr{}, fmt.Errorf("arp: no reply for %s", dst)
}
