package arp

import (
	"testing"

	"ashs/internal/aegis"
	"ashs/internal/dpf"
	"ashs/internal/mach"
	"ashs/internal/netdev"
	"ashs/internal/proto/ether"
	"ashs/internal/proto/ip"
	"ashs/internal/proto/link"
	"ashs/internal/proto/udp"
	"ashs/internal/sim"
)

func TestPacketRoundTrip(t *testing.T) {
	p := Packet{Op: OpRequest, SenderMAC: ether.PortMAC(1), SenderIP: ip.V4(10, 0, 0, 2),
		TargetMAC: ether.MAC{}, TargetIP: ip.V4(10, 0, 0, 3)}
	b := p.Marshal(nil)
	if len(b) != PacketLen {
		t.Fatalf("marshal length %d", len(b))
	}
	got, err := Parse(b)
	if err != nil || got != p {
		t.Fatalf("Parse = %+v, %v", got, err)
	}
	if _, err := Parse(b[:20]); err == nil {
		t.Fatal("short packet accepted")
	}
}

type ethWorld struct {
	eng    *sim.Engine
	k1, k2 *aegis.Kernel
	e1, e2 *aegis.EthernetIf
	s1, s2 *Service
}

func newEthWorld(t *testing.T) *ethWorld {
	t.Helper()
	eng := sim.NewEngine()
	prof := mach.DS5000_240()
	sw := netdev.NewSwitch(eng, prof, netdev.EthernetConfig())
	k1 := aegis.NewKernel("h1", eng, prof)
	k2 := aegis.NewKernel("h2", eng, prof)
	w := &ethWorld{eng: eng, k1: k1, k2: k2,
		e1: aegis.NewEthernet(k1, sw), e2: aegis.NewEthernet(k2, sw)}
	var err error
	w.s1, err = Start(k1, w.e1, ip.HostAddr(w.e1.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	w.s2, err = Start(k2, w.e2, ip.HostAddr(w.e2.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestResolveAcrossHosts(t *testing.T) {
	w := newEthWorld(t)
	target := ip.HostAddr(w.e2.Addr())
	var got link.Addr
	var err error
	w.k1.Spawn("resolver", func(p *aegis.Process) {
		got, err = w.s1.Resolve(p, target)
	})
	w.eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.Port != w.e2.Addr() {
		t.Fatalf("resolved port %d, want %d", got.Port, w.e2.Addr())
	}
	if w.s2.RequestsServed != 1 {
		t.Fatalf("server answered %d requests, want 1", w.s2.RequestsServed)
	}
	// The responder learned the requester's binding opportunistically.
	if _, ok := w.s2.Lookup(ip.HostAddr(w.e1.Addr())); !ok {
		t.Fatal("responder did not learn requester's binding")
	}
}

func TestResolveCachesSecondLookup(t *testing.T) {
	w := newEthWorld(t)
	target := ip.HostAddr(w.e2.Addr())
	w.k1.Spawn("resolver", func(p *aegis.Process) {
		if _, err := w.s1.Resolve(p, target); err != nil {
			t.Error(err)
		}
		if _, err := w.s1.Resolve(p, target); err != nil {
			t.Error(err)
		}
	})
	w.eng.Run()
	if w.s2.RequestsServed != 1 {
		t.Fatalf("cache miss: %d requests served", w.s2.RequestsServed)
	}
}

func TestResolveUnknownTimesOut(t *testing.T) {
	w := newEthWorld(t)
	var err error
	w.k1.Spawn("resolver", func(p *aegis.Process) {
		_, err = w.s1.Resolve(p, ip.V4(10, 9, 9, 9))
	})
	w.eng.Run()
	if err == nil {
		t.Fatal("resolution of unknown address succeeded")
	}
}

func TestResolveSelf(t *testing.T) {
	w := newEthWorld(t)
	self := ip.HostAddr(w.e1.Addr())
	var got link.Addr
	w.k1.Spawn("resolver", func(p *aegis.Process) {
		got, _ = w.s1.Resolve(p, self)
	})
	w.eng.Run()
	if got.Port != w.e1.Addr() {
		t.Fatal("self resolution wrong")
	}
}

// TestUDPOverEthernetWithARP is the full Ethernet-side stack: DPF demux,
// ARP resolution, striped receive buffers, IP, UDP.
func TestUDPOverEthernetWithARP(t *testing.T) {
	w := newEthWorld(t)
	ip1, ip2 := ip.HostAddr(w.e1.Addr()), ip.HostAddr(w.e2.Addr())

	mkStack := func(p *aegis.Process, eth *aegis.EthernetIf, svc *Service, local ip.Addr, port uint16) *ip.Stack {
		// Demux: IP ethertype + our address + UDP + our port.
		f := dpf.NewFilter().
			Eq16(12, ether.TypeIPv4).
			Eq32(ether.HeaderLen+16, ipToU32(local)).
			Eq8(ether.HeaderLen+9, ip.ProtoUDP).
			Eq16(ether.HeaderLen+ip.HeaderLen+2, port)
		ep, err := link.BindEthernet(eth, p, f)
		if err != nil {
			t.Error(err)
			return nil
		}
		st := ip.NewStack(ep, local, svc)
		st.LinkHdrLen = ether.HeaderLen
		myMAC := ether.PortMAC(eth.Addr())
		st.PrependLink = func(dst link.Addr, b []byte) []byte {
			h := ether.Header{Dst: ether.PortMAC(dst.Port), Src: myMAC, Type: ether.TypeIPv4}
			return h.Marshal(b)
		}
		return st
	}

	payload := []byte("over the ethernet, through the stripes, to the socket we go!!!!")
	var got []byte
	w.k2.Spawn("server", func(p *aegis.Process) {
		st := mkStack(p, w.e2, w.s2, ip2, 53)
		if st == nil {
			return
		}
		sock := udp.NewSocket(st, 53, udp.Options{Checksum: true})
		m, err := sock.Recv(false)
		if err != nil {
			t.Error(err)
			return
		}
		data := append([]byte(nil), m.Bytes(w.k2)...)
		sock.Release(m)
		if err := sock.SendBytes(m.From, m.FromPort, data); err != nil {
			t.Error(err)
		}
	})
	w.k1.Spawn("client", func(p *aegis.Process) {
		st := mkStack(p, w.e1, w.s1, ip1, 1234)
		if st == nil {
			return
		}
		sock := udp.NewSocket(st, 1234, udp.Options{Checksum: true})
		if err := sock.SendBytes(ip2, 53, payload); err != nil {
			t.Error(err)
			return
		}
		m, err := sock.Recv(false)
		if err != nil {
			t.Error(err)
			return
		}
		got = append([]byte(nil), m.Bytes(w.k1)...)
		sock.Release(m)
	})
	w.eng.Run()
	if string(got) != string(payload) {
		t.Fatalf("payload mismatch: %q vs %q", got, payload)
	}
}

func ipToU32(a ip.Addr) uint32 {
	return uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
}
