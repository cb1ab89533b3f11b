package bench

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"

	"ashs/internal/aegis"
	"ashs/internal/dpf"
	"ashs/internal/fault"
	"ashs/internal/netdev"
	"ashs/internal/proto/ether"
	"ashs/internal/proto/ip"
	"ashs/internal/proto/nfs"
	"ashs/internal/proto/tcp"
	"ashs/internal/proto/udp"
)

// wireTap records (Src, Dst, VC, len, FCS) of every frame the switch is
// about to deliver, ahead of whatever injector the world installed: a frame
// the injector then drops or damages was still sent. The FCS is the
// transmitting board's check over the whole frame, so two runs with equal
// digests put the same bytes on the wire in the same order.
type wireTap struct {
	frames int
	sum    hash.Hash
}

func tapWire(sw *netdev.Switch) *wireTap {
	tap := &wireTap{sum: sha256.New()}
	next := sw.Inject
	sw.Inject = func(pkt *netdev.PacketBuf) bool {
		tap.frames++
		fmt.Fprintf(tap.sum, "%d %d %d %d %08x\n", pkt.Src, pkt.Dst, pkt.VC, pkt.Len(), pkt.FCS)
		return next == nil || next(pkt)
	}
	return tap
}

func (w *wireTap) line(world string) string {
	return fmt.Sprintf("%s\t%d frames\t%x", world, w.frames, w.sum.Sum(nil))
}

// wireTCPCfg is a connection config of the wire-identity worlds.
func wireTCPCfg(tb *Testbed, mode tcp.Mode, cksum bool, mss int) func(host int) tcp.Config {
	return func(host int) tcp.Config {
		cfg := tcp.DefaultConfig()
		cfg.Mode, cfg.Checksum, cfg.MSS = mode, cksum, mss
		cfg.MaxRetransmit = 16
		cfg.Sys = tb.hosts[host-1].sys
		return cfg
	}
}

// wireStream moves total pattern bytes from host 1 to host 2 in chunk-byte
// writes over the suite's connection and returns the sender. (tcpStream
// sends an untouched buffer: a frame of zeros checks the same wherever the
// payload landed in it.)
func wireStream(t *testing.T, tb *Testbed, total, chunk int, cfgFor func(host int) tcp.Config) *tcp.Conn {
	accept, connect := pairTCP(tb, cfgFor)
	tb.K2.Spawn("server", func(p *aegis.Process) {
		conn := accept(p)
		buf := p.AS.MustAlloc(chunk, "rx")
		for got := 0; got < total; {
			n, err := conn.Read(buf.Base, chunk)
			must("wire", err)
			if !chaosCheck(p.AS.MustBytes(buf.Base, n), got) {
				t.Errorf("stream damaged at offset %d", got)
			}
			got += n
		}
		_ = conn.Close()
	})
	var cli *tcp.Conn
	done := false
	tb.K1.Spawn("client", func(p *aegis.Process) {
		cli = connect(p)
		buf := p.AS.MustAlloc(chunk, "tx")
		for sent := 0; sent < total; sent += chunk {
			n := min(chunk, total-sent)
			chaosFill(p.AS.MustBytes(buf.Base, n), sent)
			must("wire", cli.Write(buf.Base, n))
		}
		done = true
		_ = cli.Close()
	})
	tb.runUntil(func() bool { return done }, 600_000_000, 100_000)
	return cli
}

// wireUDP sends pattern datagrams of several sizes from host 1's memory
// (SendTo) and has host 2 answer each with its first half (SendBytes).
func wireUDP(t *testing.T, tb *Testbed, opts udp.Options, sizes []int) {
	tb.K2.Spawn("server", func(p *aegis.Process) {
		sock := udp.NewSocket(tb.stack(p, 2, ip.ProtoUDP, 53), 53, opts)
		for range sizes {
			m, err := sock.Recv(true)
			must("wire", err)
			data := append([]byte(nil), m.Bytes(tb.K2)...)
			sock.Release(m)
			must("wire", sock.SendBytes(m.From, m.FromPort, data[:len(data)/2]))
		}
	})
	tb.K1.Spawn("client", func(p *aegis.Process) {
		sock := udp.NewSocket(tb.stack(p, 1, ip.ProtoUDP, 1234), 1234, opts)
		buf := p.AS.MustAlloc(4096, "tx")
		for i, n := range sizes {
			chaosFill(p.AS.MustBytes(buf.Base, n), 1000*i)
			must("wire", sock.SendTo(tb.IP2, 53, buf.Base, n))
			m, err := sock.Recv(true)
			must("wire", err)
			if !chaosCheck(m.Bytes(tb.K1), 1000*i) || m.N != n/2 {
				t.Errorf("datagram %d (%d bytes) came back damaged", i, n)
			}
			sock.Release(m)
		}
	})
	tb.run()
}

// wireWorlds is the fixed set of worlds whose frames are pinned: every
// transmit path of the protocol libraries — first transmission and
// retransmission, with and without checksums, handler-built ACKs, both link
// headers, fragments in both directions.
var wireWorlds = []struct {
	name string
	run  func(t *testing.T) *wireTap
}{
	{"an2/tcp-ash-cksum", func(t *testing.T) *wireTap {
		tb := NewAN2Testbed(nil)
		defer tb.close()
		tap := tapWire(tb.Sw)
		wireStream(t, tb, 200_000, 8192, wireTCPCfg(tb, tcp.ModeASH, true, 3072))
		return tap
	}},
	{"an2/tcp-user-nocksum", func(t *testing.T) *wireTap {
		tb := NewAN2Testbed(nil)
		defer tb.close()
		tap := tapWire(tb.Sw)
		wireStream(t, tb, 200_000, 5000, wireTCPCfg(tb, tcp.ModeUser, false, 536))
		return tap
	}},
	{"eth/tcp-user-cksum-loss", func(t *testing.T) *wireTap {
		tb := ethWorld(nil)
		defer tb.close()
		loss, _ := fault.Named("loss")
		tb.AttachFault(fault.New(1, loss))
		tap := tapWire(tb.Sw)
		cli := wireStream(t, tb, 300_000, 8192, wireTCPCfg(tb, tcp.ModeUser, true, EthernetTCPMSS))
		if cli.Retransmits == 0 {
			t.Error("the loss schedule forced no retransmission")
		}
		return tap
	}},
	{"an2/udp-cksum", func(t *testing.T) *wireTap {
		tb := NewAN2Testbed(nil)
		defer tb.close()
		tap := tapWire(tb.Sw)
		wireUDP(t, tb, udp.Options{Checksum: true}, []int{4, 3072, 1, 777, 4000})
		return tap
	}},
	{"eth/udp-inplace", func(t *testing.T) *wireTap {
		tb := ethWorld(nil)
		defer tb.close()
		tap := tapWire(tb.Sw)
		wireUDP(t, tb, udp.Options{InPlace: true}, []int{4, EthernetUDPPayload, 1, 777})
		return tap
	}},
	{"eth/nfs-8k-fragmented", func(t *testing.T) *wireTap {
		tb := ethWorld(nil)
		defer tb.close()
		tap := tapWire(tb.Sw)
		file := make([]byte, 3*nfs.MaxIO)
		chaosFill(file, 0)
		srv := nfs.NewServer()
		srv.AddFile("f", file)
		// The suite's listen filter pins the UDP port, which only a first
		// fragment carries: these two endpoints take every UDP datagram
		// addressed to their host.
		stack := func(p *aegis.Process, h *host) *ip.Stack {
			f := dpf.NewFilter().Eq16(12, ether.TypeIPv4).
				Eq32(ether.HeaderLen+16, ipU32(h.ip)).Eq8(ether.HeaderLen+9, ip.ProtoUDP)
			return ethStack(p, h, f, h.arp)
		}
		tb.K2.Spawn("nfsd", func(p *aegis.Process) {
			sock := udp.NewSocket(stack(p, tb.hosts[1]), 2049, udp.Options{Checksum: true})
			srv.Serve(p, sock, 0)
		})
		done := false
		tb.K1.Spawn("client", func(p *aegis.Process) {
			sock := udp.NewSocket(stack(p, tb.hosts[0]), 900, udp.Options{Checksum: true})
			c := nfs.NewClient(sock, tb.IP2, 2049)
			attr, err := c.Lookup(p, nfs.RootHandle, "f")
			must("wire", err)
			// Replies of 8 KB, then 8-KB requests: both cross the 1500-byte
			// MTU in six fragments, the last one short.
			for off := 0; off < len(file); off += nfs.MaxIO {
				b, err := c.Read(p, attr.Handle, uint32(off), nfs.MaxIO)
				must("wire", err)
				if !bytes.Equal(b, file[off:off+nfs.MaxIO]) {
					t.Errorf("read at %d returned other bytes", off)
				}
				_, err = c.Write(p, attr.Handle, uint32(off), b[:nfs.MaxIO-off/8])
				must("wire", err)
			}
			done = true
		})
		tb.runUntil(func() bool { return done }, 600_000_000, 100_000)
		return tap
	}},
}

// TestWireIdentity pins the frames each of those worlds puts on the wire to
// the ones the per-layer transmit path (a fresh slice per layer) produced
// before ip.Stack.Send became a gather send: testdata/wire_golden.txt was
// generated on that commit and has not been regenerated since. A change
// that moves it has changed what a protocol library sends.
func TestWireIdentity(t *testing.T) {
	var got []string
	for _, w := range wireWorlds {
		tap := w.run(t)
		if tap.frames == 0 {
			t.Errorf("%s: no frame crossed the wire", w.name)
		}
		got = append(got, tap.line(w.name))
	}
	compareGolden(t, "testdata/wire_golden.txt", got)
}
