package bench

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ashs/internal/aegis"
	"ashs/internal/core"
	"ashs/internal/flyweight"
	"ashs/internal/netdev"
	"ashs/internal/proto/ether"
	"ashs/internal/proto/ip"
	"ashs/internal/proto/nfs"
	"ashs/internal/proto/retry"
	"ashs/internal/proto/tcp"
	"ashs/internal/proto/udp"
	"ashs/internal/sim"
	"ashs/internal/vcode"
	"ashs/internal/workload"
)

// The flyweight package says its frames are wire-exact: a server cannot
// tell a flyweight endpoint from a host. TestFlyweightIsAHostOnTheWire
// checks it for each megascale workload. Two worlds differ only in their
// client: a full host on switch port 1 running the protocol library, or a
// one-endpoint flyweight fleet on the same port (so the same MAC and IP)
// with the same local port. The server is megascale's, idle, and the
// client makes one request. Every frame the switch delivers is captured
// whole, and the two captures must be equal byte for byte, except in the
// fields flyweightWireDiffs names.
//
// The one difference the comparison takes out before it compares is the
// client's initial sequence number: a full tcp.Conn takes 1000·port+7, a
// flyweight FlyConn 1000·id+1, and neither takes one from outside. Both
// captures' TCP checksums are checked first; then the flyweight's client
// sequence numbers and the server's acknowledgments to it are shifted by
// the difference, and their checksums recomputed.

// flyweightWireDiffs is the committed list of the ways a flyweight's
// conversation differs from a host's, each with its reason. A field is
// named by the side that sent the frame and its place in the frame
// (flywireField); a frame that only one capture has is named by which,
// the side and its shape (flywireShape). Each entry must differ, and
// nothing else may.
var flyweightWireDiffs = []struct{ workload, field, reason string }{
	{"udp-echo", "client ip.flags", "the flyweight sets DF on every datagram; ip.Stack.Send sets no DF"},
	{"udp-echo", "client ip.cksum", "follows ip.flags"},
	{"tcp-pp", "client ip.id", "the flyweight sends every segment with IP ID 0; ip.Stack counts one ID per datagram"},
	{"tcp-pp", "client ip.flags", "the flyweight sets DF on every segment; ip.Stack.Send sets no DF"},
	{"tcp-pp", "client ip.cksum", "follows ip.id and ip.flags"},
	{"tcp-pp", "flyweight only: client tcp A len 0",
		"FlyConn acknowledges the echo at once (it has no timers); tcp.Conn delays the ACK and Close carries it on its FIN"},
	{"nfs-read", "client ip.flags", "the flyweight sets DF on every datagram; ip.Stack.Send sets no DF"},
	{"nfs-read", "client ip.cksum", "follows ip.flags"},
	{"nfs-read", "client payload[0:4]", "the RPC xid: a flyweight numbers its requests from 0, nfs.Client from 1"},
	{"nfs-read", "server payload[0:4]", "the server echoes the request's xid"},
}

// flywireWorkload is one conversation of the comparison: the server side,
// as megascale runs it for an endpoint at address cli, and the full
// host's client side.
type flywireWorkload struct {
	kind   flyweight.Kind
	port   uint16
	server func(w *world, cli ip.Addr)
	host   func(t *testing.T, w *world, p *aegis.Process, c *host)
}

// serveEcho binds megascale's echo handler for the endpoint at cli on the
// server, first passing it to wrap unless wrap is nil.
func serveEcho(w *world, cli ip.Addr, wrap func(*core.FuncASH)) {
	srv := w.srv()
	srv.k.Spawn("echo", func(p *aegis.Process) {
		b, err := srv.eth.BindFilter(p, megaSourceFilter(cli))
		if err != nil {
			panic(err)
		}
		fa := udpEchoASH(srv, p, "mega-echo", 8)
		if wrap != nil {
			wrap(fa)
		}
		b.Handler = fa
	})
}

// flywireAtUs is when the client sends its request: the server has bound
// its filters long before.
const flywireAtUs = 2000

// flywirePayload is what a flyweight's first echo request carries: its
// sequence number 0, its id 0, then filler (flyweight's echoPayload).
func flywirePayload() []byte {
	b := make([]byte, megaPayload)
	for i := 8; i < len(b); i++ {
		b[i] = byte(i)
	}
	return b
}

var flywireWorkloads = []flywireWorkload{
	{
		kind: flyweight.UDPEcho, port: scaleEchoPort,
		server: func(w *world, cli ip.Addr) { serveEcho(w, cli, nil) },
		host: func(t *testing.T, w *world, p *aegis.Process, c *host) {
			sock := udp.NewSocket(
				ethStack(p, c, listenFilter(c.ip, ip.ProtoUDP, scaleClientPort), w.res),
				scaleClientPort, udp.Options{})
			req := flywirePayload()
			p.SleepUntil(w.prof.Cycles(flywireAtUs))
			must("flywire", sock.SendBytes(w.srv().ip, scaleEchoPort, req))
			m, err := sock.Recv(false)
			must("flywire", err)
			if !bytes.Equal(m.Bytes(c.k), req) {
				t.Errorf("udp-echo: the echo is not the request")
			}
			sock.Release(m)
		},
	},
	{
		kind: flyweight.TCPPingPong, port: scaleTCPPort,
		server: func(w *world, cli ip.Addr) {
			tbl := tcp.NewConnTable(0)
			w.srv().k.Spawn("srv", func(p *aegis.Process) {
				echoFanIn(p, w.acceptFanIn(p, scaleTCPPort, cli, tbl), tbl, megaPayload, -1)
			})
		},
		host: func(t *testing.T, w *world, p *aegis.Process, c *host) {
			p.SleepUntil(w.prof.Cycles(flywireAtUs))
			st := ethStack(p, c, listenFilter(c.ip, ip.ProtoTCP, scaleClientPort), w.res)
			conn, err := tcp.Connect(st, fanInTCPCfg(nil), scaleClientPort, w.srv().ip, scaleTCPPort)
			must("flywire", err)
			req := flywirePayload()
			must("flywire", conn.WriteBytes(req))
			buf := p.AS.MustAlloc(megaPayload, "reply")
			must("flywire", conn.ReadFull(buf.Base, megaPayload))
			if !bytes.Equal(p.AS.MustBytes(buf.Base, megaPayload), req) {
				t.Errorf("tcp-pp: the echo is not the request")
			}
			must("flywire", conn.Close())
		},
	},
	{
		kind: flyweight.NFSRead, port: scaleNFSPort,
		server: func(w *world, _ ip.Addr) {
			if fh, _ := w.startNFSD(megaFileBytes, megaNFSHighWater); uint32(fh) != uint32(nfs.RootHandle)+1 {
				panic("flywire: unexpected NFS file handle")
			}
		},
		host: func(t *testing.T, w *world, p *aegis.Process, c *host) {
			sock := udp.NewSocket(
				ethStack(p, c, listenFilter(c.ip, ip.ProtoUDP, scaleClientPort), w.res),
				scaleClientPort, udp.Options{})
			cli := nfs.NewClient(sock, w.srv().ip, scaleNFSPort)
			p.SleepUntil(w.prof.Cycles(flywireAtUs))
			b, err := cli.Read(p, nfs.RootHandle+1, 0, megaReadBytes)
			must("flywire", err)
			if len(b) != megaReadBytes {
				t.Errorf("nfs-read: read %d bytes, want %d", len(b), megaReadBytes)
			}
		},
	},
}

// frameCapture is every frame a switch delivered, whole, in order, with
// the switch port that sent it.
type frameCapture struct {
	frames [][]byte
	src    []int
}

func captureFrames(sw *netdev.Switch) *frameCapture {
	c := &frameCapture{}
	next := sw.Inject
	sw.Inject = func(pkt *netdev.PacketBuf) bool {
		c.frames = append(c.frames, bytes.Clone(pkt.Bytes()))
		c.src = append(c.src, pkt.Src)
		return next == nil || next(pkt)
	}
	return c
}

// flywireSpec is both worlds: megascale's server, with clients host
// clients of scale's size.
func flywireSpec(clients int) worldSpec {
	s := worldSpec{eth: true, fanIn: true, srvMem: fanInServerMem, srvRxBufs: fanInServerRxSlack}
	if clients > 0 {
		s.clients, s.cliMem, s.cliRxBufs = clients, scaleClientMem, scaleClientRxBufs
	}
	return s
}

// runHostClient is wl's conversation with a full client host; done, if
// not nil, reads the world after the run.
func (wl flywireWorkload) runHostClient(t *testing.T, done func(w *world)) *frameCapture {
	return inWorld(nil, flywireSpec(1), func(w *world) *frameCapture {
		c := w.cli()[0]
		wl.server(w, c.ip)
		capt := captureFrames(w.sw)
		c.k.Spawn("client", func(p *aegis.Process) { wl.host(t, w, p, c) })
		w.run()
		if done != nil {
			done(w)
		}
		return capt
	})
}

// runFlyweightClient is wl's conversation with a one-endpoint fleet; done,
// if not nil, reads the world after the run.
func (wl flywireWorkload) runFlyweightClient(t *testing.T, done func(w *world)) *frameCapture {
	return inWorld(nil, flywireSpec(0), func(w *world) *frameCapture {
		flt := megaFleet(w, wl.kind, 1, wl.port, retry.Policy{BaseUs: 800_000, Budget: 1})
		wl.server(w, flt.Addr(0))
		capt := captureFrames(w.sw)
		flt.Run(&workload.Trace{Events: []workload.Event{{AtUs: flywireAtUs, Size: megaPayload}}}, 0, 0, 0, 0)
		w.run()
		if flt.Completed() != 1 || flt.Failures != 0 {
			t.Errorf("%s: the flyweight completed %d operations, failed %d", wl.kind, flt.Completed(), flt.Failures)
		}
		if done != nil {
			done(w)
		}
		return capt
	})
}

func TestFlyweightIsAHostOnTheWire(t *testing.T) {
	for _, wl := range flywireWorkloads {
		name := wl.kind.String()
		host, fly := wl.runHostClient(t, nil), wl.runFlyweightClient(t, nil)
		for _, c := range []struct {
			side string
			capt *frameCapture
		}{{"host", host}, {"flyweight", fly}} {
			if len(c.capt.frames) < 2 {
				t.Fatalf("%s: the %s conversation put %d frames on the wire", name, c.side, len(c.capt.frames))
			}
			for i, f := range c.capt.frames {
				if err := flywireSums(f); err != nil {
					t.Errorf("%s: %s frame %d: %v", name, c.side, i, err)
				}
			}
		}
		shiftISN(host, fly)
		got := flywireDiff(host, fly)
		var want []string
		for _, d := range flyweightWireDiffs {
			if d.workload == name {
				want = append(want, d.field)
			}
		}
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s: the flyweight and the host differ in\n\t%s\nbut flyweightWireDiffs names\n\t%s",
				name, strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
		}
	}
}

// flyweightServerDiffs is the committed list of the ways the server's
// record of a flyweight's udp-echo request differs from its record of a
// host's (a serverRecord field, or an RxStats one as "Rx.<field>"), each
// with its reason. Each entry must differ, and nothing else may. A wire
// difference in flyweightWireDiffs is the reason an entry may give.
var flyweightServerDiffs = []struct{ field, reason string }{}

// serverRecord is what the server keeps of the conversation: every
// offered frame's fate, the frames its filters accepted and the DPF
// cycles they cost (the atoms walked), the echo handler's invocations and
// the cycles its body charged, and the kernel receive cost per frame
// (world.rxCost, megascale's and scale's cyc/msg and demux/msg).
type serverRecord struct {
	Rx                     aegis.RxStats
	RxFrames               uint64
	DemuxCycles            sim.Time
	Invocations            uint64
	HandlerCycles          sim.Time
	CycPerMsg, DemuxPerMsg float64
}

// fields names r's fields, an RxStats field as "Rx.<field>", with their
// values.
func (r serverRecord) fields() map[string]any {
	out := map[string]any{}
	v := reflect.ValueOf(r)
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		if f.Kind() != reflect.Struct {
			out[name] = f.Interface()
			continue
		}
		for j := 0; j < f.NumField(); j++ {
			out[name+"."+f.Type().Field(j).Name] = f.Field(j).Interface()
		}
	}
	return out
}

// TestFlyweightIsAHostAtTheServer runs one udp-echo request from a full
// client host and the same request from a one-endpoint flyweight fleet
// against megascale's server, and requires the server's records of the two
// to be equal but for the fields flyweightServerDiffs names: a server
// cannot tell a flyweight from a host by what it measures.
func TestFlyweightIsAHostAtTheServer(t *testing.T) {
	var recs [2]serverRecord
	runs := []func(flywireWorkload, *testing.T, func(*world)) *frameCapture{
		flywireWorkload.runHostClient, flywireWorkload.runFlyweightClient,
	}
	for i, run := range runs {
		var echo *core.FuncASH
		var body sim.Time
		wl := flywireWorkloads[0]
		wl.server = func(w *world, cli ip.Addr) {
			serveEcho(w, cli, func(fa *core.FuncASH) {
				echo = fa
				fn := fa.Fn
				fa.Fn = func(c *core.Ctx) aegis.Disposition {
					t0 := c.When()
					d := fn(c)
					body += c.When() - t0
					return d
				}
			})
		}
		run(wl, t, func(w *world) {
			srv := w.srv()
			r := serverRecord{Rx: srv.nic.Rx, RxFrames: srv.eth.RxFrames, DemuxCycles: srv.eth.DemuxCycles,
				Invocations: echo.Invocations, HandlerCycles: body}
			r.CycPerMsg, r.DemuxPerMsg = w.rxCost(srv)
			recs[i] = r
		})
	}
	host, fly := recs[0], recs[1]
	t.Logf("host %+v", host)
	if host.Rx.Delivered != 1 || host.Invocations != 1 || host.HandlerCycles == 0 || host.DemuxCycles == 0 {
		t.Fatalf("the host's request did not reach the echo handler once: %+v", host)
	}
	hf, ff := host.fields(), fly.fields()
	var got, want []string
	for name, v := range hf {
		if ff[name] != v {
			got = append(got, name)
		}
	}
	for _, d := range flyweightServerDiffs {
		want = append(want, d.field)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("the server's records differ in %v but flyweightServerDiffs names %v\nhost      %+v\nflyweight %+v",
			got, want, host, fly)
	}
}

// The offsets of an Ethernet frame carrying IPv4 with no options.
const (
	flywireIP  = ether.HeaderLen
	flywireL4  = ether.HeaderLen + ip.HeaderLen
	flywireUDP = flywireL4 + udp.HeaderLen
	flywireTCP = flywireL4 + tcp.HeaderLen
)

// flywireSide is who sent frame i of c: the server owns switch port 0.
func flywireSide(c *frameCapture, i int) string {
	if c.src[i] == 0 {
		return "server"
	}
	return "client"
}

// flywireShape is what a frame is, without its contents: its transport,
// TCP flags and payload length.
func flywireShape(f []byte) string {
	switch f[flywireIP+9] {
	case ip.ProtoTCP:
		return fmt.Sprintf("tcp %v len %d", tcp.Flags(f[flywireL4+13]), len(f)-flywireTCP)
	case ip.ProtoUDP:
		return fmt.Sprintf("udp len %d", len(f)-flywireUDP)
	}
	return fmt.Sprintf("ip proto %d len %d", f[flywireIP+9], len(f))
}

// flywireHeader names the header fields of a frame by the offset each
// ends at.
type flywireHeader []struct {
	end  int
	name string
}

var (
	flywireEthIP = flywireHeader{
		{6, "eth.dst"}, {12, "eth.src"}, {14, "eth.type"},
		{15, "ip.vhl"}, {16, "ip.tos"}, {18, "ip.len"}, {20, "ip.id"}, {22, "ip.flags"},
		{23, "ip.ttl"}, {24, "ip.proto"}, {26, "ip.cksum"}, {30, "ip.src"}, {34, "ip.dst"},
	}
	flywireUDPHeader = flywireHeader{{36, "udp.sport"}, {38, "udp.dport"}, {40, "udp.len"}, {42, "udp.cksum"}}
	flywireTCPHeader = flywireHeader{{36, "tcp.sport"}, {38, "tcp.dport"}, {42, "tcp.seq"}, {46, "tcp.ack"},
		{47, "tcp.off"}, {48, "tcp.flags"}, {50, "tcp.window"}, {52, "tcp.cksum"}, {54, "tcp.urg"}}
)

// flywireField names the field of frame f that byte off lies in; payload
// bytes are named by their 32-bit word.
func flywireField(f []byte, off int) string {
	l4, payload := flywireHeader(nil), flywireL4
	switch f[flywireIP+9] {
	case ip.ProtoUDP:
		l4, payload = flywireUDPHeader, flywireUDP
	case ip.ProtoTCP:
		l4, payload = flywireTCPHeader, flywireTCP
	}
	for _, h := range []flywireHeader{flywireEthIP, l4} {
		for _, fl := range h {
			if off < fl.end {
				return fl.name
			}
		}
	}
	w := (off - payload) / 4 * 4
	return fmt.Sprintf("payload[%d:%d]", w, w+4)
}

// flywireSums checks a captured frame's IPv4 header checksum and, for
// TCP, the segment's end-to-end checksum.
func flywireSums(f []byte) error {
	if len(f) < flywireL4 || f[flywireIP] != 0x45 {
		return fmt.Errorf("not IPv4 without options: % x", f[:min(len(f), flywireL4)])
	}
	if vcode.Fold16(vcode.CksumData(0, f[flywireIP:flywireL4])) != 0xffff {
		return fmt.Errorf("bad IP header checksum")
	}
	if f[flywireIP+9] == ip.ProtoTCP && vcode.Fold16(vcode.CksumData(tcpPseudo(f), f[flywireL4:])) != 0xffff {
		return fmt.Errorf("bad TCP checksum")
	}
	return nil
}

// tcpPseudo is the pseudo-header sum of the TCP segment in frame f.
func tcpPseudo(f []byte) uint32 {
	src, dst := ip.Addr(f[flywireIP+12:flywireIP+16]), ip.Addr(f[flywireIP+16:flywireIP+20])
	return ip.PseudoCksum(src, dst, ip.ProtoTCP, len(f)-flywireL4)
}

// shiftISN moves the flyweight's client sequence space onto the host's:
// every client segment's sequence number and every server segment's
// acknowledgment move by the difference of the two SYNs' sequence
// numbers, and their checksums are recomputed. Without a TCP SYN it does
// nothing.
func shiftISN(host, fly *frameCapture) {
	isn := func(c *frameCapture) (uint32, bool) {
		for i, f := range c.frames {
			if flywireSide(c, i) == "client" && f[flywireIP+9] == ip.ProtoTCP && tcp.Flags(f[flywireL4+13])&tcp.SYN != 0 {
				return binary.BigEndian.Uint32(f[flywireL4+4:]), true
			}
		}
		return 0, false
	}
	h, ok1 := isn(host)
	y, ok2 := isn(fly)
	if !ok1 || !ok2 {
		return
	}
	for i, f := range fly.frames {
		if f[flywireIP+9] != ip.ProtoTCP {
			continue
		}
		field := flywireL4 + 4 // seq
		if flywireSide(fly, i) == "server" {
			if tcp.Flags(f[flywireL4+13])&tcp.ACK == 0 {
				continue
			}
			field = flywireL4 + 8 // ack
		}
		binary.BigEndian.PutUint32(f[field:], binary.BigEndian.Uint32(f[field:])+h-y)
		binary.BigEndian.PutUint16(f[flywireL4+16:], 0)
		binary.BigEndian.PutUint16(f[flywireL4+16:], ^vcode.Fold16(vcode.CksumData(tcpPseudo(f), f[flywireL4:])))
	}
}

// flywireDiff pairs the two captures' frames by side and shape (the
// longest common subsequence, so one extra frame does not shift the rest)
// and returns, sorted, the fields in which paired frames differ and the
// frames that only one capture has.
func flywireDiff(host, fly *frameCapture) []string {
	key := func(c *frameCapture, i int) string { return flywireSide(c, i) + " " + flywireShape(c.frames[i]) }
	n, m := len(host.frames), len(fly.frames)
	lcs := make([][]int, n+1)
	for i := range lcs {
		lcs[i] = make([]int, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if key(host, i) == key(fly, j) {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else {
				lcs[i][j] = max(lcs[i+1][j], lcs[i][j+1])
			}
		}
	}
	seen := map[string]bool{}
	for i, j := 0, 0; i < n || j < m; {
		switch {
		case i < n && j < m && key(host, i) == key(fly, j):
			hf, ff := host.frames[i], fly.frames[j]
			for off := range hf {
				if hf[off] != ff[off] {
					seen[flywireSide(host, i)+" "+flywireField(hf, off)] = true
				}
			}
			i, j = i+1, j+1
		case j < m && (i == n || lcs[i][j+1] >= lcs[i+1][j]):
			seen["flyweight only: "+key(fly, j)] = true
			j++
		default:
			seen["host only: "+key(host, i)] = true
			i++
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
