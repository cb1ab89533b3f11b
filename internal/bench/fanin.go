package bench

import (
	"fmt"
	"slices"

	"ashs/internal/aegis"
	"ashs/internal/core"
	"ashs/internal/proto/ether"
	"ashs/internal/proto/ip"
	"ashs/internal/proto/nfs"
	"ashs/internal/proto/tcp"
	"ashs/internal/proto/udp"
)

// The fan-in server: what the one server host of a fan-in world runs, each
// written once. scale serves full client hosts and megascale flyweight
// endpoints; how many clients there are, which filters demultiplex them and
// how a handler is installed stay with those callers.

// udpReplyHeader appends to b the Ethernet, IP and UDP headers of a datagram
// of n payload bytes from srv to the host on switch port dst; the caller
// appends the payload. Handlers answering from the interrupt path send raw
// frames, so they build the headers a stack would have — in a scratch they
// keep, since the send copies the frame out before it returns.
func udpReplyHeader(b []byte, srv *host, dst int, sport, dport uint16, n int) []byte {
	eh := ether.Header{Dst: ether.PortMAC(dst), Src: ether.PortMAC(srv.addr()), Type: ether.TypeIPv4}
	b = eh.Marshal(b)
	ih := ip.Header{TotalLen: uint16(ip.HeaderLen + udp.HeaderLen + n),
		TTL: 64, Proto: ip.ProtoUDP, DF: true, Src: srv.ip, Dst: ip.HostAddr(dst)}
	b = ih.Marshal(b)
	uh := udp.Header{SrcPort: sport, DstPort: dport, Length: uint16(udp.HeaderLen + n)} // checksum not used
	return uh.Marshal(b)
}

// fanInTCPCfg is the connection config of the fan-in TCP workloads; a
// non-nil sys selects the server side, whose fast path runs as an ASH.
// Blocking waits (no polling): hundreds of pollers time-sharing the server
// CPU would spin each other out of the schedule.
func fanInTCPCfg(sys *core.System) tcp.Config {
	cfg := tcp.DefaultConfig()
	cfg.MSS = EthernetTCPMSS
	cfg.Polling = false
	if sys != nil {
		cfg.Mode = tcp.ModeASH
		cfg.Sys = sys
	}
	return cfg
}

// acceptFanIn accepts the one connection peer opens to the server's port,
// the way a server with per-client state does it: a per-client listen
// endpoint consumes the SYN, a 6-atom connection filter claims the rest of
// the flow before the SYN|ACK goes out, AcceptHandoff completes the
// handshake, and the shared table records ownership.
func (w *world) acceptFanIn(p *aegis.Process, port uint16, peer ip.Addr, tbl *tcp.ConnTable) *tcp.Conn {
	srv := w.srv()
	lst := ethStack(p, srv, peerFilter(srv.ip, ip.ProtoTCP, port, peer), w.res)
	d, ok, err := lst.RecvUntil(false, 0)
	if err != nil || !ok {
		panic(fmt.Sprintf("bench: fan-in listener for %s: ok=%v err=%v", peer, ok, err))
	}
	syn, isSyn := tcp.ParseSyn(d)
	lst.Release(d)
	if !isSyn {
		panic(fmt.Sprintf("bench: fan-in listener for %s got non-SYN", peer))
	}
	st := ethStack(p, srv, connFilter(srv.ip, ip.ProtoTCP, port, syn.RemoteIP, syn.RemotePort), w.res)
	conn, err := tcp.AcceptHandoff(st, fanInTCPCfg(srv.sys), port, syn)
	if err != nil {
		panic(err)
	}
	if err := tbl.Bind(conn.Tuple(), conn); err != nil {
		panic(err)
	}
	return conn
}

// udpEchoASH builds the echo handler of the UDP fan-in workloads for p: it
// answers a datagram of at least minPayload bytes from the interrupt path
// with the same payload, addressed to the switch port the frame came from,
// and leaves anything shorter to user level. It holds no per-client state,
// so one handler can serve every endpoint bound to it.
func udpEchoASH(srv *host, p *aegis.Process, name string, minPayload int) *core.FuncASH {
	var frame []byte // reply scratch, reused by every invocation
	return srv.sys.NewFuncASH(p, name, true, func(ctx *core.Ctx) aegis.Disposition {
		const off = ether.HeaderLen + ip.HeaderLen + udp.HeaderLen
		n := ctx.Entry().Len
		if n < off+minPayload {
			return aegis.DispToUser
		}
		// Header validation: the filter already pinned the flow, the
		// handler re-checks lengths.
		ctx.Straightline(48, 12)
		src, pl := ctx.Entry().Src, n-off
		frame = udpReplyHeader(frame[:0], srv, src, scaleEchoPort, scaleClientPort, pl)
		frame = appendFrame(frame, ctx.Frame(), off, pl)
		// Byte-wise echo copy out of the striped buffer.
		ctx.Straightline(2*pl, pl)
		ctx.Send(src, 0, frame)
		return aegis.DispConsumed
	})
}

// appendFrame appends data bytes [off, off+n) of f to dst.
func appendFrame(dst []byte, f aegis.Frame, off, n int) []byte {
	dst = slices.Grow(dst, n)
	f.Bytes(dst[len(dst):len(dst)+n], off, n)
	return dst[:len(dst)+n]
}

// echoFanIn is the body of one fan-in TCP server process once acceptFanIn
// has handed it conn: echo size-byte messages — rounds of them, or with
// rounds < 0 until the peer's FIN or an error ends the connection — then
// retire conn from the table and close it.
func echoFanIn(p *aegis.Process, conn *tcp.Conn, tbl *tcp.ConnTable, size, rounds int) {
	buf := p.AS.MustAlloc(size, "echo")
	for j := 0; j != rounds; j++ {
		err := conn.ReadFull(buf.Base, size)
		if err == nil {
			if _, ok := tbl.Lookup(conn.Tuple()); !ok {
				panic("bench: live fan-in connection missing from table")
			}
			err = conn.WriteFrom(buf.Base, size)
		}
		if err != nil {
			if rounds < 0 {
				break // the peer closes first: its schedule is done
			}
			panic(err)
		}
	}
	if !tbl.Remove(conn.Tuple()) {
		panic("bench: fan-in connection already removed")
	}
	_ = conn.Close()
}

// startNFSD serves one in-memory file of size bytes from a single socket on
// the server's NFS port and returns its handle and contents. The "nfsd"
// process is one reader draining one ring — fan-in pressure shows up as
// queueing — and serves forever: a duplicate request born of a client retry
// must not consume a straggler's slot, and the engine drains once the
// clients are done and the server parks on an empty ring. A positive
// highWater arms the ring's admission limit.
func (w *world) startNFSD(size, highWater int) (nfs.Handle, []byte) {
	srv, nfsd := w.srv(), nfs.NewServer()
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 7)
	}
	fh := nfsd.AddFile("fanin", data)
	srv.k.Spawn("nfsd", func(p *aegis.Process) {
		st := ethStack(p, srv, listenFilter(srv.ip, ip.ProtoUDP, scaleNFSPort), w.res)
		st.Ep.Binding().Ring().HighWater = highWater
		nfsd.Serve(p, udp.NewSocket(st, scaleNFSPort, udp.Options{}), 0)
	})
	return fh, data
}
