package tcp

import (
	"encoding/binary"

	"ashs/internal/aegis"
	"ashs/internal/core"
	"ashs/internal/pipe"
	"ashs/internal/proto/ip"
	"ashs/internal/proto/link"
	"ashs/internal/vcode"
)

// fastPath is the downloaded common-case receive handler of Section V-B:
// "Our TCP implementation lowers the cost of data transfer by placing the
// common-case fast path in a handler which can be run either as an ASH or
// an upcall. This handler employs dynamic ILP to combine the checksum and
// copy of message data."
//
// The handler runs when three constraints hold: the packet is expected
// (header prediction), the user-level library is not using the TCB, and
// the library is not behind in processing. Otherwise it aborts and the
// message is handled by the user-level library.
type fastPath struct {
	c     *Conn
	sys   *core.System
	fa    *core.FuncASH
	up    *aegis.Upcall
	engID int // DILP engine: integrated copy(+checksum)

	remote link.Addr // pre-resolved reply destination
	ack    []byte    // scratch for the ACK frame the handler sends
}

// installFastPath compiles the handler's DILP engine, downloads the
// handler in the configured placement, and attaches it upstream of the
// connection's ring.
func installFastPath(c *Conn) {
	sys := c.Cfg.Sys
	if sys == nil {
		panic("tcp: handler mode requires Config.Sys (the host's ASH system)")
	}
	f := &fastPath{c: c, sys: sys}

	// Dynamic ILP: compose the transfer engine at runtime from the pipes
	// this connection needs — exactly the Fig. 1 flow.
	pl := pipe.NewList(1)
	if c.Cfg.Checksum {
		if _, _, err := pipe.Cksum(pl); err != nil {
			panic(err)
		}
	}
	eng, err := pipe.Compile(pl, pipe.Options{Output: true})
	if err != nil {
		panic(err)
	}
	f.engID = sys.RegisterEngine(eng)

	la, err := c.St.Res.Resolve(c.owner(), c.remoteIP)
	if err != nil {
		panic(err)
	}
	f.remote = la
	f.ack = make([]byte, 0, c.St.LinkHdrLen+ip.HeaderLen+HeaderLen)

	switch c.Cfg.Mode {
	case ModeASH:
		f.fa = sys.NewFuncASH(c.owner(), "tcp-fastpath", true, f.handle)
		c.St.Ep.InstallHandler(f.fa)
		f.fa.OnTrip(func() { c.St.Ep.InstallHandler(nil) })
	case ModeASHUnsafe:
		f.fa = sys.NewFuncASH(c.owner(), "tcp-fastpath", false, f.handle)
		c.St.Ep.InstallHandler(f.fa)
		f.fa.OnTrip(func() { c.St.Ep.InstallHandler(nil) })
	case ModeUpcall:
		f.up = aegis.NewUpcall(c.owner(), func(mc *aegis.MsgCtx) aegis.Disposition {
			return f.handle(sys.UpcallCtx(mc))
		})
		c.St.Ep.InstallUpcall(f.up)
	}
}

// abort returns the message to the kernel for normal (user-level)
// handling, counting a data segment the library must process in order.
func (f *fastPath) abort(isData bool) aegis.Disposition {
	f.c.HandlerAborts++
	if isData {
		f.c.slowQueued++
	}
	return aegis.DispToUser
}

// fastHdrMax bounds the header region the handler gathers out of a
// striped buffer: link header + maximum IP header + maximum TCP header.
const fastHdrMax = 160

// fastStripedMax is the largest striped payload the handler moves itself
// (with checked byte accesses through the stripe); larger segments defer
// to the stripe-aware library. Small enough that the bytewise move stays
// cheaper than the library path, large enough for small-message ping-pong
// traffic — the workload this placement exists for.
const fastStripedMax = 2 * aegis.StripeChunk

// handle is the handler body. It models its straight-line protocol code
// with explicit instruction counts (the paper's remote-increment handler
// measures a 90-instruction base; header prediction is of that order) and
// uses kernel services — DILP, message send — for the heavy lifting.
func (f *fastPath) handle(ctx *core.Ctx) aegis.Disposition {
	c := f.c
	e := ctx.Entry()

	// Parse IP + TCP headers and run the prediction checks: ~90
	// instructions, mostly loads from the (uncached) message.
	ctx.Straightline(90, 14)

	ipOff := c.St.LinkHdrLen
	n := e.Len
	if n < ipOff+ip.HeaderLen+HeaderLen {
		return f.abort(false)
	}
	// Over the AN2 the DMA layout is contiguous and the message is
	// addressed in place. The Ethernet's DMA leaves the frame *striped*
	// (16 data bytes, 16 pad, repeating): the handler gathers the header
	// region into a scratch with word reads through the stripe and only
	// handles small payloads itself (see fastStripedMax).
	fr := ctx.Frame()
	var data []byte
	if fr.Striped {
		hdrN := min(n, fastHdrMax)
		var gathered [fastHdrMax]byte
		fr.Bytes(gathered[:], 0, hdrN)
		ctx.Straightline(hdrN/2, hdrN/4)
		data = gathered[:hdrN]
	} else {
		data = ctx.Data()
	}
	if data[ipOff]>>4 != 4 || data[ipOff+9] != ip.ProtoTCP {
		return f.abort(false)
	}
	totalLen := int(binary.BigEndian.Uint16(data[ipOff+2:]))
	ihl := int(data[ipOff]&0xf) * 4
	tcpOff := ipOff + ihl
	// The handler runs on raw board-accepted bytes, so a corrupted IHL or
	// total length that slipped past the link CRC must not drive its
	// indexing: anything out of range defers to the library, whose full
	// input path validates the header checksums.
	if ihl < ip.HeaderLen || tcpOff+HeaderLen > len(data) {
		return f.abort(false)
	}
	h, dataOff, err := Parse(data[tcpOff:])
	if err != nil || h.DstPort != c.localPort || h.SrcPort != c.remotePort {
		return f.abort(false)
	}
	plen := totalLen - ihl - dataOff
	if plen < 0 || tcpOff+dataOff+plen > n {
		return f.abort(false)
	}
	isData := plen > 0

	// Constraint: the packet is "expected".
	if h.Flags&^(ACK|PSH) != 0 || h.Flags&ACK == 0 {
		return f.abort(isData)
	}
	if c.state != Established {
		return f.abort(isData)
	}
	if isData && h.Seq != c.rcvNxt {
		return f.abort(isData)
	}
	if !seqLE(h.Ack, c.sndNxt) {
		return f.abort(isData)
	}
	// Constraint: the user-level library is not using the TCB.
	if c.tcbLocked {
		return f.abort(isData)
	}
	// Constraint: the library is not behind (messages must stay in order).
	if c.slowQueued > 0 {
		return f.abort(isData)
	}

	if isData {
		if c.hrTail-c.hrHead+plen > window {
			return f.abort(isData) // no ring space: library path decides
		}
		var acc uint32
		aligned := plen &^ 3
		if fr.Striped {
			// Striped small-message path: every payload byte moves with a
			// checked access through the stripe. DILP's word loop would
			// fault on the pad lines, so the handler caps what it moves.
			if plen > fastStripedMax {
				return f.abort(isData)
			}
			aligned = 0
		} else {
			// Integrated checksum-and-copy straight into the application's
			// receive ring via dynamic ILP.
			srcAddr := e.Addr + uint32(tcpOff+dataOff)
			pos := c.hrTail % window
			first := min(aligned, window-pos)
			first &^= 3
			a1, errD := ctx.DILP(f.engID, srcAddr, c.hring.Base+uint32(pos), first)
			if errD != nil {
				return f.abort(isData)
			}
			acc = a1
			if aligned > first {
				a2, errD := ctx.DILP(f.engID, srcAddr+uint32(first), c.hring.Base, aligned-first)
				if errD != nil {
					return f.abort(isData)
				}
				acc = vcode.CksumAdd(acc, a2)
			}
		}
		// The rest of the bytes (the < 4-byte tail, or the whole striped
		// payload): moved with checked single-byte accesses.
		for i := aligned; i < plen; i++ {
			ctx.Straightline(3, 2)
			b := fr.Byte(tcpOff + dataOff + i)
			dstPos := (c.hrTail + i) % window
			f.ringBytes()[dstPos] = b
			if i%2 == 0 {
				acc = vcode.CksumAdd(acc, uint32(b)<<8)
			} else {
				acc = vcode.CksumAdd(acc, uint32(b))
			}
		}

		if c.Cfg.Checksum {
			// Fold in pseudo-header and TCP header; verify.
			ctx.Straightline(24, 2)
			want := ip.PseudoCksum(d(srcIP(data, ipOff)), d(dstIP(data, ipOff)), ip.ProtoTCP, totalLen-ihl)
			want += h.headerAccum() + uint32(h.Checksum)
			if vcode.Fold16(vcode.CksumAdd(want, acc)) != 0xffff {
				c.BadChecksum++
				// Drop silently: state untouched (hrTail uncommitted), the
				// peer retransmits.
				return aegis.DispConsumed
			}
		}
		// Commit.
		c.hrTail += plen
		c.rcvNxt += uint32(plen)
		c.unacked += plen
	} else if c.Cfg.Checksum {
		ctx.Straightline(30, 4) // verify header-only checksum
	}

	// Protocol bookkeeping beyond the parse: TCB update, receive-ring
	// accounting, timer maintenance, delivery state. The paper's TCP fast
	// path is a substantial compiled-C handler (the remote-increment
	// handler alone is 90 instructions); its bookkeeping grows with the
	// amount of data delivered (ring arithmetic, buffer descriptors).
	if isData {
		ctx.Straightline(250+plen/16, 90+plen/32)
	} else {
		ctx.Straightline(150, 50)
	}

	// ACK processing (send side advance).
	if seqLT(c.sndUna, h.Ack) && seqLE(h.Ack, c.sndNxt) {
		c.sndUna = h.Ack
	}
	c.updateWindow(h.Seq, h.Ack, int(h.Window))

	// Acknowledgment policy: force an ACK from the handler once 2 MSS of
	// data is unacknowledged (keeps the sender's window moving even when
	// the application is not scheduled); otherwise leave it to piggyback
	// on the application's next write or the library's delayed-ACK timer.
	if c.unacked >= 2*c.Cfg.MSS {
		f.sendAckFromHandler(ctx)
	} else if c.unacked > 0 && !c.ackDue {
		c.ackDue = true
		c.ackDeadline = c.now() + c.kern().Prof.Cycles(ackDelayUs)
	}

	c.HandlerConsumed++
	ctx.Doorbell()
	return aegis.DispConsumed
}

// ringBytes is the raw handler-ring view.
func (f *fastPath) ringBytes() []byte {
	return f.c.kern().Bytes(f.c.hring.Base, window)
}

// sendAckFromHandler builds and initiates a bare ACK from handler context
// — message initiation without a system call (for ASHs).
func (f *fastPath) sendAckFromHandler(ctx *core.Ctx) {
	c := f.c
	ctx.Straightline(60, 8) // header construction
	h := Header{
		SrcPort: c.localPort, DstPort: c.remotePort,
		Seq: c.sndNxt, Ack: c.rcvNxt, Flags: ACK,
		Window: uint16(c.advertisedWindow()),
	}
	if c.Cfg.Checksum {
		acc := ip.PseudoCksum(c.St.Local, c.remoteIP, ip.ProtoTCP, HeaderLen)
		acc += h.headerAccum()
		h.Checksum = ^vcode.Fold16(acc)
	}
	iph := ip.Header{TotalLen: uint16(ip.HeaderLen + HeaderLen), TTL: 64,
		Proto: ip.ProtoTCP, Src: c.St.Local, Dst: c.remoteIP}
	buf := f.ack[:0] // ctx.Send copies it out at once
	if c.St.PrependLink != nil {
		buf = c.St.PrependLink(f.remote, buf)
	}
	buf = iph.Marshal(buf)
	buf = h.Marshal(buf)
	ctx.Send(f.remote.Port, f.remote.VC, buf)
	c.unacked = 0
	c.ackDue = false
}

// srcIP / dstIP extract addresses from a raw IP header.
func srcIP(data []byte, off int) [4]byte {
	var a [4]byte
	copy(a[:], data[off+12:off+16])
	return a
}
func dstIP(data []byte, off int) [4]byte {
	var a [4]byte
	copy(a[:], data[off+16:off+20])
	return a
}
func d(a [4]byte) ip.Addr { return ip.Addr(a) }
