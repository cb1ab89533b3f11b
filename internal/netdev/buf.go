package netdev

// PacketBuf is a frame in flight, leased from a switch's BufPool. The
// lease discipline is explicit, exokernel-style resource ownership:
//
//   - Lease hands out a buffer with exactly one owner, the caller.
//   - Transmit and Redeliver consume the caller's lease; after either
//     call the caller must not touch the buffer again.
//   - A receiver borrows the frame for the rx callback only (the switch
//     still owns it and releases it when the callback returns); what the
//     receiver keeps, it copies.
//   - Release ends the lease and recycles the buffer into the pool.
//     Releasing a buffer that is already free panics.
//
// VC carries the ATM virtual-circuit identifier on AN2 links (ignored on
// Ethernet).
type PacketBuf struct {
	Src, Dst int // port addresses
	VC       int

	// FCS is the frame check sequence over the payload. A frame is sealed
	// (Seal) only where something can damage it: a switch with an injector
	// seals every frame before the injector sees it. Receiving boards ask
	// Intact and discard frames whose payload was damaged in flight. An
	// injector that mutates the payload without refreshing FCS models wire
	// corruption the board catches; refreshing it models corruption that
	// sneaks past the CRC and must be caught by the end-to-end checksums.
	FCS uint32

	pool   *BufPool
	leased bool
	sealed bool   // FCS is the check of the payload as it was sealed
	buf    []byte // backing store, cap fixed at the pool's frame size
	n      int
	next   *PacketBuf // pool freelist
}

// Bytes is the frame payload. The slice aliases pooled storage: it is
// valid only while the caller holds or borrows the lease.
func (b *PacketBuf) Bytes() []byte { return b.buf[:b.n] }

// Len reports the payload length.
func (b *PacketBuf) Len() int { return b.n }

// Seal computes the frame check sequence over the payload as it is now.
// An injector that refreshes the FCS after damaging a frame seals it again.
func (b *PacketBuf) Seal() { b.FCS, b.sealed = FrameCheck(b.Bytes()), true }

// Intact reports whether the payload still matches its frame check. A
// frame never sealed is intact: the switch seals every frame an injector
// sees, and nothing else touches a frame in flight.
func (b *PacketBuf) Intact() bool { return !b.sealed || b.FCS == FrameCheck(b.Bytes()) }

// SetData copies d into the buffer, replacing the payload. Payloads
// beyond the pool's frame size grow this buffer's backing store (the
// switch still rejects them at Transmit; growing keeps that error path
// reachable instead of turning it into a pool panic).
func (b *PacketBuf) SetData(d []byte) {
	if len(d) > cap(b.buf) {
		b.buf = make([]byte, len(d))
	}
	b.n = copy(b.buf, d)
}

// Release ends the lease and recycles the buffer into its pool. Releasing
// an already-free buffer panics — a double release means two owners both
// believed the frame was theirs, which the lease API exists to make
// impossible.
func (b *PacketBuf) Release() {
	if !b.leased {
		panic("netdev: double Release of PacketBuf")
	}
	b.leased = false
	p := b.pool
	p.inUse--
	p.Releases++
	b.n = 0
	b.Src, b.Dst, b.VC, b.FCS, b.sealed = 0, 0, 0, 0, false
	b.next = p.free
	p.free = b
}

// BufPool recycles PacketBufs of one frame size. Pools are per-switch and
// single-threaded like everything else under one engine; the accounting
// fields make leaks observable — a drained simulation must end with
// InUse() == 0.
type BufPool struct {
	frameCap int
	free     *PacketBuf
	inUse    int

	// Leases and Releases count lifecycle events since the pool was
	// created; Grown counts buffers ever minted. In steady state Grown
	// stops moving: every lease is served from the freelist.
	Leases, Releases uint64
	Grown            uint64
}

// NewBufPool creates a pool whose buffers hold frames up to frameCap bytes.
func NewBufPool(frameCap int) *BufPool {
	return &BufPool{frameCap: frameCap}
}

// Lease takes a zero-length buffer from the pool; the caller owns it.
func (p *BufPool) Lease() *PacketBuf {
	b := p.free
	if b != nil {
		p.free = b.next
		b.next = nil
	} else {
		b = &PacketBuf{pool: p, buf: make([]byte, p.frameCap)}
		p.Grown++
	}
	b.leased = true
	p.inUse++
	p.Leases++
	return b
}

// InUse reports the number of leased buffers not yet released.
func (p *BufPool) InUse() int { return p.inUse }
