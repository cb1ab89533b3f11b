// Package bufdiscipline is ashlint/bufdiscipline's golden file: a
// miniature of internal/netdev's buffer-lease API with each contract
// violation seeded alongside its idiomatic fix.
package bufdiscipline

import "errors"

type PacketBuf struct {
	Src, Dst, VC int
	leased       bool
	n            int
}

func (b *PacketBuf) Release()         { b.leased = false }
func (b *PacketBuf) Len() int         { return b.n }
func (b *PacketBuf) Bytes() []byte    { return nil }
func (b *PacketBuf) SetData(d []byte) { b.n = len(d) }

type BufPool struct{ free []*PacketBuf }

func (p *BufPool) Lease() *PacketBuf { return &PacketBuf{leased: true} }

type Switch struct{ Pool *BufPool }

func (s *Switch) LeaseData(data []byte) *PacketBuf {
	b := s.Pool.Lease()
	b.SetData(data)
	return b
}

func (s *Switch) Redeliver(pkt *PacketBuf) { pkt.Release() }

type Port struct{ sw *Switch }

func (p *Port) Transmit(pkt *PacketBuf) error {
	pkt.Release()
	return nil
}

// An endpoint whose Release takes the frame as an argument — the
// unrelated-method shape the analyzer must not confuse with
// PacketBuf.Release.
type Endpoint struct{}
type Frame struct{}

func (e *Endpoint) Release(f *Frame) {}
func (e *Endpoint) Recv() *Frame     { return &Frame{} }

// --- no use after Release --------------------------------------------

func useAfterRelease(s *Switch, d []byte) int {
	pkt := s.LeaseData(d)
	pkt.Release()
	return pkt.Len() // want "pkt used after Release"
}

func doubleRelease(s *Switch, d []byte) {
	pkt := s.LeaseData(d)
	pkt.Release()
	pkt.Release() // want "pkt used after Release"
}

// earlyErrorRelease is the sanctioned idiom: a Release inside a branch
// that returns leaves the fall-through path's reference intact.
func earlyErrorRelease(p *Port, s *Switch, d []byte) error {
	pkt := s.LeaseData(d)
	if pkt.Len() > 1500 {
		pkt.Release()
		return errors.New("too big")
	}
	pkt.Dst = 1
	return p.Transmit(pkt)
}

func maybeReleased(s *Switch, d []byte, drop bool) {
	pkt := s.LeaseData(d)
	if drop {
		pkt.Release()
	}
	pkt.Dst = 1 // want "pkt used after Release"
	pkt.Release()
}

// releaseThenRelease reuses the name for a fresh lease; the second
// Release is of the new buffer, not the old one.
func releaseThenRelease(s *Switch, d []byte) {
	pkt := s.LeaseData(d)
	pkt.Release()
	pkt = s.LeaseData(d)
	pkt.Release()
}

// endpointRelease exercises the unrelated Release(frame) shape: the
// frame stays usable after the endpoint-style call.
func endpointRelease(e *Endpoint) *Frame {
	f := e.Recv()
	e.Release(f)
	return f
}

// --- no leaked lease -------------------------------------------------

func leakedLease(s *Switch, d []byte) int {
	pkt := s.LeaseData(d) // want "lease bound to pkt never reaches Release"
	pkt.Dst = 3
	return pkt.Len()
}

func droppedLease(s *Switch, d []byte) {
	s.LeaseData(d) // want "lease result dropped"
}

func blankLease(s *Switch, d []byte) {
	_ = s.LeaseData(d) // want "lease result dropped"
}

func dischargedByTransmit(p *Port, s *Switch, d []byte) error {
	pkt := s.LeaseData(d)
	pkt.Dst = 1
	return p.Transmit(pkt)
}

func dischargedByRelease(s *Switch, d []byte) int {
	pkt := s.LeaseData(d)
	n := pkt.Len()
	pkt.Release()
	return n
}

func dischargedByReturn(s *Switch, d []byte) *PacketBuf {
	pkt := s.LeaseData(d)
	pkt.VC = 7
	return pkt
}

type queuedSend struct {
	pkt *PacketBuf
	dst int
}

func dischargedByStore(s *Switch, d []byte, q []queuedSend) []queuedSend {
	pkt := s.LeaseData(d)
	return append(q, queuedSend{pkt: pkt, dst: pkt.Dst})
}

// escapesInPlace consumes the lease where it is minted — nothing to
// track.
func escapesInPlace(p *Port, s *Switch, d []byte) error {
	return p.Transmit(s.LeaseData(d))
}
