package ip

import (
	"bytes"
	"fmt"
	"sort"

	"ashs/internal/aegis"
	"ashs/internal/proto/link"
	"ashs/internal/sim"
)

// Resolver maps an IP destination to a link address. Over the AN2 this is
// a static table (circuits are provisioned); over the Ethernet it is ARP.
type Resolver interface {
	Resolve(p *aegis.Process, dst Addr) (link.Addr, error)
}

// StaticResolver is a fixed routing table.
type StaticResolver map[Addr]link.Addr

// Resolve implements Resolver.
func (m StaticResolver) Resolve(_ *aegis.Process, dst Addr) (link.Addr, error) {
	la, ok := m[dst]
	if !ok {
		return link.Addr{}, fmt.Errorf("ip: no route to %s", dst)
	}
	return la, nil
}

// The per-operation protocol-processing charges of the IP library, in
// cycles (DESIGN.md §1).
const (
	buildCycles sim.Time = 120 // Table II: header construction + output buffer handling
	parseCycles sim.Time = 120 // Table II: header validation + demux fields
)

// Stack is a per-process IPv4 instance over one link endpoint.
type Stack struct {
	Ep    *link.Link
	Local Addr
	Res   Resolver

	// LinkHdrLen is the bytes of link header preceding the IP header in
	// received frames (0 on AN2, 14 on Ethernet).
	LinkHdrLen int
	// PrependLink builds the link header for a resolved destination.
	PrependLink func(dst link.Addr, b []byte) []byte

	nextID uint16
	// frame is the one transmit frame, composed in place by Send and grown
	// to the largest frame this stack has sent; sending guards it.
	frame   []byte
	sending bool
	reasm   map[reasmKey]*reasmBuf
	slots   []*reasmBuf

	// Statistics.
	BadHeader, ReasmTimeouts uint64
}

type reasmKey struct {
	src   Addr
	id    uint16
	proto byte
}

type reasmBuf struct {
	seg      aegis.Segment
	have     map[int]int // fragment offset -> length
	totalLen int         // set when the MF=0 fragment arrives (-1 until then)
	inUse    bool
	deadline sim.Time
}

// ReasmBufSize bounds a reassembled datagram.
const ReasmBufSize = 64 * 1024

// ReasmSlots is the number of concurrent reassemblies a stack supports.
const ReasmSlots = 4

// ReasmTimeout is how long fragments are held (RFC 791 suggests 15s+).
const reasmTimeoutUs = 2_000_000 // 2 simulated seconds

// NewStack builds an IP instance for the endpoint's owner. Reassembly
// buffers are allocated lazily on first fragment arrival (see allocSlot):
// unfragmented workloads never pay the ReasmSlots×64-KB footprint, which
// is what lets a many-hundred-client fan-in world run hundreds of stacks
// inside small kernels.
func NewStack(ep *link.Link, local Addr, res Resolver) *Stack {
	return &Stack{
		Ep: ep, Local: local, Res: res,
		reasm: map[reasmKey]*reasmBuf{},
	}
}

// MTU is the largest IP datagram the link carries unfragmented.
func (s *Stack) MTU() int { return s.Ep.MTU() - s.LinkHdrLen }

// maxFragPayload is the largest transport payload per fragment.
func (s *Stack) maxFragPayload() int {
	return (s.MTU() - HeaderLen) &^ 7 // fragment data is 8-byte aligned
}

// Send transmits the datagram hdr‖payload — a transport header, then
// application bytes as the address space lent them — to dst, fragmenting if
// needed. The caller has already charged transport-level costs; Send charges
// IP header construction per fragment.
//
// Each fragment is composed once, in the stack's own transmit frame, before
// the charge and the link's system call block: whatever a handler does to the
// lent payload meanwhile, the wire gets the bytes captured here, and the copy
// into the wire buffer (after the system call) stays the only other one.
func (s *Stack) Send(proto byte, dst Addr, hdr, payload []byte) error {
	p := s.Ep.Owner()
	if s.sending {
		panic(fmt.Sprintf("ip: Stack.Send re-entered while %s's send is in progress: a stack is its owner's alone", p.Name))
	}
	s.sending = true
	defer func() { s.sending = false }()
	la, err := s.Res.Resolve(p, dst)
	if err != nil {
		return err
	}
	id := s.nextID
	s.nextID++

	total := len(hdr) + len(payload)
	step := total // one datagram unless it exceeds the MTU
	if HeaderLen+total > s.MTU() {
		if step = s.maxFragPayload(); step <= 0 {
			return fmt.Errorf("ip: MTU %d too small to fragment", s.MTU())
		}
	}
	for off := 0; ; off += step {
		end := min(off+step, total)
		h := Header{TotalLen: uint16(HeaderLen + end - off), ID: id, TTL: 64,
			Proto: proto, Src: s.Local, Dst: dst, MF: end < total, FragOff: off}
		if need := s.LinkHdrLen + int(h.TotalLen); cap(s.frame) < need {
			s.frame = make([]byte, 0, need) // at most LinkHdrLen+MTU: the largest frame sent so far
		}
		f := s.frame[:0]
		if s.PrependLink != nil {
			f = s.PrependLink(la, f)
		}
		f = h.Marshal(f)
		// [off, end) of the logical concatenation: the header/payload
		// boundary may fall anywhere in a fragment, or on its edge.
		if off < len(hdr) {
			f = append(f, hdr[off:min(end, len(hdr))]...)
		}
		if end > len(hdr) {
			f = append(f, payload[max(off, len(hdr))-len(hdr):end-len(hdr)]...)
		}
		p.Compute(buildCycles)
		s.Ep.Send(la, f)
		if end == total {
			return nil
		}
	}
}

// Dgram is a received, complete IP datagram. Unfragmented datagrams stay
// in their receive buffer (zero copy until the transport decides);
// reassembled ones live in a stack-owned buffer.
type Dgram struct {
	Hdr Header
	// Frame backs the payload: either the receive buffer (Off is the
	// transport payload's offset) or a contiguous frame over the
	// reassembly buffer.
	Frame aegis.Frame
	Off   int
	// Doorbell marks a zero-length kernel notification (a downloaded
	// handler consumed a message and is waking the library to re-examine
	// shared state). Doorbells carry no data and need no Release.
	Doorbell bool
	slot     *reasmBuf
}

// PayloadLen is the transport payload length.
func (d *Dgram) PayloadLen() int { return int(d.Hdr.TotalLen) - HeaderLen }

// Recv returns the next complete datagram addressed to this stack,
// processing fragments as they arrive. It charges IP parse costs per
// frame examined.
func (s *Stack) Recv(polling bool) (Dgram, error) {
	d, _, err := s.RecvUntil(polling, 0)
	return d, err
}

// RecvUntil is Recv with an absolute deadline (0 = none); ok is false on
// timeout. Doorbell notifications are returned to the caller.
func (s *Stack) RecvUntil(polling bool, deadline sim.Time) (Dgram, bool, error) {
	for {
		f, got := s.Ep.RecvUntil(polling, deadline)
		if !got {
			return Dgram{}, false, nil
		}
		if f.Entry.Len == 0 && f.Entry.BufIndex < 0 {
			return Dgram{Doorbell: true}, true, nil
		}
		d, ok, err := s.Input(f)
		if err != nil {
			return Dgram{}, false, err
		}
		if ok {
			return d, true, nil
		}
	}
}

// Input processes one received frame: ok reports whether a complete
// datagram is ready. Frames that do not produce a datagram (bad, not ours,
// mid-reassembly) are released internally.
func (s *Stack) Input(f aegis.Frame) (Dgram, bool, error) {
	p := s.Ep.Owner()
	p.Compute(parseCycles)

	hdrBytes := make([]byte, HeaderLen)
	if f.Len() < s.LinkHdrLen+HeaderLen {
		s.BadHeader++
		s.Ep.Release(f)
		return Dgram{}, false, nil
	}
	f.Bytes(hdrBytes, s.LinkHdrLen, HeaderLen)
	// Parse sees only the fixed header, so a datagram with options fails
	// its IHL check: every payload below starts at LinkHdrLen+HeaderLen. A
	// datagram with no payload is refused too; as a fragment it would
	// never advance complete's walk. The library sends neither.
	h, err := Parse(hdrBytes)
	if err != nil || h.TotalLen == HeaderLen {
		s.BadHeader++
		s.Ep.Release(f)
		return Dgram{}, false, nil
	}
	if h.Dst != s.Local {
		s.Ep.Release(f)
		return Dgram{}, false, nil
	}
	if s.LinkHdrLen+int(h.TotalLen) > f.Len() {
		// Truncated datagram (frame shorter than the header claims).
		s.BadHeader++
		s.Ep.Release(f)
		return Dgram{}, false, nil
	}
	if !h.MF && h.FragOff == 0 {
		return Dgram{Hdr: h, Frame: f, Off: s.LinkHdrLen + HeaderLen}, true, nil
	}
	return s.inputFragment(h, f)
}

// inputFragment folds one fragment into its reassembly buffer.
func (s *Stack) inputFragment(h Header, f aegis.Frame) (Dgram, bool, error) {
	p := s.Ep.Owner()
	now := s.Ep.Kernel().Now()
	s.sweepReasm(now)
	key := reasmKey{src: h.Src, id: h.ID, proto: h.Proto}
	buf := s.reasm[key]
	if buf == nil {
		buf = s.allocSlot(now)
		if buf == nil {
			// All slots busy: drop the fragment.
			s.Ep.Release(f)
			return Dgram{}, false, nil
		}
		if buf.have == nil {
			buf.have = map[int]int{}
		}
		buf.totalLen = -1
		s.reasm[key] = buf
	}
	buf.deadline = now + s.Ep.Kernel().Prof.Cycles(reasmTimeoutUs)

	n := int(h.TotalLen) - HeaderLen
	if h.FragOff+n > ReasmBufSize {
		s.Ep.Release(f)
		return Dgram{}, false, nil
	}
	// Copy the fragment payload into place (a real, charged copy: this is
	// the cost fragmentation imposes).
	link.CopyFromFrame(p, f, s.LinkHdrLen+HeaderLen, buf.seg.Base+uint32(h.FragOff), n, false)
	buf.have[h.FragOff] = n
	if !h.MF {
		buf.totalLen = h.FragOff + n
	}
	s.Ep.Release(f)

	if buf.totalLen >= 0 && s.complete(buf) {
		delete(s.reasm, key)
		h.TotalLen = uint16(HeaderLen + buf.totalLen)
		h.MF = false
		h.FragOff = 0
		d := Dgram{
			Hdr:   h,
			Frame: aegis.ContiguousFrame(s.Ep.Kernel().Mem, buf.seg.Base, buf.totalLen),
			Off:   0,
			slot:  buf,
		}
		return d, true, nil
	}
	return Dgram{}, false, nil
}

// sweepReasm evicts reassemblies whose timers expired, freeing their
// slots. Under sustained fragment loss incomplete datagrams never finish,
// and without proactive eviction they pin every slot until a new arrival
// happens to need one — with eviction the slots cycle and fresh datagrams
// keep completing.
func (s *Stack) sweepReasm(now sim.Time) {
	for k, sl := range s.reasm {
		if now > sl.deadline {
			delete(s.reasm, k)
			s.ReasmTimeouts++
			sl.have = nil
			sl.inUse = false
		}
	}
}

func (s *Stack) allocSlot(now sim.Time) *reasmBuf {
	for _, sl := range s.slots {
		if !sl.inUse {
			sl.inUse = true
			return sl
		}
	}
	if len(s.slots) < ReasmSlots {
		// First fragments to need a slot grow the pool, up to ReasmSlots.
		// An allocation failure just drops this fragment — reassembly is
		// best-effort and the sender retransmits.
		seg, err := s.Ep.Owner().AS.Alloc(ReasmBufSize, fmt.Sprintf("ip-reasm-%d", len(s.slots)))
		if err == nil {
			sl := &reasmBuf{seg: seg, inUse: true}
			s.slots = append(s.slots, sl)
			return sl
		}
	}
	// Reclaim an expired reassembly (backstop; sweepReasm normally already
	// freed them). The victim is chosen by earliest deadline with the key
	// as tie-break, so the choice is independent of map iteration order.
	var expired []reasmKey
	for k, sl := range s.reasm {
		if now > sl.deadline {
			expired = append(expired, k)
		}
	}
	if len(expired) == 0 {
		return nil
	}
	sort.Slice(expired, func(i, j int) bool {
		a, b := expired[i], expired[j]
		if da, db := s.reasm[a].deadline, s.reasm[b].deadline; da != db {
			return da < db
		}
		if c := bytes.Compare(a.src[:], b.src[:]); c != 0 {
			return c < 0
		}
		if a.id != b.id {
			return a.id < b.id
		}
		return a.proto < b.proto
	})
	k := expired[0]
	sl := s.reasm[k]
	delete(s.reasm, k)
	s.ReasmTimeouts++
	clear(sl.have)
	return sl
}

func (s *Stack) complete(buf *reasmBuf) bool {
	off := 0
	for off < buf.totalLen {
		n, ok := buf.have[off]
		if !ok {
			return false
		}
		off += n
	}
	return true
}

// Release returns a datagram's underlying storage.
func (s *Stack) Release(d Dgram) {
	if d.slot != nil {
		d.slot.inUse = false
		clear(d.slot.have)
		return
	}
	s.Ep.Release(d.Frame)
}
