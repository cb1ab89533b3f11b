package tcp

import (
	"fmt"

	"ashs/internal/proto/ip"
)

// FourTuple identifies one connection: (local addr, local port, remote
// addr, remote port).
type FourTuple struct {
	LocalIP    ip.Addr
	LocalPort  uint16
	RemoteIP   ip.Addr
	RemotePort uint16
}

func (t FourTuple) String() string {
	return fmt.Sprintf("%s:%d<-%s:%d", t.LocalIP, t.LocalPort, t.RemoteIP, t.RemotePort)
}

// hash is FNV-1a over the tuple's 12 wire bytes.
func (t FourTuple) hash() uint32 {
	h := uint32(2166136261)
	step := func(b byte) {
		h ^= uint32(b)
		h *= 16777619
	}
	for _, b := range t.LocalIP {
		step(b)
	}
	step(byte(t.LocalPort >> 8))
	step(byte(t.LocalPort))
	for _, b := range t.RemoteIP {
		step(b)
	}
	step(byte(t.RemotePort >> 8))
	step(byte(t.RemotePort))
	// The table indexes by the low bits, and FNV's final multiply mixes
	// entropy upward only; fold the high half back down.
	return h ^ h>>16
}

// ConnTable maps connection four-tuples to established connections with a
// hashed, bucketed table: lookup cost is O(1) in the number of
// connections, so a server accepting hundreds of concurrent clients pays
// the same per-segment routing cost as one serving a single client. A
// connection is published only after it is fully constructed and removed
// before it is torn down, so a successful lookup never observes a
// half-built or closed Conn. Like everything else in a world it is touched
// by one goroutine at a time (DESIGN.md §9) and takes no locks.
type ConnTable struct {
	buckets []map[FourTuple]*Conn
}

// NewConnTable builds a table with nbuckets hash buckets (rounded up to a
// power of two; <= 0 selects a default suitable for hundreds of
// connections).
func NewConnTable(nbuckets int) *ConnTable {
	if nbuckets <= 0 {
		nbuckets = 64
	}
	n := 1
	for n < nbuckets {
		n <<= 1
	}
	t := &ConnTable{buckets: make([]map[FourTuple]*Conn, n)}
	for i := range t.buckets {
		t.buckets[i] = map[FourTuple]*Conn{}
	}
	return t
}

func (t *ConnTable) bucket(k FourTuple) map[FourTuple]*Conn {
	return t.buckets[k.hash()&uint32(len(t.buckets)-1)]
}

// Bind publishes an established connection under its tuple. The caller
// must pass a fully constructed Conn; a duplicate tuple is an error (the
// listener rejects the SYN rather than shadowing a live connection).
func (t *ConnTable) Bind(k FourTuple, c *Conn) error {
	if c == nil {
		panic("tcp: ConnTable.Bind of nil Conn")
	}
	b := t.bucket(k)
	if _, dup := b[k]; dup {
		return fmt.Errorf("tcp: connection %s already bound", k)
	}
	b[k] = c
	return nil
}

// Lookup returns the connection bound under k, if any.
func (t *ConnTable) Lookup(k FourTuple) (*Conn, bool) {
	c, ok := t.bucket(k)[k]
	return c, ok
}

// Remove unpublishes k. It reports whether the tuple was present; callers
// remove a connection from the table *before* closing it.
func (t *ConnTable) Remove(k FourTuple) bool {
	b := t.bucket(k)
	_, ok := b[k]
	delete(b, k)
	return ok
}

// Loads reports the number of bound connections per bucket, in bucket
// order. The megascale experiment uses it to show the FNV fold spreads a
// large fan-in across buckets (max/mean near 1) instead of piling the
// whole fleet into a few chains.
func (t *ConnTable) Loads() []int {
	out := make([]int, len(t.buckets))
	for i, b := range t.buckets {
		out[i] = len(b)
	}
	return out
}

// Len counts bound connections.
func (t *ConnTable) Len() int {
	n := 0
	for _, b := range t.buckets {
		n += len(b)
	}
	return n
}

// SynInfo captures the handoff-relevant fields of a SYN segment a
// listening endpoint consumed.
type SynInfo struct {
	RemoteIP   ip.Addr
	RemotePort uint16
	DstPort    uint16
	Seq        uint32
	Ack        uint32
	Window     int
}

// ParseSyn extracts handoff fields from a datagram received on a listen
// endpoint; ok is false if the datagram is not a well-formed initial SYN.
// The caller still owns (and must Release) the datagram.
func ParseSyn(d ip.Dgram) (SynInfo, bool) {
	if d.Hdr.Proto != ip.ProtoTCP || d.PayloadLen() < HeaderLen {
		return SynInfo{}, false
	}
	raw := make([]byte, HeaderLen)
	d.Frame.Bytes(raw, d.Off, HeaderLen)
	h, _, err := Parse(raw)
	if err != nil || h.Flags&SYN == 0 || h.Flags&ACK != 0 {
		return SynInfo{}, false
	}
	return SynInfo{
		RemoteIP:   d.Hdr.Src,
		RemotePort: h.SrcPort,
		DstPort:    h.DstPort,
		Seq:        h.Seq,
		Ack:        h.Ack,
		Window:     int(h.Window),
	}, true
}

// AcceptHandoff completes a passive open whose initial SYN was consumed by
// a separate listening endpoint — the fan-in accept path. The listener
// demultiplexes SYNs on a wildcard filter, installs a per-connection
// endpoint (whose more specific packet filter claims the rest of the
// flow), and hands the parsed SYN here; AcceptHandoff replays the
// LISTEN→SYN-RCVD transition on the new endpoint's stack, answers with
// SYN|ACK, and blocks until established. The handshake ACK — and every
// later segment — arrives on st, not on the listener.
func AcceptHandoff(st *ip.Stack, cfg Config, localPort uint16, syn SynInfo) (*Conn, error) {
	c, err := newConn(st, cfg, localPort)
	if err != nil {
		return nil, err
	}
	c.iss = 2000*uint32(localPort) + 13
	c.remoteIP = syn.RemoteIP
	c.remotePort = syn.RemotePort
	c.irs = syn.Seq
	c.rcvNxt = syn.Seq + 1
	c.sndUna, c.sndNxt = c.iss, c.iss
	c.sndWnd = syn.Window
	c.sndWl1, c.sndWl2 = syn.Seq, syn.Ack
	c.state = SynRcvd
	c.sendSegment(SYN|ACK, c.iss, nil, 0, true)
	c.sndNxt = c.iss + 1
	for c.state != Established && c.err == nil {
		c.waitEvent(0)
	}
	if c.err != nil {
		return nil, c.err
	}
	c.installFastPath()
	return c, nil
}

// Tuple is the connection's four-tuple (valid once the remote end is
// known, i.e. from SYN-RCVD / SYN-SENT onward).
func (c *Conn) Tuple() FourTuple {
	return FourTuple{
		LocalIP:    c.St.Local,
		LocalPort:  c.localPort,
		RemoteIP:   c.remoteIP,
		RemotePort: c.remotePort,
	}
}
