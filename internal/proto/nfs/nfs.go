// Package nfs is a miniature NFSv2-flavoured file service over Sun-RPC-
// style UDP messages, rounding out the paper's user-level protocol suite
// ("ARP/RARP, IP, UDP, TCP, HTTP, and NFS"). It implements the core
// stateless operations — LOOKUP, GETATTR, READ, WRITE, CREATE — against an
// in-memory file store, with the classic NFS idempotency property: every
// request names absolute state (file handle + offset), so retransmitted
// requests are harmless.
package nfs

import (
	"encoding/binary"
	"fmt"

	"ashs/internal/aegis"
	"ashs/internal/proto/ip"
	"ashs/internal/proto/retry"
	"ashs/internal/proto/udp"
	"ashs/internal/sim"
)

// Procedure numbers (NFSv2 flavour).
const (
	ProcNull    = 0
	ProcGetAttr = 1
	ProcLookup  = 4
	ProcRead    = 6
	ProcWrite   = 8
	ProcCreate  = 9
)

// Status codes.
const (
	OK         = 0
	ErrNoEnt   = 2
	ErrIO      = 5
	ErrNotDir  = 20
	ErrFBig    = 27
	ErrBadProc = 10004
	ErrBadXdr  = 10005
)

// Handle names a file on the server.
type Handle uint32

// RootHandle is the exported root directory.
const RootHandle Handle = 1

// MaxIO bounds one READ/WRITE transfer (NFSv2 used 8 KB).
const MaxIO = 8192

// Attr is a file's attributes.
type Attr struct {
	Handle Handle
	IsDir  bool
	Size   uint32
}

// file is the server-side object.
type file struct {
	attr     Attr
	data     []byte
	children map[string]Handle // for directories
}

// Server is the in-memory file store plus its UDP service loop.
type Server struct {
	files  map[Handle]*file
	nextFH Handle

	// ProcCost is the per-request processing charge (XDR decode, fs
	// lookup, reply build), in cycles.
	ProcCost sim.Time

	// Served counts completed requests by procedure.
	Served map[uint32]uint64
}

// NewServer builds a store containing only the root directory.
func NewServer() *Server {
	s := &Server{files: map[Handle]*file{}, nextFH: RootHandle, ProcCost: 900,
		Served: map[uint32]uint64{}}
	s.files[RootHandle] = &file{
		attr:     Attr{Handle: RootHandle, IsDir: true},
		children: map[string]Handle{},
	}
	s.nextFH++
	return s
}

// AddFile seeds the store (test/boot convenience).
func (s *Server) AddFile(name string, data []byte) Handle {
	fh := s.nextFH
	s.nextFH++
	s.files[fh] = &file{attr: Attr{Handle: fh, Size: uint32(len(data))},
		data: append([]byte(nil), data...)}
	s.files[RootHandle].children[name] = fh
	return fh
}

// Serve answers count requests on sock (0 = forever).
func (s *Server) Serve(p *aegis.Process, sock *udp.Socket, count int) {
	for i := 0; count == 0 || i < count; i++ {
		m, err := sock.Recv(false)
		if err != nil {
			return
		}
		req := append([]byte(nil), m.Bytes(sock.St.Ep.Kernel())...)
		sock.Release(m)
		p.Compute(s.ProcCost)
		reply := s.dispatch(req)
		_ = sock.SendBytes(m.From, m.FromPort, reply)
	}
}

// Request layout (all big-endian u32 unless noted):
//
//	[0]  xid
//	[4]  procedure
//	[8]  file handle
//	[12] argument u32 a (offset, or name length for LOOKUP/CREATE)
//	[16] argument u32 b (count)
//	[20] payload (name bytes or write data)
//
// Reply: [0] xid  [4] status  [8...] result.
func (s *Server) dispatch(req []byte) []byte {
	if len(req) < 20 {
		return rpcReply(0, ErrBadXdr, nil)
	}
	xid := be32(req[0:])
	proc := be32(req[4:])
	fh := Handle(be32(req[8:]))
	argA := be32(req[12:])
	argB := be32(req[16:])
	payload := req[20:]

	fail := func(code uint32) []byte { return rpcReply(xid, code, nil) }
	f, ok := s.files[fh]
	if proc != ProcNull && !ok {
		return fail(ErrNoEnt)
	}

	switch proc {
	case ProcNull:
		s.Served[ProcNull]++
		return rpcReply(xid, OK, nil)

	case ProcGetAttr:
		s.Served[ProcGetAttr]++
		return rpcReply(xid, OK, marshalAttr(f.attr))

	case ProcLookup:
		if !f.attr.IsDir {
			return fail(ErrNotDir)
		}
		if int(argA) > len(payload) {
			return fail(ErrBadXdr)
		}
		name := string(payload[:argA])
		child, ok := f.children[name]
		if !ok {
			return fail(ErrNoEnt)
		}
		s.Served[ProcLookup]++
		return rpcReply(xid, OK, marshalAttr(s.files[child].attr))

	case ProcRead:
		if f.attr.IsDir {
			return fail(ErrIO)
		}
		off, n := argA, argB
		if n > MaxIO {
			return fail(ErrFBig)
		}
		if off > uint32(len(f.data)) {
			off = uint32(len(f.data))
		}
		end := off + n
		if end > uint32(len(f.data)) {
			end = uint32(len(f.data))
		}
		s.Served[ProcRead]++
		out := marshalAttr(f.attr)
		out = binary.BigEndian.AppendUint32(out, end-off)
		return rpcReply(xid, OK, append(out, f.data[off:end]...))

	case ProcWrite:
		if f.attr.IsDir {
			return fail(ErrIO)
		}
		off := argA
		data := payload
		if len(data) > MaxIO {
			return fail(ErrFBig)
		}
		end := int(off) + len(data)
		if end > len(f.data) {
			grown := make([]byte, end)
			copy(grown, f.data)
			f.data = grown
			f.attr.Size = uint32(end)
		}
		copy(f.data[off:], data)
		s.Served[ProcWrite]++
		return rpcReply(xid, OK, marshalAttr(f.attr))

	case ProcCreate:
		if !f.attr.IsDir {
			return fail(ErrNotDir)
		}
		if int(argA) > len(payload) {
			return fail(ErrBadXdr)
		}
		name := string(payload[:argA])
		if _, exists := f.children[name]; exists {
			// Idempotent retransmission of CREATE: return the existing file.
			s.Served[ProcCreate]++
			return rpcReply(xid, OK, marshalAttr(s.files[f.children[name]].attr))
		}
		fh := s.nextFH
		s.nextFH++
		s.files[fh] = &file{attr: Attr{Handle: fh}}
		f.children[name] = fh
		s.Served[ProcCreate]++
		return rpcReply(xid, OK, marshalAttr(s.files[fh].attr))
	}
	return fail(ErrBadProc)
}

func be32(b []byte) uint32 { return binary.BigEndian.Uint32(b) }

func rpcReply(xid, status uint32, body []byte) []byte {
	out := binary.BigEndian.AppendUint32(nil, xid)
	out = binary.BigEndian.AppendUint32(out, status)
	return append(out, body...)
}

func marshalAttr(a Attr) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(a.Handle))
	d := uint32(0)
	if a.IsDir {
		d = 1
	}
	out = binary.BigEndian.AppendUint32(out, d)
	return binary.BigEndian.AppendUint32(out, a.Size)
}

func unmarshalAttr(b []byte) (Attr, error) {
	if len(b) < 12 {
		return Attr{}, fmt.Errorf("nfs: short attr")
	}
	return Attr{Handle: Handle(be32(b)), IsDir: be32(b[4:]) == 1, Size: be32(b[8:])}, nil
}

// Client issues requests over a UDP socket with retransmission (the
// stateless-protocol property makes retries safe).
type Client struct {
	Sock   *udp.Socket
	Server ip.Addr
	Port   uint16
	// RetryUs is the initial retransmission interval; each timeout doubles
	// it up to MaxRetryUs (capped exponential backoff — idempotent ops
	// make the retries safe, the cap keeps recovery prompt under sustained
	// loss). Retries bounds attempts.
	RetryUs    float64
	MaxRetryUs float64
	Retries    int

	// Backoff, when set, replaces the fixed doubling schedule: each
	// attempt's receive window comes from the policy's deterministic
	// jittered exponential backoff, and the policy's retry budget bounds
	// attempts (Retries/RetryUs/MaxRetryUs are then ignored). The budget
	// refills per RPC; the jitter stream continues across them, so a
	// fleet of clients seeded distinctly never synchronizes its retries.
	// Nil keeps the classic schedule bit-for-bit.
	Backoff *retry.State

	xid uint32
	// Resent counts retransmitted requests.
	Resent uint64
}

// NewClient builds a client for server addr:port over sock.
func NewClient(sock *udp.Socket, server ip.Addr, port uint16) *Client {
	return &Client{Sock: sock, Server: server, Port: port,
		RetryUs: 100_000, MaxRetryUs: 800_000, Retries: 5}
}

// call performs one RPC.
func (c *Client) call(p *aegis.Process, proc uint32, fh Handle, a, b uint32, payload []byte) (uint32, []byte, error) {
	c.xid++
	xid := c.xid
	req := binary.BigEndian.AppendUint32(nil, xid)
	req = binary.BigEndian.AppendUint32(req, proc)
	req = binary.BigEndian.AppendUint32(req, uint32(fh))
	req = binary.BigEndian.AppendUint32(req, a)
	req = binary.BigEndian.AppendUint32(req, b)
	req = append(req, payload...)

	k := c.Sock.St.Ep.Kernel()
	if c.Backoff != nil {
		c.Backoff.Reset() // the budget is per RPC; the jitter stream persists
	}
	interval := c.RetryUs
	for attempt := 0; ; attempt++ {
		var waitUs float64
		if c.Backoff != nil {
			us, ok := c.Backoff.Next()
			if !ok {
				return 0, nil, fmt.Errorf("nfs: retry budget exhausted after %d attempts", attempt)
			}
			waitUs = us
		} else {
			if attempt > c.Retries {
				return 0, nil, fmt.Errorf("nfs: no reply after %d attempts", c.Retries+1)
			}
			waitUs = interval
			interval *= 2
			if c.MaxRetryUs > 0 && interval > c.MaxRetryUs {
				interval = c.MaxRetryUs
			}
		}
		if attempt > 0 {
			c.Resent++
			if o := k.Obs; o.Enabled() {
				o.Instant(k.Name, "nfs "+p.Name, "proto", "nfs retry", k.Now())
				o.Inc("nfs/retries")
			}
		}
		if err := c.Sock.SendBytes(c.Server, c.Port, req); err != nil {
			return 0, nil, err
		}
		deadline := k.Now() + k.Prof.Cycles(waitUs)
		for {
			m, ok, err := c.Sock.RecvUntil(false, deadline)
			if err != nil {
				return 0, nil, err
			}
			if !ok {
				break // timeout: retransmit
			}
			reply := append([]byte(nil), m.Bytes(k)...)
			c.Sock.Release(m)
			if len(reply) < 8 || be32(reply) != xid {
				continue // stale reply to an earlier xid
			}
			return be32(reply[4:]), reply[8:], nil
		}
	}
}

// Lookup resolves name in directory dir.
func (c *Client) Lookup(p *aegis.Process, dir Handle, name string) (Attr, error) {
	status, body, err := c.call(p, ProcLookup, dir, uint32(len(name)), 0, []byte(name))
	if err != nil {
		return Attr{}, err
	}
	if status != OK {
		return Attr{}, fmt.Errorf("nfs: lookup %q: status %d", name, status)
	}
	return unmarshalAttr(body)
}

// GetAttr fetches attributes.
func (c *Client) GetAttr(p *aegis.Process, fh Handle) (Attr, error) {
	status, body, err := c.call(p, ProcGetAttr, fh, 0, 0, nil)
	if err != nil {
		return Attr{}, err
	}
	if status != OK {
		return Attr{}, fmt.Errorf("nfs: getattr: status %d", status)
	}
	return unmarshalAttr(body)
}

// Read fetches up to n bytes at offset off.
func (c *Client) Read(p *aegis.Process, fh Handle, off, n uint32) ([]byte, error) {
	status, body, err := c.call(p, ProcRead, fh, off, n, nil)
	if err != nil {
		return nil, err
	}
	if status != OK {
		return nil, fmt.Errorf("nfs: read: status %d", status)
	}
	if len(body) < 16 {
		return nil, fmt.Errorf("nfs: short read reply")
	}
	cnt := be32(body[12:])
	if int(cnt) > len(body)-16 {
		return nil, fmt.Errorf("nfs: read reply count overruns body")
	}
	return body[16 : 16+cnt], nil
}

// Write stores data at offset off.
func (c *Client) Write(p *aegis.Process, fh Handle, off uint32, data []byte) (Attr, error) {
	status, body, err := c.call(p, ProcWrite, fh, off, 0, data)
	if err != nil {
		return Attr{}, err
	}
	if status != OK {
		return Attr{}, fmt.Errorf("nfs: write: status %d", status)
	}
	return unmarshalAttr(body)
}

// Create makes an empty file named name in dir.
func (c *Client) Create(p *aegis.Process, dir Handle, name string) (Attr, error) {
	status, body, err := c.call(p, ProcCreate, dir, uint32(len(name)), 0, []byte(name))
	if err != nil {
		return Attr{}, err
	}
	if status != OK {
		return Attr{}, fmt.Errorf("nfs: create %q: status %d", name, status)
	}
	return unmarshalAttr(body)
}
