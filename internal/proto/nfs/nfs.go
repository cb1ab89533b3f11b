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

// blockSize is the unit a file's data is stored in. A write that extends a
// file adds blocks and never moves the ones it has, so a file written in
// appends allocates its size rounded up to a block, not the sum of every
// size it passed through.
const blockSize = 4096

// file is the server-side object.
type file struct {
	attr     Attr
	blocks   []*[blockSize]byte // data, attr.Size bytes of it
	children map[string]Handle  // for directories
}

// writeAt stores data at off, which is at most the file's size, and grows
// the file to cover it.
func (f *file) writeAt(off int, data []byte) {
	end := off + len(data)
	for len(f.blocks)*blockSize < end {
		f.blocks = append(f.blocks, new([blockSize]byte))
	}
	for len(data) > 0 {
		n := copy(f.blocks[off/blockSize][off%blockSize:], data)
		data, off = data[n:], off+n
	}
	f.attr.Size = max(f.attr.Size, uint32(end))
}

// appendRange appends the file's bytes [off, end) to b.
func (f *file) appendRange(b []byte, off, end int) []byte {
	for off < end {
		n := min(blockSize-off%blockSize, end-off)
		b = append(b, f.blocks[off/blockSize][off%blockSize:][:n]...)
		off += n
	}
	return b
}

// procCycles is the per-request processing charge (XDR decode, fs lookup,
// reply build), in cycles; uncalibrated.
const procCycles sim.Time = 900

// Server is the in-memory file store plus its UDP service loop.
type Server struct {
	files  map[Handle]*file
	nextFH Handle

	// Served counts completed requests by procedure.
	Served map[uint32]uint64

	// req holds the request being served and reply the reply dispatch
	// builds; both are reused, so one Server serves one socket at a time.
	req, reply []byte
}

// NewServer builds a store containing only the root directory.
func NewServer() *Server {
	s := &Server{files: map[Handle]*file{}, nextFH: RootHandle,
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
	f := &file{attr: Attr{Handle: fh}}
	f.writeAt(0, data)
	s.files[fh] = f
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
		s.req = append(s.req[:0], m.Bytes(sock.St.Ep.Kernel())...)
		sock.Release(m)
		p.Compute(procCycles)
		s.reply = s.dispatch(s.req)
		_ = sock.SendBytes(m.From, m.FromPort, s.reply)
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
//
// The reply is built in s.reply, over whatever the previous one left there.
func (s *Server) dispatch(req []byte) []byte {
	if len(req) < 20 {
		return s.header(0, ErrBadXdr)
	}
	xid := be32(req[0:])
	proc := be32(req[4:])
	fh := Handle(be32(req[8:]))
	argA := be32(req[12:])
	argB := be32(req[16:])
	payload := req[20:]

	f, ok := s.files[fh]
	if proc != ProcNull && !ok {
		return s.header(xid, ErrNoEnt)
	}

	switch proc {
	case ProcNull:
		s.Served[ProcNull]++
		return s.header(xid, OK)

	case ProcGetAttr:
		s.Served[ProcGetAttr]++
		return appendAttr(s.header(xid, OK), f.attr)

	case ProcLookup:
		if !f.attr.IsDir {
			return s.header(xid, ErrNotDir)
		}
		if int(argA) > len(payload) {
			return s.header(xid, ErrBadXdr)
		}
		child, ok := f.children[string(payload[:argA])]
		if !ok {
			return s.header(xid, ErrNoEnt)
		}
		s.Served[ProcLookup]++
		return appendAttr(s.header(xid, OK), s.files[child].attr)

	case ProcRead:
		if f.attr.IsDir {
			return s.header(xid, ErrIO)
		}
		off, n := argA, argB
		if n > MaxIO {
			return s.header(xid, ErrFBig)
		}
		off = min(off, f.attr.Size)
		end := min(off+n, f.attr.Size)
		s.Served[ProcRead]++
		out := appendAttr(s.header(xid, OK), f.attr)
		out = binary.BigEndian.AppendUint32(out, end-off)
		return f.appendRange(out, int(off), int(end))

	case ProcWrite:
		if f.attr.IsDir {
			return s.header(xid, ErrIO)
		}
		if len(payload) > MaxIO {
			return s.header(xid, ErrFBig)
		}
		if argA > f.attr.Size {
			// A hole: every writer appends at or before the end, and an
			// offset from the datagram must not size a Go allocation.
			return s.header(xid, ErrIO)
		}
		f.writeAt(int(argA), payload)
		s.Served[ProcWrite]++
		return appendAttr(s.header(xid, OK), f.attr)

	case ProcCreate:
		if !f.attr.IsDir {
			return s.header(xid, ErrNotDir)
		}
		if int(argA) > len(payload) {
			return s.header(xid, ErrBadXdr)
		}
		name := string(payload[:argA])
		if _, exists := f.children[name]; exists {
			// Idempotent retransmission of CREATE: return the existing file.
			s.Served[ProcCreate]++
			return appendAttr(s.header(xid, OK), s.files[f.children[name]].attr)
		}
		fh := s.nextFH
		s.nextFH++
		s.files[fh] = &file{attr: Attr{Handle: fh}}
		f.children[name] = fh
		s.Served[ProcCreate]++
		return appendAttr(s.header(xid, OK), s.files[fh].attr)
	}
	return s.header(xid, ErrBadProc)
}

func be32(b []byte) uint32 { return binary.BigEndian.Uint32(b) }

// header starts a reply in s.reply: xid, then status.
func (s *Server) header(xid, status uint32) []byte {
	return binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(s.reply[:0], xid), status)
}

// appendAttr appends a's wire form to b.
func appendAttr(b []byte, a Attr) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(a.Handle))
	d := uint32(0)
	if a.IsDir {
		d = 1
	}
	b = binary.BigEndian.AppendUint32(b, d)
	return binary.BigEndian.AppendUint32(b, a.Size)
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

	xid uint32
	// Resent counts retransmitted requests.
	Resent uint64

	// req is the request being sent and reply the last reply received;
	// both are reused from call to call.
	req, reply []byte
}

// NewClient builds a client for server addr:port over sock.
func NewClient(sock *udp.Socket, server ip.Addr, port uint16) *Client {
	return &Client{Sock: sock, Server: server, Port: port,
		RetryUs: 100_000, MaxRetryUs: 800_000, Retries: 5}
}

// call performs one RPC. The result it returns lies in c.reply and is valid
// until the next call; payload is copied out before anything is received,
// so it may be an earlier call's result.
func (c *Client) call(p *aegis.Process, proc uint32, fh Handle, a, b uint32, payload []byte) (uint32, []byte, error) {
	c.xid++
	xid := c.xid
	req := binary.BigEndian.AppendUint32(c.req[:0], xid)
	req = binary.BigEndian.AppendUint32(req, proc)
	req = binary.BigEndian.AppendUint32(req, uint32(fh))
	req = binary.BigEndian.AppendUint32(req, a)
	req = binary.BigEndian.AppendUint32(req, b)
	req = append(req, payload...)
	c.req = req

	k := c.Sock.St.Ep.Kernel()
	interval := c.RetryUs
	for attempt := 0; ; attempt++ {
		if attempt > c.Retries {
			return 0, nil, fmt.Errorf("nfs: no reply after %d attempts", c.Retries+1)
		}
		waitUs := interval
		interval *= 2
		if c.MaxRetryUs > 0 && interval > c.MaxRetryUs {
			interval = c.MaxRetryUs
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
			reply := append(c.reply[:0], m.Bytes(k)...)
			c.Sock.Release(m)
			c.reply = reply
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

// Read fetches up to n bytes at offset off. The bytes lie in the client's
// reply buffer: they are valid until c's next call, which may take them as
// its payload (Write copies them out before the reply overwrites them).
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
