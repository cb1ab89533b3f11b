// Package relay is an untrusted message-relay service expressed as a pure
// state machine, designed to run inside a downloaded ASH handler: the
// handler parses a request frame, mutates relay state, and sends the reply
// from the kernel without ever scheduling the owning process (message
// initiation, Section II). The service shape follows the classic minimal
// relay for secure messaging: opaque blobs keyed by conversation, queued
// FIFO with TTL expiry, per-conversation queue caps, per-tenant byte
// quotas, best-effort delivery, and a "burn" operation that destroys a
// conversation and refuses traffic on it for a cooling-off window.
//
// The package holds no clocks and draws no randomness — callers pass the
// current virtual time into Handle, so a trace replays bit-identically.
// Costs are modeled, not measured: Handle reports the straight-line
// instruction and memory-operation counts for the work it did, and the
// embedding handler charges them (sandboxed handlers pay the SFI
// multiplier on the memory operations).
package relay

import (
	"encoding/binary"
	"math/bits"
)

// Request opcodes.
const (
	OpSubmit = 1 // queue a blob on a conversation
	OpPoll   = 2 // pop the oldest live blob
	OpBurn   = 3 // destroy the conversation, refuse traffic for a window
)

// Reply status codes.
const (
	StatusOK       = 0
	StatusRejected = 1 // malformed, oversized, queue full, or tenant over quota
	StatusEmpty    = 2 // poll found nothing live
	StatusBurned   = 3 // conversation is inside its burn window
)

// ReplyBit marks a reply opcode (request op | ReplyBit).
const ReplyBit = 0x80

// Request layout (big-endian):
//
//	[0]    op
//	[1:5]  conversation id
//	[5:7]  sequence (submit; echoed in replies)
//	[7:]   blob (submit)
//
// Reply layout:
//
//	[0]    op | ReplyBit
//	[1]    status
//	[2:4]  sequence
//	[4:8]  conversation id
//	[8:]   blob (successful poll)
const (
	reqHeader   = 7
	replyHeader = 8
)

// Config bounds the relay's state.
type Config struct {
	TTLUs           float64 // blob lifetime
	BurnTTLUs       float64 // burn-flag lifetime
	MaxBlobBytes    int     // largest accepted blob
	MaxBlobsPerConv int     // queue cap per conversation
	MaxTenantBytes  int     // total queued bytes per tenant (0 = unlimited)
}

// DefaultConfig sizes the relay for single-frame Ethernet requests.
func DefaultConfig() Config {
	return Config{
		TTLUs:           200_000,
		BurnTTLUs:       1_000_000,
		MaxBlobBytes:    1024,
		MaxBlobsPerConv: 50,
		MaxTenantBytes:  16 << 10,
	}
}

type blob struct {
	seq      uint16
	data     []byte
	expireUs float64
	tenant   string
}

// conv is one conversation. Its queue is blobs[head:], oldest first: a
// poll advances head and a submit into a full array first moves the queue
// down to its start, so the array is reused rather than regrown.
type conv struct {
	blobs       []blob
	head        int
	burnedUntil float64
}

func (cv *conv) queued() []blob { return cv.blobs[cv.head:] }

func (cv *conv) push(b blob) {
	if len(cv.blobs) == cap(cv.blobs) && cv.head > 0 {
		cv.blobs, cv.head = cv.blobs[:copy(cv.blobs, cv.queued())], 0
	}
	cv.blobs = append(cv.blobs, b)
}

func (cv *conv) pop() blob {
	b := cv.blobs[cv.head]
	cv.head++
	if cv.head == len(cv.blobs) {
		cv.blobs, cv.head = cv.blobs[:0], 0
	}
	return b
}

// Server is one relay instance. Not safe for concurrent use; in the
// simulation a single handler owns it.
type Server struct {
	Cfg Config

	convs       map[uint32]*conv
	tenantBytes map[string]int
	// free holds the buffers of delivered, expired and burned blobs for
	// the next submit to copy into: free[c] has buffers of 1<<c bytes.
	free [][][]byte

	// Counters.
	Submitted uint64 // blobs accepted
	Polled    uint64 // blobs delivered
	Empty     uint64 // polls that found nothing
	Burned    uint64 // burn operations honored
	Expired   uint64 // blobs TTL-expired before delivery
	Rejected  uint64 // requests refused (size, caps, quota, malformed)
	BurnDrops uint64 // queued blobs destroyed by a burn
}

// NewServer creates a relay with cfg.
func NewServer(cfg Config) *Server {
	return &Server{Cfg: cfg, convs: map[uint32]*conv{}, tenantBytes: map[string]int{}}
}

// blobClass is the free-list class of an n-byte blob (n > 0): the
// smallest power of two that holds it, and no less than the 8 bytes of
// Go's smallest allocation, so a class-c buffer's capacity is exactly 1<<c.
func blobClass(n int) int { return max(3, bits.Len(uint(n-1))) }

// keep copies data into a recycled buffer of its class, or a new one.
func (s *Server) keep(data []byte) []byte {
	c := blobClass(len(data))
	for len(s.free) <= c {
		s.free = append(s.free, nil)
	}
	if l := s.free[c]; len(l) > 0 {
		s.free[c] = l[:len(l)-1]
		return append(l[len(l)-1][:0], data...)
	}
	return append(make([]byte, 0, 1<<c), data...)
}

// drop releases a blob that leaves its queue: its bytes stop counting
// against its tenant and its buffer goes back on the free list.
func (s *Server) drop(b blob) {
	s.tenantBytes[b.tenant] -= len(b.data)
	c := blobClass(cap(b.data))
	s.free[c] = append(s.free[c], b.data)
}

// expire drops dead blobs from the front of cv's queue (FIFO insertion
// order means expiry is always front-first) and clears a lapsed burn flag.
func (s *Server) expire(cv *conv, nowUs float64) (insns int) {
	for len(cv.queued()) > 0 && cv.queued()[0].expireUs <= nowUs {
		s.drop(cv.pop())
		s.Expired++
		insns += 8
	}
	if cv.burnedUntil != 0 && cv.burnedUntil <= nowUs {
		cv.burnedUntil = 0
		insns += 4
	}
	return insns + 6
}

// appendReply appends a reply frame carrying payload to b.
func appendReply(b []byte, op, status byte, seq uint16, cid uint32, payload []byte) []byte {
	b = append(b, op|ReplyBit, status)
	b = binary.BigEndian.AppendUint16(b, seq)
	b = binary.BigEndian.AppendUint32(b, cid)
	return append(b, payload...)
}

// Handle is HandleAppend into a new frame.
func (s *Server) Handle(nowUs float64, tenant string, req []byte) (out []byte, insns, memops int) {
	return s.HandleAppend(nil, nowUs, tenant, req)
}

// HandleAppend applies one request at virtual time nowUs on behalf of
// tenant, appending the reply frame to b, and returns it with the modeled
// cost of the work performed (straight-line instructions and memory
// operations, for the embedding handler to charge). The relay copies what
// it keeps of req.
func (s *Server) HandleAppend(b []byte, nowUs float64, tenant string, req []byte) (out []byte, insns, memops int) {
	insns = 12 // dispatch + header parse
	memops = 4
	if len(req) < reqHeader {
		s.Rejected++
		return appendReply(b, 0, StatusRejected, 0, 0, nil), insns, memops
	}
	op := req[0]
	cid := binary.BigEndian.Uint32(req[1:])
	seq := binary.BigEndian.Uint16(req[5:])
	cv := s.convs[cid]
	if cv == nil {
		cv = &conv{}
		s.convs[cid] = cv
		insns += 10
	}
	insns += s.expire(cv, nowUs)

	switch op {
	case OpSubmit:
		data := req[reqHeader:]
		switch {
		case cv.burnedUntil > nowUs:
			s.Rejected++
			return appendReply(b, op, StatusBurned, seq, cid, nil), insns, memops
		case len(data) == 0 || len(data) > s.Cfg.MaxBlobBytes,
			len(cv.queued()) >= s.Cfg.MaxBlobsPerConv,
			s.Cfg.MaxTenantBytes > 0 && s.tenantBytes[tenant]+len(data) > s.Cfg.MaxTenantBytes:
			s.Rejected++
			return appendReply(b, op, StatusRejected, seq, cid, nil), insns, memops
		}
		cv.push(blob{
			seq: seq, data: s.keep(data),
			expireUs: nowUs + s.Cfg.TTLUs, tenant: tenant,
		})
		s.tenantBytes[tenant] += len(data)
		s.Submitted++
		// Copy-in: one word per 4 blob bytes.
		insns += len(data) / 4
		memops += len(data) / 4
		return appendReply(b, op, StatusOK, seq, cid, nil), insns, memops

	case OpPoll:
		if cv.burnedUntil > nowUs {
			return appendReply(b, op, StatusBurned, seq, cid, nil), insns, memops
		}
		if len(cv.queued()) == 0 {
			s.Empty++
			return appendReply(b, op, StatusEmpty, seq, cid, nil), insns, memops
		}
		bl := cv.pop()
		out = appendReply(b, op, StatusOK, bl.seq, cid, bl.data)
		s.drop(bl)
		s.Polled++
		insns += len(bl.data) / 4
		memops += len(bl.data) / 4
		return out, insns, memops

	case OpBurn:
		for _, bl := range cv.queued() {
			s.drop(bl)
			s.BurnDrops++
		}
		cv.blobs, cv.head = cv.blobs[:0], 0
		cv.burnedUntil = nowUs + s.Cfg.BurnTTLUs
		s.Burned++
		return appendReply(b, op, StatusOK, seq, cid, nil), insns, memops
	}
	s.Rejected++
	return appendReply(b, op, StatusRejected, seq, cid, nil), insns, memops
}

// AppendRequest appends a request frame to b: op on conversation cid,
// with sequence seq and blob (a submit's; nil for the others).
func AppendRequest(b []byte, op byte, cid uint32, seq uint16, blob []byte) []byte {
	b = append(b, op)
	b = binary.BigEndian.AppendUint32(b, cid)
	b = binary.BigEndian.AppendUint16(b, seq)
	return append(b, blob...)
}

// SubmitReq builds a submit request frame.
func SubmitReq(cid uint32, seq uint16, data []byte) []byte {
	return AppendRequest(nil, OpSubmit, cid, seq, data)
}

// PollReq builds a poll request frame.
func PollReq(cid uint32) []byte { return AppendRequest(nil, OpPoll, cid, 0, nil) }

// ParseReply splits a reply frame.
func ParseReply(b []byte) (op, status byte, seq uint16, cid uint32, payload []byte, ok bool) {
	if len(b) < replyHeader || b[0]&ReplyBit == 0 {
		return 0, 0, 0, 0, nil, false
	}
	return b[0] &^ ReplyBit, b[1], binary.BigEndian.Uint16(b[2:]),
		binary.BigEndian.Uint32(b[4:]), b[replyHeader:], true
}
