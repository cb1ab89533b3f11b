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

type conv struct {
	blobs       []blob
	burnedUntil float64
}

// Server is one relay instance. Not safe for concurrent use; in the
// simulation a single handler owns it.
type Server struct {
	Cfg Config

	convs       map[uint32]*conv
	tenantBytes map[string]int

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

// expire drops dead blobs from the front of cv's queue (FIFO insertion
// order means expiry is always front-first) and clears a lapsed burn flag.
func (s *Server) expire(cv *conv, nowUs float64) (insns int) {
	for len(cv.blobs) > 0 && cv.blobs[0].expireUs <= nowUs {
		b := cv.blobs[0]
		cv.blobs = cv.blobs[1:]
		s.tenantBytes[b.tenant] -= len(b.data)
		s.Expired++
		insns += 8
	}
	if cv.burnedUntil != 0 && cv.burnedUntil <= nowUs {
		cv.burnedUntil = 0
		insns += 4
	}
	return insns + 6
}

func reply(op, status byte, seq uint16, cid uint32, payload []byte) []byte {
	out := make([]byte, replyHeader, replyHeader+len(payload))
	out[0] = op | ReplyBit
	out[1] = status
	binary.BigEndian.PutUint16(out[2:], seq)
	binary.BigEndian.PutUint32(out[4:], cid)
	return append(out, payload...)
}

// Handle applies one request at virtual time nowUs on behalf of tenant,
// returning the reply frame and the modeled cost of the work performed
// (straight-line instructions and memory operations, for the embedding
// handler to charge).
func (s *Server) Handle(nowUs float64, tenant string, req []byte) (out []byte, insns, memops int) {
	insns = 12 // dispatch + header parse
	memops = 4
	if len(req) < reqHeader {
		s.Rejected++
		return reply(0, StatusRejected, 0, 0, nil), insns, memops
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
			return reply(op, StatusBurned, seq, cid, nil), insns, memops
		case len(data) == 0 || len(data) > s.Cfg.MaxBlobBytes,
			len(cv.blobs) >= s.Cfg.MaxBlobsPerConv,
			s.Cfg.MaxTenantBytes > 0 && s.tenantBytes[tenant]+len(data) > s.Cfg.MaxTenantBytes:
			s.Rejected++
			return reply(op, StatusRejected, seq, cid, nil), insns, memops
		}
		cv.blobs = append(cv.blobs, blob{
			seq: seq, data: append([]byte(nil), data...),
			expireUs: nowUs + s.Cfg.TTLUs, tenant: tenant,
		})
		s.tenantBytes[tenant] += len(data)
		s.Submitted++
		// Copy-in: one word per 4 blob bytes.
		insns += len(data) / 4
		memops += len(data) / 4
		return reply(op, StatusOK, seq, cid, nil), insns, memops

	case OpPoll:
		if cv.burnedUntil > nowUs {
			return reply(op, StatusBurned, seq, cid, nil), insns, memops
		}
		if len(cv.blobs) == 0 {
			s.Empty++
			return reply(op, StatusEmpty, seq, cid, nil), insns, memops
		}
		b := cv.blobs[0]
		cv.blobs = cv.blobs[1:]
		s.tenantBytes[b.tenant] -= len(b.data)
		s.Polled++
		insns += len(b.data) / 4
		memops += len(b.data) / 4
		return reply(op, StatusOK, b.seq, cid, b.data), insns, memops

	case OpBurn:
		for _, b := range cv.blobs {
			s.tenantBytes[b.tenant] -= len(b.data)
			s.BurnDrops++
		}
		cv.blobs = nil
		cv.burnedUntil = nowUs + s.Cfg.BurnTTLUs
		s.Burned++
		return reply(op, StatusOK, seq, cid, nil), insns, memops
	}
	s.Rejected++
	return reply(op, StatusRejected, seq, cid, nil), insns, memops
}

// SubmitReq builds a submit request frame.
func SubmitReq(cid uint32, seq uint16, data []byte) []byte {
	return append(request(OpSubmit, cid, seq), data...)
}

// PollReq builds a poll request frame.
func PollReq(cid uint32) []byte { return request(OpPoll, cid, 0) }

// BurnReq builds a burn request frame.
func BurnReq(cid uint32) []byte { return request(OpBurn, cid, 0) }

func request(op byte, cid uint32, seq uint16) []byte {
	out := make([]byte, reqHeader, reqHeader+64)
	out[0] = op
	binary.BigEndian.PutUint32(out[1:], cid)
	binary.BigEndian.PutUint16(out[5:], seq)
	return out
}

// ParseReply splits a reply frame.
func ParseReply(b []byte) (op, status byte, seq uint16, cid uint32, payload []byte, ok bool) {
	if len(b) < replyHeader || b[0]&ReplyBit == 0 {
		return 0, 0, 0, 0, nil, false
	}
	return b[0] &^ ReplyBit, b[1], binary.BigEndian.Uint16(b[2:]),
		binary.BigEndian.Uint32(b[4:]), b[replyHeader:], true
}
