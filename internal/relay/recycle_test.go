package relay

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
)

// TestRecycledBlobsReadBack: a blob's buffer goes back on the free list
// when the blob is polled, burned or expired, and the next submit of its
// size class copies into it. Each time, the blob submitted into the
// recycled buffer polls back as submitted, and a reply frame taken before
// the reuse keeps its bytes.
func TestRecycledBlobsReadBack(t *testing.T) {
	s := newTest()
	free := func() int { return len(s.free[blobClass(10)]) }
	blob := func(b byte) []byte { return bytes.Repeat([]byte{b}, 10) }
	submit := func(now float64, cid uint32, data []byte) {
		t.Helper()
		if rep, _, _ := s.Handle(now, "a", SubmitReq(cid, 0, data)); status(t, rep) != StatusOK {
			t.Fatalf("submit on %d refused", cid)
		}
	}
	poll := func(now float64, cid uint32) (byte, []byte) {
		rep, _, _ := s.Handle(now, "a", PollReq(cid))
		_, st, _, _, payload, _ := ParseReply(rep)
		return st, payload
	}

	submit(0, 1, blob('A'))
	_, heldA := poll(1, 1)
	if free() != 1 {
		t.Fatalf("a polled blob left %d buffers on the free list, want 1", free())
	}
	submit(2, 2, blob('B'))
	if free() != 0 {
		t.Fatal("the next submit did not take the polled blob's buffer")
	}
	if st, got := poll(3, 2); st != StatusOK || !bytes.Equal(got, blob('B')) {
		t.Errorf("after a poll: status %d, %q; want %q", st, got, blob('B'))
	}
	if !bytes.Equal(heldA, blob('A')) {
		t.Errorf("a reply taken before its blob's buffer was reused reads %q", heldA)
	}

	submit(4, 3, blob('C'))
	if rep, _, _ := s.Handle(5, "a", AppendRequest(nil, OpBurn, 3, 0, nil)); status(t, rep) != StatusOK {
		t.Fatal("burn refused")
	}
	if free() != 1 {
		t.Fatalf("a burned blob left %d buffers on the free list, want 1", free())
	}
	submit(6, 4, blob('D'))
	if st, got := poll(7, 4); st != StatusOK || !bytes.Equal(got, blob('D')) {
		t.Errorf("after a burn: status %d, %q; want %q", st, got, blob('D'))
	}

	submit(10, 5, blob('E'))
	if st, _ := poll(200, 5); st != StatusEmpty || s.Expired != 1 {
		t.Fatalf("past its TTL: status %d, %d expired; want empty, 1", st, s.Expired)
	}
	submit(201, 6, blob('F'))
	if st, got := poll(202, 6); st != StatusOK || !bytes.Equal(got, blob('F')) {
		t.Errorf("after an expiry: status %d, %q; want %q", st, got, blob('F'))
	}
	if s.tenantBytes["a"] != 0 {
		t.Errorf("tenant bytes %d after every blob left, want 0", s.tenantBytes["a"])
	}
}

// TestWarmRelayDoesNotAllocate: once its buffers and queues exist, a
// submit and a poll answered into the caller's buffer allocate nothing.
func TestWarmRelayDoesNotAllocate(t *testing.T) {
	s := newTest()
	submit := AppendRequest(nil, OpSubmit, 1, 0, []byte("payload"))
	poll := AppendRequest(nil, OpPoll, 1, 0, nil)
	var out []byte
	round := func() {
		out, _, _ = s.HandleAppend(out[:0], 1, "a", submit)
		out, _, _ = s.HandleAppend(out[:0], 1, "a", poll)
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("a warm submit and poll allocate %v times, want 0", n)
	}
}

// TestSeededOpsReplay: a seeded mix of submits (some oversized), polls,
// burns and malformed requests over a few conversations and tenants, with
// time advancing past TTLs and burn windows, gives the replies, costs,
// counters and tenant ledger recorded before blob buffers were recycled
// and queues reused their arrays.
func TestSeededOpsReplay(t *testing.T) {
	s := newTest()
	rng := rand.New(rand.NewSource(7))
	sum := sha256.New()
	var req, out []byte
	var insns, memops int
	now := 0.0
	for i := 0; i < 20000; i++ {
		now += float64(rng.Intn(12))
		cid := uint32(rng.Intn(6))
		tenant := []string{"a", "b", "c"}[rng.Intn(3)]
		switch r := rng.Intn(20); {
		case r < 10:
			req = AppendRequest(req[:0], OpSubmit, cid, uint16(i), nil)
			for n := 1 + rng.Intn(72); n > 0; n-- {
				req = append(req, byte(rng.Intn(256)))
			}
		case r < 18:
			req = AppendRequest(req[:0], OpPoll, cid, 0, nil)
		case r < 19:
			req = AppendRequest(req[:0], OpBurn, cid, 0, nil)
		default:
			req = AppendRequest(req[:0], byte(rng.Intn(8)), cid, 0, nil)[:rng.Intn(8)]
		}
		var in, mem int
		out, in, mem = s.HandleAppend(out[:0], now, tenant, req)
		sum.Write(out)
		insns += in
		memops += mem
	}
	got := fmt.Sprintf("replies %x insns %d memops %d counters %d/%d/%d/%d/%d/%d/%d tenants %d/%d/%d",
		sum.Sum(nil)[:8], insns, memops,
		s.Submitted, s.Polled, s.Empty, s.Burned, s.Expired, s.Rejected, s.BurnDrops,
		s.tenantBytes["a"], s.tenantBytes["b"], s.tenantBytes["c"])
	const want = "replies 75226fd17e4b2c52 insns 410255 memops 122711 counters 3677/1957/1616/1028/1338/7352/378 tenants 17/74/42"
	if got != want {
		t.Errorf("seeded replay:\n got %s\nwant %s", got, want)
	}
}
