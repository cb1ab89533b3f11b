package relay

import (
	"bytes"
	"testing"
)

func newTest() *Server {
	return NewServer(Config{
		TTLUs: 100, BurnTTLUs: 500,
		MaxBlobBytes: 64, MaxBlobsPerConv: 3, MaxTenantBytes: 128,
	})
}

func status(t *testing.T, rep []byte) byte {
	t.Helper()
	_, st, _, _, _, ok := ParseReply(rep)
	if !ok {
		t.Fatalf("malformed reply % x", rep)
	}
	return st
}

// TestSubmitPollFIFO: blobs come back oldest-first with their sequence
// numbers and payloads intact.
func TestSubmitPollFIFO(t *testing.T) {
	s := newTest()
	for i := 0; i < 3; i++ {
		rep, _, _ := s.Handle(10, "a", SubmitReq(7, uint16(i), []byte{byte(i), 0xee}))
		if status(t, rep) != StatusOK {
			t.Fatalf("submit %d refused", i)
		}
	}
	for i := 0; i < 3; i++ {
		rep, _, _ := s.Handle(20, "a", PollReq(7))
		op, st, seq, cid, payload, _ := ParseReply(rep)
		if op != OpPoll || st != StatusOK || cid != 7 {
			t.Fatalf("poll %d: op=%d st=%d cid=%d", i, op, st, cid)
		}
		if seq != uint16(i) || !bytes.Equal(payload, []byte{byte(i), 0xee}) {
			t.Fatalf("poll %d out of order: seq=%d payload=% x", i, seq, payload)
		}
	}
	if rep, _, _ := s.Handle(21, "a", PollReq(7)); status(t, rep) != StatusEmpty {
		t.Fatal("drained conversation not empty")
	}
	if s.Submitted != 3 || s.Polled != 3 || s.Empty != 1 {
		t.Fatalf("counters %d/%d/%d", s.Submitted, s.Polled, s.Empty)
	}
}

// TestTTLExpiry: blobs older than the TTL vanish front-first and are
// counted expired, not delivered.
func TestTTLExpiry(t *testing.T) {
	s := newTest()
	s.Handle(0, "a", SubmitReq(1, 0, []byte("old")))
	s.Handle(90, "a", SubmitReq(1, 1, []byte("new")))
	rep, _, _ := s.Handle(150, "a", PollReq(1)) // 150 > 0+100: blob 0 dead
	_, st, seq, _, payload, _ := ParseReply(rep)
	if st != StatusOK || seq != 1 || string(payload) != "new" {
		t.Fatalf("got st=%d seq=%d %q, want live blob 1", st, seq, payload)
	}
	if s.Expired != 1 {
		t.Fatalf("expired = %d, want 1", s.Expired)
	}
	if got := s.tenantBytes["a"]; got != 0 {
		t.Fatalf("tenant bytes after expiry+poll = %d, want 0", got)
	}
}

// TestQueueCapAndBlobSize: per-conversation caps and the blob size bound
// reject without mutating state.
func TestQueueCapAndBlobSize(t *testing.T) {
	s := newTest()
	for i := 0; i < 3; i++ {
		s.Handle(1, "a", SubmitReq(2, uint16(i), []byte{1}))
	}
	if rep, _, _ := s.Handle(1, "a", SubmitReq(2, 9, []byte{1})); status(t, rep) != StatusRejected {
		t.Fatal("4th blob accepted past MaxBlobsPerConv=3")
	}
	if rep, _, _ := s.Handle(1, "a", SubmitReq(3, 0, make([]byte, 65))); status(t, rep) != StatusRejected {
		t.Fatal("oversized blob accepted")
	}
	if rep, _, _ := s.Handle(1, "a", []byte{OpSubmit, 0}); status(t, rep) != StatusRejected {
		t.Fatal("truncated request accepted")
	}
	if s.Rejected != 3 {
		t.Fatalf("rejected = %d, want 3", s.Rejected)
	}
}

// TestTenantQuota: one tenant's queued bytes are capped across
// conversations; another tenant is unaffected.
func TestTenantQuota(t *testing.T) {
	s := newTest()
	big := make([]byte, 64)
	s.Handle(1, "greedy", SubmitReq(1, 0, big))
	s.Handle(1, "greedy", SubmitReq(2, 0, big)) // 128 = MaxTenantBytes
	if rep, _, _ := s.Handle(1, "greedy", SubmitReq(3, 0, []byte{1})); status(t, rep) != StatusRejected {
		t.Fatal("tenant over quota accepted")
	}
	if rep, _, _ := s.Handle(1, "quiet", SubmitReq(4, 0, big)); status(t, rep) != StatusOK {
		t.Fatal("quiet tenant refused by greedy's quota")
	}
}

// TestBurn: burning destroys the queue, refuses traffic during the burn
// window, and the conversation revives after it lapses.
func TestBurn(t *testing.T) {
	s := newTest()
	s.Handle(1, "a", SubmitReq(5, 0, []byte("secret")))
	if rep, _, _ := s.Handle(2, "a", AppendRequest(nil, OpBurn, 5, 0, nil)); status(t, rep) != StatusOK {
		t.Fatal("burn refused")
	}
	if s.BurnDrops != 1 || s.tenantBytes["a"] != 0 {
		t.Fatalf("burn left state: drops=%d bytes=%d", s.BurnDrops, s.tenantBytes["a"])
	}
	if rep, _, _ := s.Handle(3, "a", SubmitReq(5, 1, []byte("x"))); status(t, rep) != StatusBurned {
		t.Fatal("submit accepted inside burn window")
	}
	if rep, _, _ := s.Handle(4, "a", PollReq(5)); status(t, rep) != StatusBurned {
		t.Fatal("poll served inside burn window")
	}
	// 2+500 elapsed: the flag lapses.
	if rep, _, _ := s.Handle(503, "a", SubmitReq(5, 2, []byte("y"))); status(t, rep) != StatusOK {
		t.Fatal("conversation did not revive after burn TTL")
	}
}

// TestDeterministicReplay: identical request sequences produce identical
// replies, costs, and counters.
func TestDeterministicReplay(t *testing.T) {
	run := func() ([]byte, int, int, [7]uint64) {
		s := newTest()
		var cat []byte
		var insns, memops int
		ops := [][]byte{
			SubmitReq(1, 0, []byte("aa")), SubmitReq(1, 1, []byte("bb")),
			PollReq(1), AppendRequest(nil, OpBurn, 1, 0, nil), PollReq(1), SubmitReq(2, 0, []byte("cc")),
		}
		for i, req := range ops {
			rep, in, mem := s.Handle(float64(i*10), "t", req)
			cat = append(cat, rep...)
			insns += in
			memops += mem
		}
		return cat, insns, memops, [7]uint64{
			s.Submitted, s.Polled, s.Empty, s.Burned, s.Expired, s.Rejected, s.BurnDrops,
		}
	}
	c1, i1, m1, s1 := run()
	c2, i2, m2, s2 := run()
	if !bytes.Equal(c1, c2) || i1 != i2 || m1 != m2 {
		t.Fatal("replay diverged in replies or costs")
	}
	if s1 != s2 {
		t.Fatalf("replay diverged in counters:\n%v\n%v", s1, s2)
	}
}
