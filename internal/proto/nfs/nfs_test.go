package nfs

import (
	"fmt"
	"math/rand"
	"testing"

	"ashs/internal/aegis"
	"ashs/internal/mach"
	"ashs/internal/netdev"
	"ashs/internal/proto/ip"
	"ashs/internal/proto/link"
	"ashs/internal/proto/udp"
	"ashs/internal/sim"
)

// world builds a client/server pair; body runs in the client process.
func world(t *testing.T, srv *Server, requests int, body func(p *aegis.Process, c *Client)) *netdev.Switch {
	t.Helper()
	return worldWire(t, srv, requests, nil, body)
}

// worldWire is world with inject installed on the switch before anything
// runs (see netdev.Switch.Inject).
func worldWire(t *testing.T, srv *Server, requests int, inject func(*netdev.PacketBuf) bool, body func(p *aegis.Process, c *Client)) *netdev.Switch {
	t.Helper()
	eng, sw := spawnWorld(t, srv, requests, inject, body)
	eng.Run()
	return sw
}

// spawnWorld is worldWire without the run: the server and the client are
// spawned on the returned engine, which has fired nothing yet.
func spawnWorld(t *testing.T, srv *Server, requests int, inject func(*netdev.PacketBuf) bool, body func(p *aegis.Process, c *Client)) (*sim.Engine, *netdev.Switch) {
	t.Helper()
	eng := sim.NewEngine()
	prof := mach.DS5000_240()
	sw := netdev.NewSwitch(eng, prof, netdev.AN2Config())
	sw.Inject = inject
	k1 := aegis.NewKernel("client", eng, prof)
	k2 := aegis.NewKernel("server", eng, prof)
	a1, a2 := aegis.NewAN2(k1, sw), aegis.NewAN2(k2, sw)
	ip1, ip2 := ip.HostAddr(a1.Addr()), ip.HostAddr(a2.Addr())

	stack := func(p *aegis.Process, iface *aegis.AN2If, local ip.Addr) *ip.Stack {
		ep, err := link.BindAN2(iface, p, 5, 16, iface.MaxFrame())
		if err != nil {
			t.Error(err)
			return nil
		}
		return ip.NewStack(ep, local, ip.StaticResolver{
			ip1: {Port: a1.Addr(), VC: 5},
			ip2: {Port: a2.Addr(), VC: 5},
		})
	}

	k2.Spawn("nfsd", func(p *aegis.Process) {
		st := stack(p, a2, ip2)
		if st == nil {
			return
		}
		sock := udp.NewSocket(st, 2049, udp.Options{Checksum: true})
		srv.Serve(p, sock, requests)
	})
	k1.Spawn("mount", func(p *aegis.Process) {
		st := stack(p, a1, ip1)
		if st == nil {
			return
		}
		sock := udp.NewSocket(st, 900, udp.Options{Checksum: true})
		body(p, NewClient(sock, ip2, 2049))
	})
	return eng, sw
}

// TestRPCDoesNotAllocate: once warm, a GetAttr, a Read and a Write allocate
// nothing, client and server both — each side marshals into and copies out
// of its own reused buffers. The client stops the engine after every round,
// so one Run is one round of three RPCs.
func TestRPCDoesNotAllocate(t *testing.T) {
	srv := NewServer()
	fh := srv.AddFile("f", make([]byte, MaxIO))
	out := make([]byte, 2048)
	for i := range out {
		out[i] = byte(i)
	}
	rounds := 0
	eng, _ := spawnWorld(t, srv, 0, nil, func(p *aegis.Process, c *Client) {
		for {
			if _, err := c.GetAttr(p, fh); err != nil {
				t.Error(err)
				return
			}
			in, err := c.Read(p, fh, 1024, 2048)
			if err != nil || len(in) != 2048 {
				t.Errorf("read: %d bytes, %v", len(in), err)
				return
			}
			if _, err := c.Write(p, fh, 0, out); err != nil {
				t.Error(err)
				return
			}
			rounds++
			p.K.Eng.Stop()
		}
	})
	defer eng.Close()
	for i := 0; i < 10; i++ {
		eng.Run()
	}
	warm := rounds
	allocs := testing.AllocsPerRun(100, eng.Run)
	if rounds != warm+101 || t.Failed() {
		t.Fatalf("%d rounds for 101 runs", rounds-warm)
	}
	if allocs != 0 {
		t.Errorf("a warm GetAttr+Read+Write round allocates %v times, want 0", allocs)
	}
}

func TestLookupGetAttrRead(t *testing.T) {
	srv := NewServer()
	content := []byte("exokernels let applications manage their own resources")
	srv.AddFile("motd", content)

	world(t, srv, 3, func(p *aegis.Process, c *Client) {
		attr, err := c.Lookup(p, RootHandle, "motd")
		if err != nil {
			t.Error(err)
			return
		}
		if attr.IsDir || attr.Size != uint32(len(content)) {
			t.Errorf("attr = %+v", attr)
		}
		a2, err := c.GetAttr(p, attr.Handle)
		if err != nil || a2 != attr {
			t.Errorf("getattr = %+v, %v", a2, err)
		}
		data, err := c.Read(p, attr.Handle, 11, 10)
		if err != nil {
			t.Error(err)
			return
		}
		if string(data) != string(content[11:21]) {
			t.Errorf("read = %q", data)
		}
	})
}

func TestCreateWriteReadBack(t *testing.T) {
	srv := NewServer()
	payload := make([]byte, 5000)
	rand.New(rand.NewSource(8)).Read(payload)

	world(t, srv, 4, func(p *aegis.Process, c *Client) {
		attr, err := c.Create(p, RootHandle, "data.bin")
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := c.Write(p, attr.Handle, 0, payload[:4096]); err != nil {
			t.Error(err)
			return
		}
		if a, err := c.Write(p, attr.Handle, 4096, payload[4096:]); err != nil || a.Size != 5000 {
			t.Errorf("write 2: %+v, %v", a, err)
			return
		}
		got, err := c.Read(p, attr.Handle, 0, 5000)
		if err != nil {
			t.Error(err)
			return
		}
		for i := range payload {
			if got[i] != payload[i] {
				t.Errorf("read-back mismatch at %d", i)
				return
			}
		}
	})
}

func TestLookupMissingFails(t *testing.T) {
	srv := NewServer()
	world(t, srv, 1, func(p *aegis.Process, c *Client) {
		if _, err := c.Lookup(p, RootHandle, "nope"); err == nil {
			t.Error("lookup of missing file succeeded")
		}
	})
}

func TestWriteIdempotent(t *testing.T) {
	// Applying the same absolute write twice leaves the same state (the
	// property that makes NFS retransmission safe).
	srv := NewServer()
	fh := srv.AddFile("f", []byte("0123456789"))
	world(t, srv, 3, func(p *aegis.Process, c *Client) {
		if _, err := c.Write(p, fh, 4, []byte("XY")); err != nil {
			t.Error(err)
			return
		}
		if _, err := c.Write(p, fh, 4, []byte("XY")); err != nil {
			t.Error(err)
			return
		}
		got, err := c.Read(p, fh, 0, 10)
		if err != nil {
			t.Error(err)
			return
		}
		if string(got) != "0123XY6789" {
			t.Errorf("after duplicate writes: %q", got)
		}
	})
}

// TestWritePastTheEndIsRefused: a WRITE whose offset, taken from the
// datagram, lies past the end of the file is refused with ErrIO and leaves
// the file as it was; it does not size a Go allocation. One at the end
// still appends.
func TestWritePastTheEndIsRefused(t *testing.T) {
	srv := NewServer()
	fh := srv.AddFile("f", []byte("0123456789"))
	world(t, srv, 5, func(p *aegis.Process, c *Client) {
		status, _, err := c.call(p, ProcWrite, fh, 40<<20, 0, []byte("XY"))
		if err != nil || status != ErrIO {
			t.Errorf("write at 40 MiB: status %d, %v; want %d", status, err, ErrIO)
		}
		status, _, err = c.call(p, ProcWrite, fh, 11, 0, []byte("XY"))
		if err != nil || status != ErrIO {
			t.Errorf("write one past the end: status %d, %v; want %d", status, err, ErrIO)
		}
		if a, err := c.GetAttr(p, fh); err != nil || a.Size != 10 {
			t.Errorf("after the refused writes: %+v, %v; want size 10", a, err)
		}
		if got, err := c.Read(p, fh, 0, 16); err != nil || string(got) != "0123456789" {
			t.Errorf("after the refused writes: %q, %v", got, err)
		}
		if a, err := c.Write(p, fh, 10, []byte("AB")); err != nil || a.Size != 12 {
			t.Errorf("write at the end: %+v, %v; want size 12", a, err)
		}
	})
}

func TestRetransmissionWithLoss(t *testing.T) {
	srv := NewServer()
	fh := srv.AddFile("f", []byte("0123456789"))
	// The switch drops the first server reply.
	// world() runs the engine, so inject before by wrapping: rebuild
	// manually with an injector.
	eng := sim.NewEngine()
	prof := mach.DS5000_240()
	sw := netdev.NewSwitch(eng, prof, netdev.AN2Config())
	k1 := aegis.NewKernel("client", eng, prof)
	k2 := aegis.NewKernel("server", eng, prof)
	a1, a2 := aegis.NewAN2(k1, sw), aegis.NewAN2(k2, sw)
	ip1, ip2 := ip.HostAddr(a1.Addr()), ip.HostAddr(a2.Addr())
	drops := 0
	sw.Inject = func(pkt *netdev.PacketBuf) bool {
		// Reply packets travel from server (port 1) to client (port 0).
		if pkt.Src == a2.Addr() && drops == 0 {
			drops++
			return false
		}
		return true
	}
	stack := func(p *aegis.Process, iface *aegis.AN2If, local ip.Addr) *ip.Stack {
		ep, err := link.BindAN2(iface, p, 5, 16, iface.MaxFrame())
		if err != nil {
			t.Fatal(err)
		}
		return ip.NewStack(ep, local, ip.StaticResolver{
			ip1: {Port: a1.Addr(), VC: 5},
			ip2: {Port: a2.Addr(), VC: 5},
		})
	}
	k2.Spawn("nfsd", func(p *aegis.Process) {
		sock := udp.NewSocket(stack(p, a2, ip2), 2049, udp.Options{Checksum: true})
		srv.Serve(p, sock, 3)
	})
	ok := false
	k1.Spawn("mount", func(p *aegis.Process) {
		sock := udp.NewSocket(stack(p, a1, ip1), 900, udp.Options{Checksum: true})
		c := NewClient(sock, ip2, 2049)
		c.RetryUs = 20_000
		if _, err := c.Write(p, fh, 0, []byte("AB")); err != nil {
			t.Error(err)
			return
		}
		got, err := c.Read(p, fh, 0, 10)
		if err != nil {
			t.Error(err)
			return
		}
		if string(got) != "AB23456789" {
			t.Errorf("got %q", got)
			return
		}
		if c.Resent == 0 {
			t.Error("loss did not trigger retransmission")
		}
		ok = true
	})
	eng.Run()
	if !ok {
		t.Fatal("client did not complete")
	}
	if drops != 1 {
		t.Fatalf("injector dropped %d", drops)
	}
}

func TestCreateIdempotent(t *testing.T) {
	srv := NewServer()
	world(t, srv, 2, func(p *aegis.Process, c *Client) {
		a1, err := c.Create(p, RootHandle, "same")
		if err != nil {
			t.Error(err)
			return
		}
		a2, err := c.Create(p, RootHandle, "same")
		if err != nil {
			t.Error(err)
			return
		}
		if a1.Handle != a2.Handle {
			t.Errorf("retransmitted CREATE made a second file: %v vs %v", a1.Handle, a2.Handle)
		}
	})
}

// TestDeadPortGivesUpAfterRetries pins the client's retransmission
// schedule: an RPC to a port nobody serves goes out Retries+1 times, the
// interval doubling from RetryUs up to MaxRetryUs (each gap longer by only
// the send path's own, unchanging cycles), and the call fails one more
// capped interval after the last send.
func TestDeadPortGivesUpAfterRetries(t *testing.T) {
	var sent []sim.Time
	var now func() sim.Time
	var cli *Client
	var err error
	var end sim.Time
	wire := func(*netdev.PacketBuf) bool {
		sent = append(sent, now())
		return true
	}
	worldWire(t, NewServer(), 1, wire, func(p *aegis.Process, c *Client) {
		now = c.Sock.St.Ep.Kernel().Now
		cli = c
		c.Port = 2051 // nobody home
		_, err = c.Lookup(p, RootHandle, "x")
		end = now()
	})

	wantMs := []float64{100, 200, 400, 800, 800}
	if len(wantMs) != cli.Retries || len(sent) != cli.Retries+1 || cli.Resent != uint64(cli.Retries) {
		t.Fatalf("%d sends, %d resent; want Retries+1 = %d sends, Retries = %d resent",
			len(sent), cli.Resent, len(wantMs)+1, len(wantMs))
	}
	if want := fmt.Sprintf("nfs: no reply after %d attempts", cli.Retries+1); err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	prof := mach.DS5000_240()
	over := sent[1] - sent[0] - prof.Cycles(wantMs[0]*1000)
	if over < 0 || over > prof.Cycles(100) {
		t.Fatalf("first retry %d cycles past its interval, want a send path's worth (< 100 us)", over)
	}
	for i, ms := range wantMs {
		if gap := sent[i+1] - sent[i]; gap != prof.Cycles(ms*1000)+over {
			t.Errorf("send %d after %.3f ms, want %.0f ms + %d cycles", i+2, prof.Us(gap)/1000, ms, over)
		}
	}
	capped := prof.Cycles(cli.MaxRetryUs)
	if last := sent[len(sent)-1]; end > last+capped || end < last+capped-prof.Cycles(100) {
		t.Errorf("gave up %.3f ms after the last send, want about %.0f ms", prof.Us(end-last)/1000, cli.MaxRetryUs/1000)
	}
}

// TestBackoffBudgetRefillsPerRPC: the Retries allowance of the backoff
// schedule is per RPC — after a call that spent it against a dead port,
// the next call against the live server proceeds normally.
func TestBackoffBudgetRefillsPerRPC(t *testing.T) {
	srv := NewServer()
	srv.AddFile("f", []byte("x"))
	world(t, srv, 1, func(p *aegis.Process, c *Client) {
		c.Retries = 1
		good := c.Port
		c.Port = 2051
		if _, err := c.Lookup(p, RootHandle, "f"); err == nil {
			t.Error("dead-port lookup succeeded")
			return
		}
		c.Port = good
		if _, err := c.Lookup(p, RootHandle, "f"); err != nil {
			t.Errorf("post-failure lookup: %v", err)
		}
		if c.Resent != 1 {
			t.Errorf("resent = %d, want 1 (the dead-port call's one retry)", c.Resent)
		}
	})
}
