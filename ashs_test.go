package ashs_test

import (
	"testing"

	"ashs"
)

// TestQuickstartFlow exercises the documented public-API flow: build a
// world, download an echo handler, attach it to a circuit, ping it.
func TestQuickstartFlow(t *testing.T) {
	w := ashs.NewWorld()
	const vc = 7

	app := w.Host2.Spawn("app", func(p *ashs.Process) {})
	b := ashs.NewCodeBuilder("echo")
	msg, n := b.Temp(), b.Temp()
	b.Mov(msg, ashs.RArg0)
	b.Mov(n, ashs.RArg1)
	b.MovI(ashs.RArg0, int32(w.AN2Host1.Addr()))
	b.MovI(ashs.RArg1, vc)
	b.Mov(ashs.RArg2, msg)
	b.Mov(ashs.RArg3, n)
	b.Call("ash_send")
	b.MovI(ashs.RRet, 0)
	b.Ret()

	ash, err := w.ASH2.Download(app, b.MustAssemble(), ashs.ASHOptions{})
	if err != nil {
		t.Fatal(err)
	}
	binding, err := w.AN2Host2.BindVC(app, vc, 8, 4096)
	if err != nil {
		t.Fatal(err)
	}
	ash.Attach(binding)

	var got []byte
	w.Host1.Spawn("client", func(p *ashs.Process) {
		st := w.IPStackAN2(p, 1, vc)
		ep := st.Ep
		ep.Send(ashs.LinkAddr{Port: w.AN2Host2.Addr(), VC: vc}, []byte{9, 8, 7, 6})
		f := ep.Recv(true)
		got = make([]byte, f.Len())
		f.Bytes(got, 0, f.Len())
		ep.Release(f)
	})
	w.Run()
	if len(got) != 4 || got[0] != 9 || got[3] != 6 {
		t.Fatalf("echo returned %v", got)
	}
	if ash.Invocations != 1 {
		t.Fatalf("handler ran %d times", ash.Invocations)
	}
}

// TestPipeFacade exercises the DILP surface of the public API.
func TestPipeFacade(t *testing.T) {
	pl := ashs.NewPipeList(2)
	if _, _, err := ashs.CksumPipe(pl); err != nil {
		t.Fatal(err)
	}
	if _, err := ashs.ByteswapPipe(pl); err != nil {
		t.Fatal(err)
	}
	eng, err := ashs.CompilePipes(pl, true)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Prog.Len() == 0 {
		t.Fatal("empty engine")
	}
}

// TestTCPOverFacade runs a small TCP exchange through the facade, with the
// fast path as a sandboxed ASH.
func TestTCPOverFacade(t *testing.T) {
	w := ashs.NewWorld()
	payload := []byte("facade-level transfer")

	w.Host2.Spawn("server", func(p *ashs.Process) {
		st := w.IPStackAN2(p, 2, 7)
		cfg := ashs.DefaultTCPConfig()
		cfg.Mode = ashs.TCPASH
		cfg.Sys = w.ASH2
		conn, err := ashs.TCPAccept(st, cfg, 80)
		if err != nil {
			t.Error(err)
			return
		}
		buf := p.AS.MustAlloc(64, "rx")
		if err := conn.ReadFull(buf.Base, len(payload)); err != nil {
			t.Error(err)
			return
		}
		if string(w.Host2.Bytes(buf.Base, len(payload))) != string(payload) {
			t.Error("payload corrupted")
		}
		_ = conn.Close()
	})
	w.Host1.Spawn("client", func(p *ashs.Process) {
		st := w.IPStackAN2(p, 1, 7)
		cfg := ashs.DefaultTCPConfig()
		cfg.Mode = ashs.TCPASH
		cfg.Sys = w.ASH1
		conn, err := ashs.TCPConnect(st, cfg, 1234, w.IP2, 80)
		if err != nil {
			t.Error(err)
			return
		}
		if err := conn.WriteBytes(payload); err != nil {
			t.Error(err)
		}
		_ = conn.Close()
	})
	w.Run()
}

// TestEthernetWorldFacade builds the Ethernet world with ARP.
func TestEthernetWorldFacade(t *testing.T) {
	w := ashs.NewWorld(ashs.WithEthernet())
	s1, err := w.StartARP(1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := w.StartARP(2)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	w.Host2.Spawn("server", func(p *ashs.Process) {
		st := w.IPStackEthernet(p, 2, 17, 53, s2)
		sock := ashs.NewUDPSocket(st, 53, ashs.UDPOptions{Checksum: true})
		m, err := sock.Recv(false)
		if err != nil {
			t.Error(err)
			return
		}
		got = append([]byte(nil), m.Bytes(w.Host2)...)
		sock.Release(m)
	})
	w.Host1.Spawn("client", func(p *ashs.Process) {
		st := w.IPStackEthernet(p, 1, 17, 99, s1)
		sock := ashs.NewUDPSocket(st, 99, ashs.UDPOptions{Checksum: true})
		if err := sock.SendBytes(w.IP2, 53, []byte("across the wire")); err != nil {
			t.Error(err)
		}
	})
	w.Run()
	if string(got) != "across the wire" {
		t.Fatalf("got %q", got)
	}
}

func TestLintFacade(t *testing.T) {
	// A handler with an obviously dead store is flagged; a tight clean
	// handler is not.
	b := ashs.NewCodeBuilder("lint-me")
	r := b.Temp()
	b.MovI(r, 1)
	b.MovI(r, 2)
	b.Mov(ashs.RRet, r)
	b.Ret()
	prog, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	findings := ashs.LintASH(prog)
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly the dead store", findings)
	}

	clean := ashs.NewCodeBuilder("clean")
	clean.MovI(ashs.RRet, 0)
	clean.Ret()
	cp, err := clean.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if fs := ashs.LintASH(cp); len(fs) != 0 {
		t.Fatalf("clean handler flagged: %v", fs)
	}
}
