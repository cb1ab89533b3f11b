// Webserver: the paper's HTTP protocol running over the full stack — the
// user-level TCP library with its common-case fast path downloaded as a
// sandboxed ASH, over IP, over the simulated AN2.
//
// A browser process fetches a ~64-KB document from an httpd process on
// the other host; the transfer's data segments are checksummed and copied
// by the in-kernel handler via dynamic ILP.
//
//	go run ./examples/webserver
package main

import (
	"fmt"
	"math/rand"

	"ashs"
)

func main() {
	for _, mode := range []struct {
		name string
		m    ashs.TCPConfig
	}{
		{"user-level library", cfg(ashs.TCPUser)},
		{"sandboxed ASH fast path", cfg(ashs.TCPASH)},
	} {
		us, handled := fetch(mode.m)
		fmt.Printf("%-26s GET /doc (64 KB): %7.0f us", mode.name, us)
		if handled > 0 {
			fmt.Printf("   (%d segments consumed by the handler)", handled)
		}
		fmt.Println()
	}
}

func cfg(m ashs.TCPMode) ashs.TCPConfig {
	c := ashs.DefaultTCPConfig()
	c.Mode = m
	return c
}

// fetch serves and fetches one document, returning the client's elapsed
// virtual microseconds and the count of handler-consumed segments.
func fetch(c ashs.TCPConfig) (float64, uint64) {
	w := ashs.NewWorld()
	defer w.Close()
	doc := make([]byte, 64<<10)
	rand.New(rand.NewSource(42)).Read(doc)

	var handled uint64
	w.Host2.Spawn("httpd", func(p *ashs.Process) {
		st := w.IPStackAN2(p, 2, 7)
		cc := c
		cc.Sys = w.ASH2
		conn, err := ashs.TCPAccept(st, cc, 80)
		if err != nil {
			panic(err)
		}
		srv := &ashs.HTTPServer{Routes: map[string][]byte{"/doc": doc}}
		if err := srv.Serve(conn); err != nil {
			panic(err)
		}
		handled += conn.HandlerConsumed
	})

	var elapsed float64
	w.Host1.Spawn("browser", func(p *ashs.Process) {
		st := w.IPStackAN2(p, 1, 7)
		cc := c
		cc.Sys = w.ASH1
		conn, err := ashs.TCPConnect(st, cc, 1234, w.IP2, 80)
		if err != nil {
			panic(err)
		}
		start := p.K.Now()
		resp, err := ashs.HTTPGet(conn, "/doc")
		if err != nil {
			panic(err)
		}
		elapsed = w.Us(p.K.Now() - start)
		if resp.Status != 200 || len(resp.Body) != len(doc) {
			panic("bad response")
		}
		for i := range doc {
			if resp.Body[i] != doc[i] {
				panic("document corrupted in transit")
			}
		}
		handled += conn.HandlerConsumed
	})
	w.Run()
	return elapsed, handled
}
