//go:build go1.23

package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// idleCoros is a copy of the pool's free list, the next to be taken last.
func idleCoros() []*coro {
	coros.Lock()
	defer coros.Unlock()
	return append([]*coro(nil), coros.free...)
}

// TestCoroutinePoolReuse: the coroutine of a body that returned and the one
// of a body Close unwound each go back to the pool, and the next two
// processes, on another engine, run on them — no goroutine is started —
// and hand them back as they end.
func TestCoroutinePoolReuse(t *testing.T) {
	var trace []string
	e := NewEngine()
	e.Go("returns", func(p *Proc) {
		p.Sleep(1)
		trace = append(trace, "returned")
	})
	e.Go("killed", func(p *Proc) {
		defer func() { trace = append(trace, "unwound") }()
		p.Park()
	})
	e.Run()
	e.Close()
	pool := idleCoros()
	if len(pool) < 2 {
		t.Fatalf("%d idle coroutines after both bodies ended", len(pool))
	}
	returned, killed := pool[len(pool)-2], pool[len(pool)-1]

	goroutines := runtime.NumGoroutine()
	e = NewEngine()
	for _, name := range []string{"first", "second"} {
		e.Go(name, func(p *Proc) {
			p.Sleep(1)
			trace = append(trace, name)
		})
	}
	if taken := len(pool) - len(idleCoros()); taken != 2 {
		t.Fatalf("two processes took %d coroutines from the pool", taken)
	}
	e.Run()
	e.Close()
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines, %d before the second engine's processes", n, goroutines)
	}
	// The pool is a stack: "first" ran on the killed body's coroutine,
	// "second" on the returned one's, and "first" ended first.
	after := idleCoros()
	if len(after) != len(pool) || after[len(after)-2] != killed || after[len(after)-1] != returned {
		t.Errorf("the two coroutines did not run the next two bodies and come back")
	}
	if got := strings.Join(trace, " "); got != "returned unwound first second" {
		t.Errorf("trace %q", got)
	}
}

// TestCoroutinePoolAcrossEngines runs engines on parallel goroutines that
// take coroutines from the one pool and give them back, so under -race a
// coroutine one engine started runs the bodies of others.
func TestCoroutinePoolAcrossEngines(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 25; round++ {
				e := NewEngine()
				sum := 0
				for i := 0; i < 6; i++ {
					e.Go(fmt.Sprint("p", i), func(p *Proc) {
						for k := 0; k < 5; k++ {
							p.Sleep(Time(1 + (i+k)%3))
							sum += i
						}
						if i%2 == 0 {
							p.Park() // left for Close to unwind
						}
					})
				}
				e.Run()
				e.Close()
				if live := e.Stats().LiveProcs; sum != 5*15 || live != 0 {
					t.Errorf("sum %d, want %d; %d processes live after Close", sum, 5*15, live)
					return
				}
			}
		}()
	}
	wg.Wait()
}
