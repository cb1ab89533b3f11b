package bench

import (
	"fmt"
	"strings"

	"ashs/internal/aegis"
	"ashs/internal/core"
	"ashs/internal/fault"
	"ashs/internal/obs"
	"ashs/internal/proto/ether"
	"ashs/internal/proto/ip"
	"ashs/internal/proto/retry"
	"ashs/internal/proto/udp"
	"ashs/internal/relay"
	"ashs/internal/sim"
	"ashs/internal/workload"
)

// The overload experiment drives the scale topology with adversarial
// open-loop traces (internal/workload) against a relay service expressed
// as per-client ASHs (internal/relay), with every stage of the
// overload-control plane engaged:
//
//   - admission control: each server binding's notification ring carries a
//     high watermark; frames arriving at a full ring are shed at demux,
//     before they cost a pool buffer or any handler cycles
//     (Ring.Shed / RxStats.Shed);
//   - tenant quotas: clients map onto tenants, and System.Quota refuses
//     eager handler execution to a tenant over its per-window cycle
//     budget — the message is not dropped but re-vectored to the lazy
//     user-level path, where a drainer process serves it slower;
//   - client backoff: every lost or throttled-into-the-tail request is
//     retried under deterministic jittered exponential backoff with a hard
//     retry budget (internal/proto/retry), so synchronized losers
//     desynchronize instead of re-colliding.
//
// Each cell crosses one trace shape with one fault schedule. The claim
// under test is graceful degradation: past saturation the system keeps
// serving at a high fraction of peak goodput with a bounded tail, because
// excess load is shed or deferred at the cheapest possible point instead
// of being absorbed into queues (overload_test.go asserts this).

const (
	overloadClients = 16
	overloadTenants = 4
	overloadPort    = 9 // relay service UDP port on the server

	// overloadLanes is each client's request concurrency: the trace slice
	// is striped across this many independent sender processes (one UDP
	// source port each), so an adversarial burst is actually offered to
	// the server instead of being serialized behind one outstanding
	// request per client.
	overloadLanes = 4

	// overloadClientMem is a lane client's memory: room for overloadLanes
	// sockets (each allocates tx+rx staging buffers). The largest cell's
	// clients reach a brk of 496 KiB (TestHostMemoryFitsItsLargestCell).
	overloadClientMem = 640 << 10

	// overloadGap1xUs is the fleet-wide mean inter-arrival gap of the 1x
	// traces, in microseconds. The server's measured service capacity is
	// ~10-12 ops/ms, so 1x (10 ops/ms offered) sits right at saturation —
	// the peak-goodput operating point. The 2x trace halves the gap
	// (2x saturation) and 4x halves it again; the graceful-degradation
	// claim is that goodput holds near peak across that range instead of
	// collapsing under retry amplification.
	overloadGap1xUs = 100.0

	// overloadWarmupUs shifts every trace event so the server's filters
	// and handlers are installed before the first arrival.
	overloadWarmupUs = 50.0

	overloadSize    = 64  // payload size (mean, for heavy-tailed sizes)
	overloadMaxSize = 512 // bounded-Pareto size cap

	// overloadHighWater is each server binding's ring admission limit.
	// One binding carries all of a client's lanes, so a throttled burst
	// concentrates on one ring and admission control has something to
	// protect.
	overloadHighWater = 6

	// Tenant cycle budgets: each tenant may spend this many receive-path
	// cycles per quota window on eager handler execution; the excess is
	// throttled to the drainers. A 64-byte submit charges ~500 cycles, so
	// the budget covers ~6 eager ops per window — clear of the 1x rate
	// (~2.5 ops per tenant-window), exceeded by bursts and the 2x trace.
	overloadQuotaWindowUs = 1000
	overloadTenantBudget  = 3000

	// overloadLazyUs models the user-level cost of one drainer-served
	// request beyond the relay work itself: wakeup, scheduling, copy-out.
	// The lazy path is deliberately much slower than the eager ASH; when
	// throttled load outruns it, rings fill and admission control sheds.
	overloadLazyUs = 500

	// Client backoff policy: first retry 1-2ms out (safely above the
	// loaded round trip), doubling to a 16ms cap, at most 6 attempts per
	// operation.
	overloadBackoffBaseUs = 2000
	overloadBackoffCapUs  = 16000
	overloadRetryBudget   = 6

	overloadTraceSeed  = 101 // workload-generator seed
	overloadFaultSeed  = 7   // fault-plane seed
	overloadJitterSeed = 33  // client backoff jitter seed
)

// overloadTrace is one arrival-schedule shape of the matrix: a generator,
// by its name in workload.Generators, at a fleet-wide mean gap.
type overloadTrace struct {
	name, gen string
	gapUs     float64
}

// overloadTraces is the trace axis, in presentation order.
var overloadTraces = []overloadTrace{
	{"pois-1x", "poisson", overloadGap1xUs},
	{"pois-2x", "poisson", overloadGap1xUs / 2},
	{"pois-4x", "poisson", overloadGap1xUs / 4},
	{"heavytail", "heavytail", overloadGap1xUs},
	{"flashcrowd", "flashcrowd", overloadGap1xUs},
	{"incast", "incast", overloadGap1xUs},
}

// overloadScheds is the fault-schedule axis (names resolved via
// fault.Named): no faults, wire loss, and device ring/pool/truncate chaos.
var overloadScheds = []string{"baseline", "loss", "device"}

// OverloadResult is one (trace, schedule) cell. Comparable: rerunning a
// cell must reproduce it field-for-field.
type OverloadResult struct {
	Trace string
	Sched string

	Offered   int    // arrivals the trace scheduled
	Completed uint64 // operations acknowledged within the retry budget
	Failed    uint64 // operations that exhausted the retry budget
	Retries   uint64 // retransmissions beyond each operation's first send

	GoodputMsgMs float64 // completed operations per millisecond
	MeanUs       float64 // mean completion latency from scheduled arrival
	P50Us        float64
	P99Us        float64

	Sheds          uint64 // ring high-watermark sheds (admission control)
	PoolDrops      uint64 // genuine receive-pool exhaustion
	InjectedDrops  uint64 // device losses forced by the fault plane
	CRCDrops       uint64 // frames rejected by the board's frame check
	QuotaThrottled uint64 // handler executions refused to the lazy path
	LazyServed     uint64 // requests served by the user-level drainers
	RelayRejected  uint64 // relay-level refusals (caps, quota, malformed)
	RelayExpired   uint64 // blobs TTL-expired before delivery
}

// overloadRelayConfig bounds the relay so the adversarial traces actually
// hit its caps: short TTLs and per-conversation/tenant limits.
func overloadRelayConfig() relay.Config {
	return relay.Config{
		TTLUs:           5_000,
		BurnTTLUs:       2_000,
		MaxBlobBytes:    1024,
		MaxBlobsPerConv: 64,
		MaxTenantBytes:  8 << 10,
	}
}

// overloadTenant maps a client index onto its tenant label.
func overloadTenant(client int) string {
	return fmt.Sprintf("t%d", client%overloadTenants)
}

// overloadReq extracts the relay request and its UDP source port (the
// client lane to answer) from a received frame, validating lengths against
// the UDP header. ok=false means the frame is malformed or truncated and
// must take the garbage path. The request is appended to buf[:0], so a
// caller that is done with one request before it extracts the next can
// hand the same buffer back.
func overloadReq(buf []byte, f aegis.Frame) (req []byte, srcPort uint16, ok bool) {
	const off = ether.HeaderLen + ip.HeaderLen + udp.HeaderLen
	if f.Len() < off {
		return nil, 0, false
	}
	srcPort = f.U16(off - 8)
	n := int(f.U16(off-4)) - udp.HeaderLen
	if n <= 0 || off+n > f.Len() {
		return nil, 0, false
	}
	return appendFrame(buf[:0], f, off, n), srcPort, true
}

// overloadReplay replays events arrivals of one trace through its world's
// fault schedule: per-client relay ASHs with admission control and tenant
// quotas on the server, backoff clients replaying their trace slices
// open-loop.
type overloadReplay struct {
	trace  overloadTrace
	events int
}

func (d overloadReplay) drive(_ *Config, w *world) any {
	spec := workload.Spec{
		Clients:   overloadClients,
		Events:    d.events,
		MeanGapUs: d.trace.gapUs,
		Size:      overloadSize,
		MaxSize:   overloadMaxSize,
	}
	var trace *workload.Trace
	for _, g := range workload.Generators() {
		if g.Name == d.trace.gen {
			trace = g.Gen(overloadTraceSeed, spec)
		}
	}

	srv := w.srv()
	rsrv := relay.NewServer(overloadRelayConfig())
	var lazyServed uint64

	// Server: one process per client runs the eager ASH and the lazy
	// drainer for that client's binding. The ASH answers from the
	// interrupt path; quota-throttled and garbage frames fall through to
	// the ring, where the drainer serves them at user level (slower, but
	// served — throttling defers work, it does not discard it).
	for i, c := range w.cli() {
		tenant := overloadTenant(i)
		srv.k.Spawn(fmt.Sprintf("relay-%d", i), func(p *aegis.Process) {
			// A 5-atom peer filter (any source port): all of client i's
			// lanes land on one binding, so its bursts concentrate on one
			// ring and admission control has a meaningful watermark.
			f := peerFilter(srv.ip, ip.ProtoUDP, overloadPort, c.ip)
			b, err := srv.eth.BindFilter(p, f)
			if err != nil {
				panic(err)
			}
			b.Ring().HighWater = overloadHighWater
			dst := c.addr()
			// reply wraps a relay reply in headers addressed back to
			// client i's lane, as one frame built in buf.
			reply := func(buf []byte, lane uint16, rep []byte) []byte {
				return append(udpReplyHeader(buf, srv, dst, overloadPort, lane, len(rep)), rep...)
			}
			// The handler is done with a request before it returns (the
			// relay copies what it keeps) and its send copies the reply
			// frame out at once, so every invocation on this binding
			// de-stripes into one buffer, has the relay answer into a
			// second and builds its reply frame in a third. The drainer
			// below holds its request across a Compute and its reply across
			// a system call, during which the handler can run: it has three
			// of its own.
			var scratch, answer, frame []byte
			ash := srv.sys.NewFuncASH(p, fmt.Sprintf("relay-%d", i), true,
				func(ctx *core.Ctx) aegis.Disposition {
					// Header validation against the UDP length field.
					ctx.Straightline(24, 8)
					req, lane, ok := overloadReq(scratch, ctx.Frame())
					if !ok {
						return aegis.DispToUser
					}
					scratch = req
					// Copy-in from the striped buffer, byte-wise.
					ctx.Straightline(2*len(req), len(req))
					rep, insns, memops := rsrv.HandleAppend(answer[:0], w.prof.Us(ctx.When()), tenant, req)
					answer = rep
					ctx.Straightline(insns, memops)
					frame = reply(frame[:0], lane, rep)
					ctx.Send(dst, 0, frame)
					return aegis.DispConsumed
				})
			ash.Tenant = tenant
			ash.Attach(b)

			var lreq, lanswer, lframe []byte
			for {
				e, ok := b.Ring().WaitRecvUntil(p, 0)
				if !ok {
					return
				}
				req, lane, wellFormed := overloadReq(lreq, b.Frame(e))
				if wellFormed {
					lreq = req
					// User-level service: wakeup, scheduling, and copy-out
					// overhead first, then parse + copy + relay work with
					// no SFI multiplier but a full syscall per reply send.
					p.Compute(w.prof.Cycles(overloadLazyUs))
					rep, insns, memops := rsrv.HandleAppend(lanswer[:0], w.prof.Us(p.K.Now()), tenant, req)
					lanswer = rep
					p.Compute(sim.Time(24 + 2*len(req) + insns + 2*memops))
					lframe = reply(lframe[:0], lane, rep)
					srv.nic.Send(p, dst, 0, lframe)
					lazyServed++
				}
				b.Free(e.BufIndex)
			}
		})
	}

	// Clients: replay each client's arrivals open-loop, striped across
	// overloadLanes concurrent sender processes per client (one UDP source
	// port each) so a burst of closely-spaced arrivals is actually offered
	// concurrently instead of serializing behind one outstanding request.
	// Each lane walks the trace for its share of its client's arrivals,
	// so the trace is not copied per client. Arrival times come from the
	// trace alone; a lane running behind schedule issues immediately but
	// measures latency from the scheduled arrival, so queueing delay is
	// charged to the system, not forgiven.
	hist := &obs.Histogram{}
	ends := make([]sim.Time, overloadClients*overloadLanes)
	var completed, failed, retries uint64
	done := 0
	for i, c := range w.cli() {
		for lane := 0; lane < overloadLanes; lane++ {
			lanePort := uint16(scaleClientPort + lane)
			c.k.Spawn(fmt.Sprintf("client-%d", lane), func(p *aegis.Process) {
				defer func() { done++ }()
				sock := udp.NewSocket(
					ethStack(p, c, listenFilter(c.ip, ip.ProtoUDP, lanePort), w.res),
					lanePort, udp.Options{})
				bo := retry.New(retry.Policy{
					BaseUs: overloadBackoffBaseUs,
					CapUs:  overloadBackoffCapUs,
					Budget: overloadRetryBudget,
				}, overloadJitterSeed, i*overloadLanes+lane)
				var req []byte // one request at a time per lane
				idx := -1      // ev's index among client i's arrivals
				for _, ev := range trace.Events {
					if ev.Client != i {
						continue
					}
					idx++
					if idx%overloadLanes != lane {
						continue
					}
					schedAt := w.prof.Cycles(ev.AtUs + overloadWarmupUs)
					p.SleepUntil(schedAt)
					seq := uint16(idx)
					var op byte
					switch {
					case idx%16 == 11:
						op, req = relay.OpBurn, relay.AppendRequest(req[:0], relay.OpBurn, ev.Conv, 0, nil)
					case idx%4 == 3:
						op, req = relay.OpPoll, relay.AppendRequest(req[:0], relay.OpPoll, ev.Conv, 0, nil)
					default:
						op, req = relay.OpSubmit, relay.AppendRequest(req[:0], relay.OpSubmit, ev.Conv, seq, nil)
						for j := 0; j < ev.Size; j++ {
							req = append(req, byte(i+j))
						}
					}
					bo.Reset()
					acked := false
					for attempt := 0; ; attempt++ {
						waitUs, ok := bo.Next()
						if !ok {
							failed++
							break
						}
						if attempt > 0 {
							retries++
						}
						if err := sock.SendBytes(srv.ip, overloadPort, req); err != nil {
							panic(err)
						}
						deadline := p.K.Now() + w.prof.Cycles(waitUs)
						for {
							m, got, err := sock.RecvUntil(false, deadline)
							if err != nil {
								panic(err)
							}
							if !got {
								break // timeout: back off and retransmit
							}
							rop, _, rseq, rcid, _, wellFormed := relay.ParseReply(m.Bytes(p.K))
							sock.Release(m)
							if wellFormed && rop == op && rcid == ev.Conv &&
								(op != relay.OpSubmit || rseq == seq) {
								acked = true
								break
							}
							// A stale reply to an earlier attempt: discard and
							// keep listening inside the same window.
						}
						if acked {
							break
						}
					}
					if acked {
						completed++
						hist.Observe(p.K.Now() - schedAt)
					}
				}
				ends[i*overloadLanes+lane] = p.K.Now()
			})
		}
	}

	// The drainers block forever, so the engine never drains on its own:
	// advance in slices until every client lane finishes, with a bound of
	// 10 simulated minutes.
	w.runUntil(func() bool { return done == overloadClients*overloadLanes }, 600_000_000, 10_000)

	res := OverloadResult{
		Trace: d.trace.name, Sched: w.fault.Sched.Name,
		Offered:   len(trace.Events),
		Completed: completed, Failed: failed, Retries: retries,
	}
	res.GoodputMsgMs, res.MeanUs, res.P50Us, res.P99Us = w.clientStats(hist, nil, ends)
	rx := srv.nic.Rx
	res.Sheds = rx.Shed
	res.PoolDrops = rx.NoBuffer
	res.InjectedDrops = rx.InjectedRing + rx.InjectedPool
	res.CRCDrops = rx.CRC
	res.QuotaThrottled = srv.sys.QuotaThrottled
	res.LazyServed = lazyServed
	res.RelayRejected = rsrv.Rejected
	res.RelayExpired = rsrv.Expired
	return res
}

// overloadCells enumerates the matrix, trace-major so the rendered table
// reads straight out of the result slice. Each cell's world is a 16-client
// scale world with the schedule's fault plane on the server and the tenant
// quota ledger. Lane clients need room for overloadLanes sockets each and
// enough receive-pool buffers that duplicate replies to retransmitted
// requests don't exhaust the pool, so they are sized up from the scale
// experiment's one-socket default.
func overloadCells(cfg *Config) []Cell {
	var cells []Cell
	events := sized(cfg, 256, 768) // arrivals across the whole fleet
	for _, tr := range overloadTraces {
		for _, sc := range overloadScheds {
			sched, ok := fault.Named(sc)
			if !ok {
				panic("bench: unknown fault schedule " + sc)
			}
			s := worldSpec{eth: true, fanIn: true, clients: overloadClients,
				srvMem: fanInServerMem, srvRxBufs: 2*overloadClients + fanInServerRxSlack,
				cliMem: overloadClientMem, cliRxBufs: 4 * overloadLanes,
				fault: &faultSpec{seed: overloadFaultSeed, sched: sched, serverOnly: true},
				quota: &quotaSpec{windowUs: overloadQuotaWindowUs, budget: overloadTenantBudget}}
			cells = append(cells, onWorld(fmt.Sprintf("overload/%s/%s", tr.name, sc), s, overloadReplay{tr, events}))
		}
	}
	return cells
}

// RenderOverload formats the matrix: offered vs completed load, latency
// from scheduled arrival, and where the excess went (shed, throttled,
// lazily served, rejected).
func RenderOverload(results []OverloadResult) string {
	var b strings.Builder
	b.WriteString("Overload: adversarial open-loop traces vs graceful degradation\n")
	b.WriteString("  (lat from scheduled arrival; shed = ring admission control,\n")
	b.WriteString("   thr = tenant quota refusals to the lazy path, lazy = drainer-served)\n")
	fmt.Fprintf(&b, "  %-10s %-8s %5s %5s %4s %5s %9s %8s %8s %5s %5s %5s %5s %5s\n",
		"trace", "sched", "offer", "compl", "fail", "retry", "gdpt[m/ms]",
		"p50[us]", "p99[us]", "shed", "thr", "lazy", "rej", "drop")
	fmt.Fprintf(&b, "  %s\n", strings.Repeat("-", 104))
	for _, r := range results {
		drops := r.PoolDrops + r.InjectedDrops + r.CRCDrops
		fmt.Fprintf(&b, "  %-10s %-8s %5d %5d %4d %5d %9.2f %8.1f %8.1f %5d %5d %5d %5d %5d\n",
			r.Trace, r.Sched, r.Offered, r.Completed, r.Failed, r.Retries,
			r.GoodputMsgMs, r.P50Us, r.P99Us,
			r.Sheds, r.QuotaThrottled, r.LazyServed, r.RelayRejected, drops)
	}
	return b.String()
}
