#!/bin/sh
# CI gate: formatting, vet, ashlint (the repo's own analyzers), build,
# tests (with the race detector), and staticcheck when it is installed.
# Run from the repo root.
set -eu

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

echo "== gofmt"
badfmt=$(gofmt -l .)
if [ -n "$badfmt" ]; then
    echo "gofmt needed on:"
    echo "$badfmt"
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

# cmd/perfbench is a module of its own (go.mod: replace ashs => ../..), so
# the root ./... patterns never descend into it. Vet and test it here: a
# root change that breaks its build (a go-directive bump in the root
# go.mod, a renamed function it calls) must fail CI, not the benchmark run.
echo "== cmd/perfbench module (vet + test)"
(cd cmd/perfbench && GOWORK=off go vet ./... && GOWORK=off go test ./...)

# ashlint: the custom analyzer suite (determinism, obsguard,
# allocdiscipline, bufdiscipline — see DESIGN.md §12) over the module.
echo "== ashlint"
go run ./cmd/ashlint ./...

echo "== go test -race"
go test -race ./...

# Suites the sweep above already ran, again by name and with -count=1, so a
# regression is attributable to the contract it breaks. One package:regexp
# row each ("." runs the whole package):
#   fault    chaos soak: the canned fault schedules against the full TCP + NFS
#            workload, and rerunning a seed reproduces bit-identical counters
#   obs, sim the PRNG contract and the trace/metrics unit tests
#   sim      handoff differential: one scripted world over {coroutine,
#            channel} x {wheel, heap} x {elide, never elide} gives one
#            trace, clock and counts; the elision's edges (a tie, the run's
#            limit, a pending Stop, Close — one row per guard) and 300
#            random worlds, eliding or not, run event for event the same
#   aegis    world lifetime: a reused arena is all-zero, nothing above brk is
#            addressable, a closed host has no memory, leases stay private;
#            then the receive matrix: the same scenarios through an AN2 and
#            an Ethernet world move the same RxStats field, every offered
#            frame has exactly one fate, Binding.Free refuses bad indices
#   bench, . world close leaves no live process and no host memory, a cell run
#            twice grows the pool once, the public World.Close
#   sandbox  three-way differential: every crl handler x both budget modes x
#            measured + adversarial profiles, the profitability pin, the
#            committed adversarial-profile shapes, the quick random sweep
#   sandbox, the lending contract of vcode.Memory over every memory in the
#   vcode    tree, the escape guard's any-byte latch; Journal.Undo restores a
#            snapshot after random overlapping stores and a second
#            invocation allocates nothing
#   core     the DCG loop on installed handlers; ASH/FuncASH base parity
#   runner,  the worker pool, the parallel chaos matrix and the golden
#   bench    determinism tests
#   bench,   the transmit path: six worlds put the frames on the wire that
#   ip, tcp, testdata/wire_golden.txt recorded before the gather send (never
#   udp      regenerated); hdr||payload cut at every fragment edge
#            reassembles, is captured before Send blocks, and re-entry
#            panics with the owner; 3 MB more of stream or 2000 more
#            datagrams allocate nothing; the retransmit store keeps what
#            was sent, recycles its slabs and ends whole
echo "== by-name suites under -race"
while IFS=: read -r pkg pattern; do
    echo "-- $pkg -run '$pattern'"
    go test -race -count=1 -run "$pattern" "$pkg"
done <<'EOF'
./internal/fault/:TestChaosSoak|TestChaosSeedDeterminism
./internal/obs/:.
./internal/sim/:.
./internal/sim/:^TestHandoff
./internal/sim/:^TestElideEdges$|^TestElideRejectsWhatSchedulingRejects$|^TestElideMatchesNeverElide$
./internal/aegis/:^TestArena
./internal/aegis/:^TestReceiveMatrix$|^TestFrontHalfOrder$|^TestFreeChecksTheIndex$|^TestRefusedSendIsCounted$
./internal/bench/:^TestPoolLeakGate$|^TestWorldReuse$
.:^TestWorldClose$
./internal/sandbox/:TestThreeWayRegistry|TestReoptActuallyImproves|TestReoptProfileSeeds|TestDifferentialSFIQuick
./internal/sandbox/:^TestMemoryConformance$|^TestEscapeGuardLatchesOnAnyByte$
./internal/vcode/:^TestJournalUndoProperty$
./internal/core/:TestReopt|TestChainDisposition|^TestHandlerBaseParity$
./internal/bench/runner/:.
./internal/bench/:TestParallelByteIdentical|TestParallelChaosMatchesSerial|TestReoptParallelByteIdentical
./internal/bench/:^TestWireIdentity$
./internal/proto/ip/:^TestGatherSendEdges$|^TestSendCapturesPayloadBeforeItBlocks$|^TestSendReentryPanicsWithOwner$
./internal/proto/tcp/:^TestNoAllocationPerSegment$|^TestRtxStore
./internal/proto/udp/:^TestSendToDoesNotAllocatePerDatagram$
EOF

# Fuzz targets: each parser/demux fuzzer runs a short wall-clock sweep on
# top of its committed seed corpus. FuzzDPFDemux is differential (trie vs
# linear scan vs an atom-count oracle), so a divergence in either engine
# path fails here; FuzzDPFChurn turns its input into Insert / Remove /
# Reorder sequences that take the trie's storage through every
# representation change (inline children -> table -> growth, free-list
# reuse) against the same oracle. FuzzDifferentialSFI drives random
# verifiable programs through the three-way naive/optimized/re-optimized
# oracle, and FuzzReoptProfile attacks the same oracle from the profile
# side with raw fuzzer bytes as the profile. FuzzQueueMatchesHeap turns its
# input into an insert / pop / peek / cancel schedule with near, far and
# equal-time deltas and requires the timing wheel to pop what the reference
# heap pops, and its MinBound to stay at or below the heap's minimum without
# moving the wheel. FuzzStreamMatchesReference picks the memory (FlatMem,
# AddrSpace, a Journal over either; maybe a page absent), places the two
# streams of a DILP loop, sets the budgets and warms the cache, and requires
# Machine.Run — whose streaming-loop executor takes such a loop whenever the
# memory lends both streams whole — to leave what the per-instruction
# reference interpreter leaves, and Undo to take all of it back.
echo "== fuzz sweep (10s per target)"
go test -run '^$' -fuzz '^FuzzIPParse$' -fuzztime 10s ./internal/proto/ip/
go test -run '^$' -fuzz '^FuzzTCPHeader$' -fuzztime 10s ./internal/proto/tcp/
go test -run '^$' -fuzz '^FuzzDPFDemux$' -fuzztime 10s ./internal/dpf/
go test -run '^$' -fuzz '^FuzzDPFChurn$' -fuzztime 10s ./internal/dpf/
go test -run '^$' -fuzz '^FuzzTraceParse$' -fuzztime 10s ./internal/workload/
go test -run '^$' -fuzz '^FuzzDifferentialSFI$' -fuzztime 10s ./internal/sandbox/
go test -run '^$' -fuzz '^FuzzReoptProfile$' -fuzztime 10s ./internal/sandbox/
go test -run '^$' -fuzz '^FuzzQueueMatchesHeap$' -fuzztime 10s ./internal/sim/
go test -run '^$' -fuzz '^FuzzStreamMatchesReference$' -fuzztime 10s ./internal/vcode/

# Parallel runner determinism: the full suite at -parallel=1 (serial
# reference) and at one-worker-per-CPU must print byte-identical stdout.
# Wall-time and trace summaries go to stderr, so cmp sees results only.
echo "== serial vs parallel ashbench (byte-identical stdout)"
tracedir="$workdir"
go build -o "$tracedir/ashbench" ./cmd/ashbench
"$tracedir/ashbench" -parallel 1 >"$tracedir/serial.txt" 2>"$tracedir/serial.err"
"$tracedir/ashbench" >"$tracedir/parallel.txt" 2>/dev/null
if ! cmp -s "$tracedir/serial.txt" "$tracedir/parallel.txt"; then
    echo "ashbench output differs between -parallel=1 and the default pool"
    diff "$tracedir/serial.txt" "$tracedir/parallel.txt" | head -40
    exit 1
fi

# The committed reference output must match what the tree produces: any
# behavior change has to regenerate ashbench_output.txt deliberately.
echo "== ashbench output matches committed ashbench_output.txt"
if ! cmp -s ashbench_output.txt "$tracedir/serial.txt"; then
    echo "ashbench output diverged from the committed ashbench_output.txt"
    diff ashbench_output.txt "$tracedir/serial.txt" | head -40
    exit 1
fi
# The serial run's wall time and arena-pool counters, for the log: leases
# must equal returned, and grown jumps when a cell stops closing its world.
cat "$tracedir/serial.err" >&2

# The end-to-end observability gate: the Chrome trace JSON of the breakdown
# experiment and of the whole quick suite must hash to the committed
# digests. Two runs of one tree agreeing would not catch a renamed process
# or two reordered Spawns, which change the trace and no printed number.
echo "== ashbench traces match committed ashbench_trace.sha256"
"$tracedir/ashbench" -experiment breakdown -trace "$tracedir/breakdown.json" >/dev/null 2>&1
"$tracedir/ashbench" -quick -parallel 1 -trace "$tracedir/quick.json" >/dev/null 2>"$tracedir/quick.err"
if ! (cd "$tracedir" && sha256sum --quiet -c -) <ashbench_trace.sha256; then
    echo "ashbench trace diverged from the committed ashbench_trace.sha256; if intended, regenerate:"
    echo "  go run ./cmd/ashbench -experiment breakdown -trace breakdown.json >/dev/null &&"
    echo "  go run ./cmd/ashbench -quick -parallel 1 -trace quick.json >/dev/null &&"
    echo "  sha256sum breakdown.json quick.json >ashbench_trace.sha256 && rm breakdown.json quick.json"
    exit 1
fi

# The schedule itself, from the same quick run: engines closed, events
# fired and cancelled and process handoffs are functions of the simulations
# alone; elided (the handoffs a sleeping process took itself, its wake-up
# being the next event) and cascades are the event queue's work on them.
# None of them can be noisy, so a changed count is either intended or a bug.
echo "== ashbench engine counts match committed ashbench_counts.txt"
if ! grep '^\[sim engines:' "$tracedir/quick.err" | cmp -s - ashbench_counts.txt; then
    echo "ashbench engine counts diverged from the committed ashbench_counts.txt:"
    grep '^\[sim engines:' "$tracedir/quick.err" | diff ashbench_counts.txt - || true
    echo "if intended, regenerate:"
    echo "  go run ./cmd/ashbench -quick -parallel 1 2>&1 >/dev/null | grep '^\[sim engines:' >ashbench_counts.txt"
    exit 1
fi

# Every registered experiment gets its own gate, in quick mode: serial vs
# the default pool must print byte-identical stdout, so a determinism
# regression is attributable to one experiment. The names come from the
# registry, so a new experiment is gated by construction. What this is
# there to catch: fan-in worlds of hundreds of hosts (scale), trace replay
# crossed with the fault plane, quotas and client backoff (overload), 64k
# flyweight endpoints with per-endpoint retry timers (megascale), handler
# hot-swap under profile-distinct compile-cache keys (reopt).
echo "== per-experiment determinism (quick, serial vs parallel, byte-identical stdout)"
for exp in $("$tracedir/ashbench" -experiment help | awk '{print $1}'); do
    "$tracedir/ashbench" -experiment "$exp" -quick -parallel 1 >"$tracedir/exp-serial.txt" 2>/dev/null
    "$tracedir/ashbench" -experiment "$exp" -quick >"$tracedir/exp-parallel.txt" 2>/dev/null
    if ! cmp -s "$tracedir/exp-serial.txt" "$tracedir/exp-parallel.txt"; then
        echo "$exp output differs between -parallel=1 and the default pool"
        diff "$tracedir/exp-serial.txt" "$tracedir/exp-parallel.txt" | head -40
        exit 1
    fi
done

# Coverage gate: per-package coverage is printed for review; the total
# must not regress below the floor (measured baseline minus slack).
echo "== coverage (floor 79.5%)"
go test -coverprofile="$tracedir/cover.out" ./... | grep -v '^---' || true
total=$(go tool cover -func="$tracedir/cover.out" | awk '/^total:/ {sub(/%/, "", $3); print $3}')
echo "total coverage: ${total}%"
ok=$(awk -v t="$total" 'BEGIN { print (t >= 79.5) ? 1 : 0 }')
if [ "$ok" != 1 ]; then
    echo "total coverage ${total}% fell below the 79.5% floor"
    exit 1
fi

# Hot-path microbenchmarks: a short sweep proves the fixtures still run.
# Timings are never gated here — CI machines vary too much (cmd/perfbench
# records them) — but allocation counts are deterministic, so the
# zero-alloc hot-path contract IS gated: TestBodiesRun fails when the
# demux, dispatch, event-queue or packet-path bodies report an alloc/op.
echo "== hot-path microbenchmarks (smoke)"
go test -run '^$' -bench . -benchtime 0.1s ./internal/bench/hotpath/

echo "== hot-path zero-alloc gate (TestBodiesRun)"
go test -count=1 -run '^TestBodiesRun$' ./internal/bench/hotpath/

if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck"
    staticcheck ./...
else
    echo "== staticcheck not installed; skipping"
fi

echo "CI OK"
