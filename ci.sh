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

# The docs name only what exists: every Test*, Fuzz* or Benchmark*
# identifier in DESIGN.md, README.md and EXPERIMENTS.md is a func in the
# tree, and every backticked internal/, cmd/ or examples/ path exists (a
# trailing /... is a package pattern, {a,b} alternatives are each checked,
# a :line or :Func suffix is dropped).
echo "== docs name what exists"
grep -rhoE --include='*.go' '^func (Test|Fuzz|Benchmark)[A-Za-z0-9_]*' . |
    sed 's/^func //' | LC_ALL=C sort -u >"$workdir/funcs"
docbad=
for doc in DESIGN.md README.md EXPERIMENTS.md; do
    for name in $(grep -oE '\b(Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*' "$doc" | LC_ALL=C sort -u); do
        grep -qxF "$name" "$workdir/funcs" || docbad="$docbad $doc:$name"
    done
    for path in $(grep -oE '`(internal|cmd|examples)/[^` ]*' "$doc" | sed 's/^`//; s/:.*//' | LC_ALL=C sort -u); do
        paths=$path
        case $path in
        *{*}*)
            pre=${path%%\{*} alts=${path#*\{} post=${path#*\}}
            paths=$(echo "${alts%%\}*}" | tr , '\n' | sed "s|^|$pre|; s|\$|$post|")
            ;;
        esac
        for p in $paths; do
            case $p in
            */...) [ -d "${p%/...}" ] ;;
            *) [ -e "$p" ] ;;
            esac || docbad="$docbad $doc:$p"
        done
    done
done
if [ -n "$docbad" ]; then
    echo "the docs name what the tree does not have (no such func, or no such path):"
    echo "$docbad" | tr ' ' '\n' | sed '/^$/d'
    exit 1
fi

# DESIGN.md is the layer-by-layer account and stays within 46 080 bytes.
# A "DESIGN.md §N" reference anywhere in the tree but CHANGES.md (the
# history), and a §N inside DESIGN.md, names one of its numbered sections.
echo "== docs: DESIGN.md size and section references"
size=$(wc -c <DESIGN.md)
if [ "$size" -gt 46080 ]; then
    echo "DESIGN.md is $size bytes, over its 46080"
    exit 1
fi
grep -oE '^## [0-9]+\.' DESIGN.md | tr -cd '0-9\n' >"$workdir/sections"
{
    grep -rIoE --exclude=CHANGES.md --exclude-dir=.git --exclude-dir=.bench_build \
        'DESIGN(\.md)?`? §[0-9]+(, §[0-9]+)*' . || true
    grep -oE '§[0-9]+' DESIGN.md | sed 's|^|./DESIGN.md:|'
} >"$workdir/refs"
badref=$(awk -F: 'NR == FNR { have[$1] = 1; next }
    { n = split($2, f, /[^0-9]+/); for (i = 1; i <= n; i++) if (f[i] != "" && !(f[i] in have)) print $1 ": §" f[i] }' \
    "$workdir/sections" "$workdir/refs" | LC_ALL=C sort -u)
if [ -n "$badref" ]; then
    echo "references to DESIGN.md sections that do not exist:"
    echo "$badref"
    exit 1
fi

# The examples are the only programs that drive the public ashs facade and
# proto/http end to end, so each one runs here, not just builds.
echo "== examples"
for dir in examples/*/; do
    name=$(basename "$dir")
    echo "-- go run ./examples/$name"
    go run "./examples/$name" >/dev/null
done

# cmd/perfbench is a module of its own (go.mod: replace ashs => ../..), so
# the root ./... patterns never descend into it. Vet and test it here: a
# root change that breaks its build (a go-directive bump in the root
# go.mod, a renamed function it calls) must fail CI, not the benchmark run.
echo "== cmd/perfbench module (vet + test)"
(cd cmd/perfbench && GOWORK=off go vet ./... && GOWORK=off go test ./...)

# ashlint: the custom analyzer suite (determinism, obsguard,
# allocdiscipline, bufdiscipline, costdiscipline — see DESIGN.md §10)
# over the module.
echo "== ashlint"
go run ./cmd/ashlint ./...

echo "== go test -race"
go test -race ./...

# Suites the sweep above already ran, again by name and with -count=1, so a
# regression is attributable to the contract it breaks. One package:regexp
# row each ("." runs the whole package):
#   fault    chaos soak: the canned fault schedules against the full TCP + NFS
#            workload, and rerunning a seed reproduces bit-identical counters
#   obs, sim the PRNG contract and the trace/counter unit tests
#   sim      handoff differential: one scripted world over {coroutine,
#            channel} x {wheel, heap} x {elide, never elide} gives one
#            trace, clock and counts; the elision's edges (a tie, the run's
#            limit, a pending Stop, Close — one row per guard), the edges
#            of the loop a blocked process runs itself (a callback panic,
#            Stop, the limit, a stale expiry, a lost wake-up), the edges of
#            the resume stack it resumes the next process on (a chain of
#            three unwinding to the first, a panic in a resumed body, Stop
#            from one, the limit inside a chain, Close of a suspended
#            chain) and 300 random worlds, with the fast paths or not, run
#            event for event the same; pooled coroutines run the next body,
#            and engines on parallel goroutines share the pool
#   aegis    world lifetime: a reused arena is all-zero after scattered
#            writes and its return cleared exactly the written pages, a
#            recycled cache charges what a new one does, nothing above brk is
#            addressable, a closed host has no memory and no cache, leases
#            stay private, a host promoted past its first MiB keeps every
#            address and byte; a slice held across the move reads poison;
#            then the receive matrix: the same scenarios through an AN2 and
#            an Ethernet world move the same RxStats field, every offered
#            frame has exactly one fate, Binding.Free refuses bad indices
#   bench, . every distinct world of the registry's quick cells builds to its
#            spec and closes with no live process, no host memory and every
#            frame the switch handed a receiver given one fate, every
#            worldSpec field takes two values, a cell run twice grows the pool
#            once, a cell counts its own engines, the public World.Close
#   sandbox  three-way differential, run over production's entry points:
#            every crl handler x both budget modes x measured + adversarial
#            profiles, the profitability pin, the committed adversarial-profile
#            shapes, the quick random sweep; a stray access is reported
#            whether it lands or faults, harness inputs outside the region are
#            errors, ash_copy moves an overlap (and a handler copying
#            overlaps both ways runs alike in all three), an entry-point range
#            outside the region faults in all three without latching the
#            guard; a build is compiled once, shared by every hit at a flat
#            cost, and no caller writes into it; every region is seeded with
#            the per-word fill to its last word, and a region compared as a
#            block still names the first differing word and its variant;
#            goroutines keying programs with calls while others intern
#            names get the serial builds and rejections; with every program
#            hash forced to one value, programs differing in any one field
#            each build once, equal content hits, no hit hands back another
#            program's build, and the counts are those of real hashes
#   sandbox, the lending contract of vcode.Memory over every memory in the
#   vcode    tree, the escape guard's any-byte latch; Journal.Undo restores a
#            snapshot after random overlapping stores and a second
#            invocation allocates nothing; a program's compile-cache key
#            changes with any one field or any re-split of its name or
#            persistent set, is equal for equal content across chunk
#            boundaries, and allocates nothing
#   core     the DCG loop on installed handlers; ASH/FuncASH base parity;
#            one system's 16 384 downloads leave no handler live
#   bench    the worker pool (index-ordered merge, the parallelism default,
#            the panicking cell named serially and on the pool, lowest index
#            first), the parallel chaos matrix and the golden determinism
#            tests; on every chaos cell the tcp/retransmits and nfs/retries
#            counters equal the typed Retransmits and NFSResent
#   bench,   the transmit path: six worlds put the frames on the wire that
#   ip, tcp, testdata/wire_golden.txt recorded before the gather send (never
#   udp      regenerated), and a one-endpoint flyweight fleet puts a full
#            client host's frames on the wire for one udp-echo, tcp-pp and
#            nfs-read request, but for the fields flyweightWireDiffs names
#            with a reason, and the server records a flyweight's udp-echo
#            request as a host's (fates, demux and handler cycles, cyc/msg)
#            but for flyweightServerDiffs; hdr||payload cut at every fragment edge
#            reassembles, is captured before Send blocks, and re-entry
#            panics with the owner; 3 MB more of stream or 2000 more
#            datagrams allocate nothing; the retransmit store keeps what
#            was sent, recycles its slabs and ends whole
#   bench    a cell is data: every kit workload's result and every registered
#            label as committed, and each experiment's cells, quick and full,
#            enumerate to deeply equal values with no func in reach
#   netdev   a buffer has one owner: recycling, double Release panics, receivers borrow and copy
#   core     §VI-4: a tenant over its cycle quota takes the lazy path, tenants are isolated
#   pipe     the copying checksum engine streams all but its first
#            iteration; every other compiled engine is interpreted whole
#   vcode    the opcode table: every op has a row, prints as before, and its
#            register effects bound what the interpreter reads and writes
#   pipe     a pipe body refuses every op class the handler verifier refuses
#   analysis a static target outside the program is control leaving it, and
#            Lint survives it
#   analysis the one counted-loop prover: exact counts for single- and
#            multi-block loops (bltu, bne), refusals for an early exit, an
#            unknown or moving bound and a double step
#   pipe     an rd, rs or rt past the register file: the handler verifier
#            and a pipe body both refuse it
#   tcp      retransmissions after 200/400/800/1600 ms, capped; teardown after MaxRetransmit
#   tcp      accept-handoff churn: echoes written from host memory by address
#   nfs      a dead port gets Retries+1 sends at doubling, capped intervals, then an error;
#            a warm GetAttr, Read and Write allocate nothing on either side
#   core     ash_msg_load on an Ethernet arrival reads the frame's bytes at every
#            offset, not the striping DMA's pad lines
#   udp      Recv skips a doorbell, as RecvUntil does, and frees no buffer for it
#   aegis    the one frame reader: Byte/U16/U32 at offsets 0-40, Bytes and the
#            in-place checksum at every offset and length, striped and contiguous
#   bench    megascale allocates what it keeps: doubling the trace of the
#            udp-echo, tcp-pp and nfs-read cells grows the heap by the trace
#            slice alone; a binding, a flyweight endpoint and its port keep
#            their sizes (B/ep); a binding whose handler consumes every
#            message has no ring
#   flyweight a recycled operation record: a late duplicate reply and a
#            cancelled timer leave its new owner's counts as without reuse
#   ip       a datagram with no payload or with options is dropped as
#            BadHeader, whole or as a fragment; each sequence under a deadline
#   nfs      a WRITE past the end of the file is refused with ErrIO and
#            leaves the file as it was
#   bench    every experiment allocates what it keeps: doubling the messages
#            of a scale cell per workload, an overload cell and a chaos cell
#            grows the heap by the longer trace or the larger NFS file alone
#   nfs      the write path: appends, overwrites, a write across the end and
#            a refused hole read back byte for byte across block boundaries,
#            and a file's writes allocate at most twice its size
#   relay    a blob buffer recycled after a poll, a burn or an expiry reads
#            back as submitted; a warm submit+poll allocates nothing; a
#            seeded op mix gives the recorded replies, costs and counters
#   sandbox  the download path allocates what it keeps: a harness memory
#            leased again after an escaping or a faulting run reads as a
#            fresh one, four goroutines sweeping the registry at once see
#            the serial outcomes, a warm ThreeWay and a steady-state
#            compile-cache miss stay within their bytes, a cold cache's
#            first miss allocates no more than before, and every build
#            and CFG is made at its final length
#   mach     a data pass is charged a step per line: LoadRange, CopyRange
#            (disjoint line-index intervals in one step, any other placement
#            a source line at a time) and FlushRange leave the cycles,
#            counts and tags of the per-word and per-byte loops, across the
#            index wrap, address 2^32, ranges longer than the cache,
#            intervals that abut or fill the cache, and striped runs
#   vcode,   CksumData, CksumWords and Frame.Cksum at 1 and 4 MiB of 0xff and
#   aegis    of random bytes equal the per-halfword and per-word loops: no
#            lane wraps
#   dpf      a batch install builds the trie Inserts one at a time build:
#            the same ids, branch order and table sizes, the same census
#            but ProbeMax, the same Demux and DemuxLinear id and cycles
#            before and after Reorder, over tcp-pp and udp-echo sets and
#            engines with freed storage; a batch with a duplicate or a bad
#            atom installs nothing; 10^4 filters of random layouts, removed,
#            leave no shape live, and a second round issues nothing but
#            ids
echo "== by-name suites under -race"
while IFS=: read -r pkg pattern; do
    echo "-- $pkg -run '$pattern'"
    go test -race -count=1 -run "$pattern" "$pkg"
done <<'EOF'
./internal/fault/:TestChaosSoak|TestChaosSeedDeterminism
./internal/obs/:.
./internal/sim/:.
./internal/sim/:^TestHandoff|^TestCoroutinePool
./internal/sim/:^TestElideEdges$|^TestElideRejectsWhatSchedulingRejects$|^TestElideMatchesNeverElide$|^TestInPlaceEdges$|^TestDirectHandoffEdges$
./internal/aegis/:^TestArena
./internal/aegis/:^TestReceiveMatrix$|^TestFrontHalfOrder$|^TestFreeChecksTheIndex$|^TestRefusedSendIsCounted$
./internal/bench/:^TestPoolLeakGate$|^TestWorldReuse$|^TestWorldShape$|^TestWorldSpecFieldsInUse$|^TestCellEngineCounts$|^TestWorldCloseCounts$
.:^TestWorldClose$
./internal/sandbox/:TestThreeWayRegistry|TestReoptActuallyImproves|TestReoptProfileSeeds|TestDifferentialSFIQuick|^TestThreeWayReportsEscape$|^TestDiffInputsOutsideTheRegion$|^TestDiffCopyOverlaps$|^TestThreeWayCopyOverlaps$|^TestDiffEntryPointsOutsideTheRegion$|^TestCompileCacheHitMatchesMiss$|^TestCacheHitCostIsFlat$|^TestCachedBuildsStayUnchanged$|^TestRegionSeedIsTheFormula$|^TestThreeWayNamesTheFirstRegionDifference$|^TestConcurrentSandboxWithCalls$|^TestCacheCollisions$
./internal/sandbox/:^TestMemoryConformance$|^TestEscapeGuardLatchesOnAnyByte$
./internal/vcode/:^TestJournalUndoProperty$|^TestFingerprintSeesEveryField$|^TestFingerprintLengthPrefixes$|^TestFingerprintIsContent$|^TestFingerprintAllocatesNothing$
./internal/core/:TestReopt|TestChainDisposition|^TestHandlerBaseParity$|^TestDownloadsAreNotRetained$
./internal/bench/:^TestRunCells|^TestParallelism$|TestParallelByteIdentical|TestParallelChaosMatchesSerial|TestReoptParallelByteIdentical|^TestChaosCountersMatchTypedFields$
./internal/bench/:^TestWireIdentity$|^TestFlyweightIsAHostOnTheWire$|^TestFlyweightIsAHostAtTheServer$
./internal/bench/:^TestKitMatchesParent$|^TestCellLabelsStable$|^TestCellsAreValues$
./internal/proto/ip/:^TestGatherSendEdges$|^TestSendCapturesPayloadBeforeItBlocks$|^TestSendReentryPanicsWithOwner$
./internal/proto/tcp/:^TestNoAllocationPerSegment$|^TestRtxStore
./internal/proto/udp/:^TestSendToDoesNotAllocatePerDatagram$
./internal/netdev/:^TestBuf|^TestRefcountHandoffRace$
./internal/core/:^TestQuota
./internal/pipe/:^TestCompiledEnginesStream$
./internal/vcode/:^TestOpTable$
./internal/pipe/:^TestPipeRefusesWhatTheVerifierRefuses$
./internal/vcode/analysis/:^TestTargetOutsideProgram$
./internal/vcode/analysis/:^TestTripBoundShapes$
./internal/pipe/:^TestRegisterPastTheFileIsRefused$
./internal/proto/tcp/:^TestRetransmitBackoffSchedule$|^TestMaxRetransmitTearsDownConnection$
./internal/proto/tcp/:^TestAcceptHandoffChurn$
./internal/proto/nfs/:^TestDeadPortGivesUpAfterRetries$|^TestRPCDoesNotAllocate$
./internal/core/:^TestMsgLoadReadsThroughTheStripe$
./internal/proto/udp/:^TestRecvSkipsDoorbell$
./internal/aegis/:^TestFrameReaders$
./internal/bench/:^TestMegascaleAllocFlatInMessages$|^TestMegascaleFootprints$|^TestMegascaleRingsOnlyWhereQueued$
./internal/flyweight/:^TestRecycledOperationIsNotDisturbed$
./internal/proto/ip/:^TestInputRefusesWhatReassemblyCannotTake$
./internal/proto/nfs/:^TestWritePastTheEndIsRefused$
./internal/bench/:^TestAllocFlatInMessages$
./internal/proto/nfs/:^TestWritePath$
./internal/relay/:^TestRecycledBlobsReadBack$|^TestWarmRelayDoesNotAllocate$|^TestSeededOpsReplay$
./internal/sandbox/:^TestLeasedHarnessMemoryReadsFresh$|^TestThreeWayConcurrentMatchesSerial$|^TestWarmThreeWayAllocations$|^TestCacheMissAllocations$|^TestBuildsAreExact$
./internal/mach/:^TestRangeClosedFormsMatchPerWordLoop$|^TestRangeClosedFormsOddGeometry$
./internal/vcode/:^TestCksumPastALaneBlock$
./internal/aegis/:^TestFrameCksumPastALaneBlock$
./internal/dpf/:^TestInsertBatchMatchesInsert$|^TestInsertBatchFailsWhole$|^TestShapesReclaimed$
EOF

# Arena stress: built with -tags arenastress, AllocPhys moves a host's
# memory at every allocation up to 1 MiB and doubles it past that, each
# time poisoning the old backing, so a Kernel.Bytes slice held across an
# allocation reads poison. The tests must pass under it, and the quick
# suite must print exactly what the untagged build prints.
echo "== arena stress (-tags arenastress)"
go test -tags arenastress ./...
stress=$workdir/stress
mkdir -p "$stress"
go build -o "$stress/ashbench" ./cmd/ashbench
go build -tags arenastress -o "$stress/ashbench-stress" ./cmd/ashbench
"$stress/ashbench" -quick -parallel 1 >"$stress/plain.txt" 2>/dev/null
"$stress/ashbench-stress" -quick -parallel 1 >"$stress/stress.txt" 2>/dev/null
if ! cmp -s "$stress/plain.txt" "$stress/stress.txt"; then
    diff -u "$stress/plain.txt" "$stress/stress.txt" | head -40
    echo "the quick suite differs under -tags arenastress: a Kernel.Bytes slice outlived an AllocPhys"
    exit 1
fi

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
# moving the wheel. FuzzElideMatchesNeverElide takes the seed of a random
# world of processes (sleeps, parks, timeouts, unparks, Stop, callbacks
# that start or unpark a process) and requires the engine to run it event
# for event the same with its fast paths, the elided wake-up and the loop
# a blocked process runs itself, resuming the next process from there, and
# without them.
# FuzzStreamMatchesReference picks the memory (FlatMem,
# AddrSpace, a Journal over either; maybe a page absent), places the two
# streams of a DILP loop, sets the budgets and warms the cache, and requires
# Machine.Run — whose streaming-loop executor takes the copy+checksum loop
# whenever the memory lends both streams whole — to leave what the
# per-instruction reference interpreter leaves, and Undo to take all of it
# back. It also picks what the checksum accumulator and the source start as
# (seeded, zero, all ones, a total that is a multiple of 2^32-1), so it
# guards the bulk body — one lane sum and one copy — and the forward overlap
# it leaves to the interpreter; every other loop shape must stream nothing.
# FuzzIPInput feeds one stack a short sequence of datagrams and fragments
# (ID, offset, MF, payload length, options, an idle gap): every call
# returns within a deadline, slots are held only by live reassemblies and
# all are free after the timeout, and a completed datagram is as long as
# its last fragment's end. No experiment fragments, so this is the
# reassembly's traffic.
echo "== fuzz sweep (10s per target)"
go test -run '^$' -fuzz '^FuzzIPParse$' -fuzztime 10s ./internal/proto/ip/
go test -run '^$' -fuzz '^FuzzIPInput$' -fuzztime 10s ./internal/proto/ip/
go test -run '^$' -fuzz '^FuzzTCPHeader$' -fuzztime 10s ./internal/proto/tcp/
go test -run '^$' -fuzz '^FuzzDPFDemux$' -fuzztime 10s ./internal/dpf/
go test -run '^$' -fuzz '^FuzzDPFChurn$' -fuzztime 10s ./internal/dpf/
go test -run '^$' -fuzz '^FuzzDifferentialSFI$' -fuzztime 10s ./internal/sandbox/
go test -run '^$' -fuzz '^FuzzReoptProfile$' -fuzztime 10s ./internal/sandbox/
go test -run '^$' -fuzz '^FuzzQueueMatchesHeap$' -fuzztime 10s ./internal/sim/
go test -run '^$' -fuzz '^FuzzElideMatchesNeverElide$' -fuzztime 10s ./internal/sim/
go test -run '^$' -fuzz '^FuzzStreamMatchesReference$' -fuzztime 10s ./internal/vcode/

# The behavioural contract: contract.sh writes it into $workdir (refusing
# if serial and parallel runs disagree or an arena leaks; the serial run's
# stderr goes to the log), and each file must equal the committed one.
echo "== contract.sh, compared with the committed contract"
sh contract.sh "$workdir"
for f in ashbench_output.txt ashbench_counts.txt ashbench_trace.sha256; do
    if ! cmp -s "$f" "$workdir/$f"; then
        diff -u "$f" "$workdir/$f" | head -40
        echo "$f diverged from what the tree writes; if intended, regenerate: sh contract.sh ."
        exit 1
    fi
done

# Traffic: the functions that nothing the repository runs ever calls. The
# programs are built with -cover over every package except the lint
# analyzers (the ashlint step above is their traffic) and the hot-path
# fixtures (the benchmark is theirs), and run as contract.sh runs them,
# serially: the registry, the full suite, the quick and breakdown traced
# runs, then every example. A function at 0% must have its line in
# untrafficked.txt, "path/file.go:Func<TAB>category: reason", with one of
# the categories perfbench, oracle, api, diagnostic, no-cell or roadmap;
# a listed function that gained traffic must lose its line.
echo "== traffic (untrafficked.txt)"
bad=$(awk -F '\t' 'NF != 2 || $2 !~ /^(perfbench|oracle|api|diagnostic|no-cell|roadmap): ./' untrafficked.txt)
if [ -n "$bad" ]; then
    echo "untrafficked.txt lines without a category and a reason:"
    echo "$bad"
    exit 1
fi
traffic=$workdir/traffic
mkdir -p "$traffic/bin" "$traffic/cov"
go list -f '{{if ne .Name "main"}}{{.ImportPath}}{{end}}' ./... |
    grep -v -e '^ashs/internal/lint' -e '^ashs/internal/bench/hotpath$' >"$traffic/lib"
for main in ./cmd/ashbench ./examples/*/; do
    main=${main%/}
    go list "$main" >"$traffic/pkgs"
    cat "$traffic/lib" >>"$traffic/pkgs"
    pkgs=$(go list -deps "$main" | grep -x -F -f "$traffic/pkgs" | paste -sd, -)
    go build -cover -coverpkg="$pkgs" -o "$traffic/bin/$(basename "$main")" "$main"
done
(
    cd "$traffic"
    export GOCOVERDIR="$traffic/cov"
    bin/ashbench -experiment help >/dev/null
    bin/ashbench -parallel 1 >/dev/null 2>&1
    bin/ashbench -quick -parallel 1 -trace quick.json >/dev/null 2>&1
    bin/ashbench -parallel 1 -experiment breakdown -trace breakdown.json >/dev/null 2>&1
    for ex in bin/*; do
        [ "$ex" = bin/ashbench ] || "$ex" >/dev/null
    done
)
go tool covdata func -i "$traffic/cov" |
    awk '$NF == "0.0%" { f = $1; sub(/^ashs\//, "", f); sub(/:[0-9]+:$/, "", f); print f ":" $2 }' |
    LC_ALL=C sort >"$traffic/zero"
cut -f1 untrafficked.txt | LC_ALL=C sort >"$traffic/listed"
if ! cmp -s "$traffic/zero" "$traffic/listed"; then
    echo "no traffic, and not in untrafficked.txt (delete it, give it traffic, or list it):"
    LC_ALL=C comm -23 "$traffic/zero" "$traffic/listed"
    echo "in untrafficked.txt, but has traffic now (drop its line):"
    LC_ALL=C comm -13 "$traffic/zero" "$traffic/listed"
    exit 1
fi

# Coverage gate: per-package coverage is printed for review; the total
# must not regress below the floor (measured baseline minus slack).
echo "== coverage (floor 79.5%)"
go test -coverprofile="$workdir/cover.out" ./... | grep -v '^---' || true
total=$(go tool cover -func="$workdir/cover.out" | awk '/^total:/ {sub(/%/, "", $3); print $3}')
echo "total coverage: ${total}%"
ok=$(awk -v t="$total" 'BEGIN { print (t >= 79.5) ? 1 : 0 }')
if [ "$ok" != 1 ]; then
    echo "total coverage ${total}% fell below the 79.5% floor"
    exit 1
fi

# Hot-path microbenchmarks: a short sweep proves the fixtures still run.
# Timings are never gated here — CI machines vary too much (cmd/perfbench
# records them) — but allocation counts are deterministic, so the
# zero-alloc hot-path contract IS gated, by TestBodiesRun in the `go test`
# and `-race` runs above: it fails when the demux, dispatch, event-queue
# or packet-path bodies report an alloc/op.
echo "== hot-path microbenchmarks (smoke)"
go test -run '^$' -bench . -benchtime 0.1s ./internal/bench/hotpath/

if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck"
    staticcheck ./...
else
    echo "== staticcheck not installed; skipping"
fi

echo "CI OK"
