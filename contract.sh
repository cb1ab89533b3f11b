#!/bin/sh
# sh contract.sh DIR: the one writer of the behavioural contract, the
# files that pin the simulated results (DESIGN.md §10, "The contract"). Run from
# the repo root. It writes ashbench_output.txt, ashbench_counts.txt and
# ashbench_trace.sha256 into DIR, each from its own ashbench process, or
# refuses (exits non-zero, DIR untouched) if a run depends on the worker
# count or leaks an arena. `sh contract.sh .` is the one regeneration
# command; on the repo root it also rewrites testdata/kit_golden.txt.
set -eu

if [ $# -ne 1 ] || [ ! -d "$1" ]; then
    echo "usage: sh contract.sh DIR" >&2
    exit 2
fi
dir=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/out"
bin=$tmp/ashbench
go build -o "$bin" ./cmd/ashbench

refuse() {
    echo "contract.sh: $*; nothing written" >&2
    exit 1
}
# ashbench ERRFILE ARGS...: the built ashbench, stderr to ERRFILE (shown if it fails).
ashbench() {
    err=$1
    shift
    "$bin" "$@" 2>"$err" || { cat "$err" >&2; refuse "ashbench $* failed"; }
}

# Each experiment alone first, quick, so a run that depends on the worker
# count names its experiment. The names come from the registry.
for exp in $("$bin" -experiment help | awk '{print $1}'); do
    ashbench "$tmp/exp.err" -experiment "$exp" -quick -parallel 1 >"$tmp/exp-serial.txt"
    ashbench "$tmp/exp.err" -experiment "$exp" -quick >"$tmp/exp-parallel.txt"
    if ! cmp -s "$tmp/exp-serial.txt" "$tmp/exp-parallel.txt"; then
        diff "$tmp/exp-serial.txt" "$tmp/exp-parallel.txt" | head -40 >&2
        refuse "$exp output differs between -parallel 1 and the default pool"
    fi
done

# The full suite, serial (its stderr goes to the log) and on the default pool.
ashbench "$tmp/serial.err" -parallel 1 >"$tmp/out/ashbench_output.txt"
cat "$tmp/serial.err" >&2
ashbench "$tmp/parallel.err" >"$tmp/parallel.txt"
if ! cmp -s "$tmp/out/ashbench_output.txt" "$tmp/parallel.txt"; then
    diff "$tmp/out/ashbench_output.txt" "$tmp/parallel.txt" | head -40 >&2
    refuse "the full suite's output differs between -parallel 1 and the default pool"
fi

# Every world returns its hosts' memory. A return clears only the pages a
# host wrote, so zeroed does not depend on the pool either (grown may).
arenacounts() {
    sed -n 's/^\[host memory arenas: \([0-9]*\) leases, \([0-9]*\) returned, [0-9]* grown, \([0-9.]*\) MiB zeroed.*/\1 \2 \3/p' "$1"
}
arenas=$(arenacounts "$tmp/serial.err")
set -- $arenas
if [ $# -ne 3 ] || [ "$1" != "$2" ]; then
    refuse "arena leases not all returned: ${arenas:-no arena line in the serial run's stderr}"
fi
if [ "$(arenacounts "$tmp/parallel.err")" != "$arenas" ]; then
    grep '^\[host memory arenas:' "$tmp/serial.err" "$tmp/parallel.err" >&2
    refuse "arena leases, returned or zeroed differ between -parallel 1 and the default pool"
fi

# The traces, under relative names so the `wrote quick.json` line is the
# same wherever DIR is.
(
    cd "$tmp"
    ashbench breakdown.err -experiment breakdown -trace breakdown.json >/dev/null
    ashbench quick.err -quick -parallel 1 -trace quick.json >/dev/null
    sha256sum breakdown.json quick.json >out/ashbench_trace.sha256
    grep -v -e '^\[[0-9]* experiment(s) ran in ' -e '^\[go runtime: ' -e '^\[go host: ' -e '^\[go alloc ' quick.err >out/ashbench_counts.txt
)

mv "$tmp"/out/* "$dir/"
if [ "$(cd "$dir" && pwd -P)" = "$(pwd -P)" ]; then
    go test -count=1 -run '^TestKitMatchesParent$' ./internal/bench/ -update >/dev/null
fi
