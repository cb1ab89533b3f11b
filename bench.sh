#!/bin/sh
# sh bench.sh [-n N] [--append] [--differ] [REV]: the host-time ledger.
# Run from the repo root. It builds this tree's ashbench and, given REV,
# REV's from `git archive REV` (no network), then runs them N times each
# (default 5)
# at -parallel 1, alternating which goes first. Per experiment, and for the
# whole suite, it prints the median wall time, host ns per fired event and
# MiB allocated, from ashbench's [go alloc …] lines, and how many of the N
# pairs this tree won; then the same wall times host-normalized: each run's
# wall divided by that run's host reference (the [go host …] line: fixed
# work timed before and after the suite), so a host that changed speed
# between runs moves both sides alike. A REV older than the [go host …]
# line borrows the reference of this tree's run in the same pair. The
# suite row sums the experiments' walls.
#
# The two sides' stdout of the first pair must be byte-identical: a tree
# that is faster but computes something else records no row. --differ
# lets through a change that is meant to alter the output.
#
# Then each side runs every experiment again, alone, under ashbench's
# -cpuprofile, until its profiles hold 200 samples or 20 runs are in (at
# pprof's 100 Hz a short experiment's single profile holds a few dozen,
# and its shares swing by 10-20 points between runs of one binary). After
# three runs it stops an experiment whose samples so far project under 200
# at 20 runs: those never resolve, and each run waits out
# pprof.StopCPUProfile.
# `go tool pprof -proto` merges an experiment's runs and `go tool pprof
# -raw` splits the samples by layer: a sample goes to the layer
# (layers.txt) of its innermost ashs/internal frame, and to "runtime" if
# it has none. An experiment's shares are printed, and recorded, only
# from 200 samples up; below that, only its sample count.
#
# --append adds the result as one row to BENCH_trajectory.json, the
# append-only ledger of the suite's host cost; bench.sh is its only
# writer. A row is keyed by `git describe --always --dirty` of this tree,
# and its tree field is the hash of the measured work tree (every file
# `git add -A` would take, through a temporary index): `git diff TREE
# COMMIT` shows what the commit that lands the row changed after the run,
# the row itself included.
set -eu

n=5
append=
differ=
rev=
while [ $# -gt 0 ]; do
    case $1 in
    -n) n=$2; shift 2 ;;
    --append) append=1; shift ;;
    --differ) differ=1; shift ;;
    -*) echo "usage: sh bench.sh [-n N] [--append] [--differ] [REV]" >&2; exit 2 ;;
    *) rev=$1; shift ;;
    esac
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
GIT_INDEX_FILE="$tmp/index" git add -A
tree=$(GIT_INDEX_FILE="$tmp/index" git write-tree)
go build -o "$tmp/this" ./cmd/ashbench
sides=this
if [ -n "$rev" ]; then
    revid=$(git rev-parse --short "$rev^{commit}")
    mkdir "$tmp/src"
    git archive "$revid" | tar -x -C "$tmp/src"
    (cd "$tmp/src" && go build -o "$tmp/rev" ./cmd/ashbench)
    sides="this rev"
fi

# run SIDE PAIR: one serial suite, its ledger lines as
# "side pair experiment wall_ms ns_per_event mib ref_ms". The first
# pair's stdout is kept as $tmp/out.SIDE.
run() {
    out=/dev/null
    [ "$2" -eq 1 ] && out="$tmp/out.$1"
    "$tmp/$1" -parallel 1 2>"$tmp/err" >"$out"
    awk -v side="$1" -v pair="$2" '
        /^\[go host: / {
            ref = 0
            s = $0; sub(/.*reference before /, "", s)
            m = split(s, f, /[ ,;]+/)
            for (i = 1; i < m; i++) if (f[i+1] == "ms") ref += f[i]
            ref /= 2
        }
        /^\[go alloc / {
            x = $3; sub(/:$/, "", x)
            e[++k] = x; mib[k] = $4; wall[k] = $8
            ns[k] = ($12 == "ns/event]") ? $11 : "-"
        }
        /^\[go runtime: / { total = $(NF-2) }
        END {
            for (i = 1; i <= k; i++) suite += wall[i]
            for (i = 1; i <= k; i++) print side, pair, e[i], wall[i], ns[i], mib[i], ref + 0
            print side, pair, "suite", suite, "-", total, ref + 0
        }' "$tmp/err"
}

for i in $(seq 1 "$n"); do
    if [ $((i % 2)) -eq 1 ]; then order=$sides; else order=$(echo "$sides" | awk '{for (i = NF; i > 0; i--) printf "%s ", $i}'); fi
    for side in $order; do
        run "$side" "$i" >>"$tmp/runs"
    done
    if [ "$i" -eq 1 ] && [ -n "$rev" ] && [ -z "$differ" ] && ! cmp -s "$tmp/out.this" "$tmp/out.rev"; then
        echo "bench.sh: this tree's ashbench stdout differs from $revid's; no row (--differ accepts it)" >&2
        diff "$tmp/out.rev" "$tmp/out.this" | head -20 >&2
        exit 1
    fi
done

# samples BIN PROF: the number of samples in a CPU profile.
samples() {
    go tool pprof -raw "$1" "$2" 2>/dev/null | awk '
        /^Samples:/ { s = 1; next }
        /^Locations/ { s = 0 }
        s && /^ *[0-9]+ +[0-9]+: / { n += $1 }
        END { print n + 0 }'
}

# profile SIDE: per experiment, CPU profiles until they hold 200 samples
# or 20 runs are in, or from 3 runs on until they project under 200 at 20,
# merged, each sample charged to a layer; lines "side experiment layer
# samples", and "side experiment runs R".
profile() {
    for e in $("$tmp/this" -experiment help | awk '{print $1}'); do
        runs=0 got=0 profs=
        while [ "$got" -lt 200 ] && [ "$runs" -lt 20 ]; do
            if [ "$runs" -ge 3 ] && [ $((got * 20 / runs)) -lt 200 ]; then
                break
            fi
            runs=$((runs + 1))
            "$tmp/$1" -parallel 1 -experiment "$e" -cpuprofile "$tmp/cpu.$runs.prof" >/dev/null 2>&1 || break
            profs="$profs $tmp/cpu.$runs.prof"
            got=$((got + $(samples "$tmp/$1" "$tmp/cpu.$runs.prof")))
        done
        [ -n "$profs" ] || continue
        echo "$1 $e runs $runs"
        go tool pprof -proto "$tmp/$1" $profs >"$tmp/cpu.prof" 2>/dev/null
        rm -f $profs
        go tool pprof -raw "$tmp/$1" "$tmp/cpu.prof" 2>/dev/null | awk -v side="$1" -v experiment="$e" '
            # The innermost ashs/internal frame of a location, inlined
            # frames first; the package of a frame is its name up to the first dot.
            function frame(fn,   p) {
                if (pkg[id] == "" && fn ~ /^ashs\/internal\//) { p = fn; sub(/\..*/, "", p); pkg[id] = p }
            }
            NR == FNR { if ($0 !~ /^#/ && NF == 2) layer[$1] = $2; next }
            /^Samples:/ { sec = "samples"; next }
            /^Locations/ { sec = "locations"; next }
            /^Mappings/ { sec = ""; next }
            sec == "samples" && /^ *[0-9]+ +[0-9]+: / {
                count[++ns] = $1; stack[ns] = ""
                for (i = 3; i <= NF; i++) stack[ns] = stack[ns] " " $i
                next
            }
            sec == "locations" && /^ *[0-9]+: 0x/ { id = $1; sub(/:$/, "", id); pkg[id] = ""; frame($4); next }
            sec == "locations" && NF > 0 { frame($1) }
            END {
                for (s = 1; s <= ns; s++) {
                    l = "runtime"
                    m = split(stack[s], ids, " ")
                    for (i = 1; i <= m; i++) if (pkg[ids[i]] != "") {
                        l = (pkg[ids[i]] in layer) ? layer[pkg[ids[i]]] : "unmapped"
                        break
                    }
                    total[l] += count[s]
                }
                for (l in total) print side, experiment, l, total[l]
            }' layers.txt -
    done
}
for side in $sides; do
    profile "$side" >>"$tmp/layers"
done

commit=$(git describe --always --dirty)
goversion=$(go env GOVERSION)
awk -v n="$n" -v commit="$commit" -v tree="$tree" -v against="${revid:-}" -v gov="$goversion" \
    -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v row="$tmp/row" '
    function sort(a, m,   i, j, t) {
        for (i = 2; i <= m; i++) for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
    }
    # q: the q-quantile of the m sorted values in a, interpolated.
    function q(a, m, p,   h, lo) {
        if (m == 0) return "-"
        h = 1 + (m - 1) * p; lo = int(h)
        return (lo >= m) ? a[m] : a[lo] + (h - lo) * (a[lo+1] - a[lo])
    }
    function stat(side, e, col, p,   a, m, i) {
        m = 0
        for (i = 1; i <= n; i++) if ((side, e, i) in wall) {
            if (col == "wall") a[++m] = wall[side, e, i]
            else if (col == "norm") a[++m] = wall[side, e, i] / ref[side, i]
            else if (col == "ns" && ns[side, e, i] != "-") a[++m] = ns[side, e, i]
            else if (col == "mib") a[++m] = mib[side, e, i]
            else if (col == "ref") a[++m] = ref[side, i]
        }
        sort(a, m)
        return q(a, m, p)
    }
    function wins(e, norm,   i, c) {
        c = 0
        for (i = 1; i <= n; i++) {
            if (norm && wall["this", e, i] / ref["this", i] < wall["rev", e, i] / ref["rev", i]) c++
            if (!norm && wall["this", e, i] < wall["rev", e, i]) c++
        }
        return c
    }
    function fmt(v, d) { return (v == "-") ? "-" : sprintf("%." d "f", v) }
    function pair(col, e, d) {
        return against == "" ? fmt(stat("this", e, col, 0.5), d) : fmt(stat("rev", e, col, 0.5), d) " -> " fmt(stat("this", e, col, 0.5), d)
    }
    {
        side = $1; i = $2; e = $3
        if (!(e in seen)) { seen[e] = 1; order[++k] = e }
        wall[side, e, i] = $4; ns[side, e, i] = $5; mib[side, e, i] = $6; ref[side, i] = $7
    }
    END {
        for (i = 1; i <= n; i++) if (ref["rev", i] == 0) ref["rev", i] = ref["this", i]
        head = against == "" ? commit : against " -> " commit
        printf "%d serial runs per side; wall (ms), ns/event and MiB are medians, %s\n", n, head
        printf "%-11s %-15s %-17s %-17s %-6s %-15s %s\n", "experiment", "wall ms", "ns/event", "MiB", "wins", "wall/ref", "wins"
        for (j = 1; j <= k; j++) {
            e = order[j]
            printf "%-11s %-15s %-17s %-17s %-6s %-15s %s\n", e, pair("wall", e, 0), pair("ns", e, 0), pair("mib", e, 1),
                against == "" ? "-" : wins(e, 0) "/" n, pair("norm", e, 2), against == "" ? "-" : wins(e, 1) "/" n
        }
        printf "host reference (ms, median of before and after): %s\n", pair("ref", "suite", 2)
        printf "  {\"commit\": \"%s\", \"against\": \"%s\", \"tree\": \"%s\", \"date\": \"%s\", \"go\": \"%s\", \"runs\": %d, \"parallel\": 1,\n", commit, against, tree, date, gov, n > row
        printf "   \"host_ref_ms\": %s, \"experiments\": {", fmt(stat("this", "suite", "ref", 0.5), 2) > row
        for (j = 1; j <= k; j++) {
            e = order[j]
            printf "%s\n    \"%s\": {\"wall_ms\": [%s, %s, %s], \"ns_per_event\": %s, \"mib\": %s, \"wall_per_ref\": %s", (j > 1 ? "," : ""), e,
                fmt(stat("this", e, "wall", 0.25), 1), fmt(stat("this", e, "wall", 0.5), 1), fmt(stat("this", e, "wall", 0.75), 1),
                stat("this", e, "ns", 0.5) == "-" ? "null" : fmt(stat("this", e, "ns", 0.5), 0), fmt(stat("this", e, "mib", 0.5), 1),
                fmt(stat("this", e, "norm", 0.5), 3) > row
            if (against != "")
                printf ", \"against_wall_ms\": [%s, %s, %s], \"wins\": %d, \"wins_per_ref\": %d",
                    fmt(stat("rev", e, "wall", 0.25), 1), fmt(stat("rev", e, "wall", 0.5), 1), fmt(stat("rev", e, "wall", 0.75), 1),
                    wins(e, 0), wins(e, 1) > row
            printf "}" > row
        }
        printf "}" > row
    }' "$tmp/runs"

# The layer table: each experiment's samples per layer in percent, this
# tree's (after REV's), and the same as JSON for the row. A side's shares
# of an experiment are printed only from 200 samples up ("-" below).
awk -v against="${revid:-}" -v row="$tmp/row" '
    BEGIN { nl = split("sim netdev aegis dpf vcode proto flyweight harness runtime unmapped", lay, " ") }
    {
        if (!($2 in seen)) { seen[$2] = 1; order[++k] = $2 }
        if ($3 == "runs") { runs[$1, $2] = $4; next }
        s[$1, $2, $3] += $4; tot[$1, $2] += $4
    }
    function resolved(side, e) { return tot[side, e] >= 200 }
    function pct(side, e, l) { return 100 * s[side, e, l] / tot[side, e] }
    function share(side, e, l) { return resolved(side, e) ? sprintf("%.1f", pct(side, e, l)) : "-" }
    function cell(e, l) { return against == "" ? share("this", e, l) : share("rev", e, l) ">" share("this", e, l) }
    function json(side, key,   j, i, e) {
        printf ",\n   \"%s\": {", key >> row
        for (j = 1; j <= k; j++) {
            e = order[j]
            printf "%s\n    \"%s\": {\"samples\": %d, \"runs\": %d", (j > 1 ? "," : ""), e, tot[side, e], runs[side, e] >> row
            if (resolved(side, e)) for (i = 1; i <= nl; i++) if (s[side, e, lay[i]]) printf ", \"%s\": %.1f", lay[i], pct(side, e, lay[i]) >> row
            printf "}" >> row
        }
        printf "}" >> row
    }
    END {
        printf "host CPU by layer (%% of each experiment'"'"'s profile samples, shown from 200 samples up%s)\n", against == "" ? "" : "; " against " > this tree"
        printf "%-11s %11s %7s", "experiment", "samples", "runs"
        for (i = 1; i < nl; i++) printf " %11s", lay[i]
        printf "\n"
        for (j = 1; j <= k; j++) {
            e = order[j]
            printf "%-11s %11s %7s", e, against == "" ? tot["this", e] + 0 : tot["rev", e] + 0 ">" tot["this", e] + 0,
                against == "" ? runs["this", e] : runs["rev", e] ">" runs["this", e]
            for (i = 1; i < nl; i++) printf " %11s", cell(e, lay[i])
            printf "\n"
        }
        json("this", "layers_pct")
        if (against != "") json("rev", "against_layers_pct")
        printf "}" >> row
    }' "$tmp/layers"

if [ -n "$append" ]; then
    # Append-only: the file is a JSON list, one row per line group; the
    # new row goes before its closing bracket and nothing else moves.
    ledger=BENCH_trajectory.json
    [ -f "$ledger" ] || printf '[\n]\n' >"$ledger"
    sed '$d' "$ledger" >"$tmp/ledger"
    if grep -q '}' "$tmp/ledger"; then
        sed '$s/$/,/' "$tmp/ledger" >"$tmp/ledger2" && mv "$tmp/ledger2" "$tmp/ledger"
    fi
    { cat "$tmp/ledger" "$tmp/row"; printf '\n]\n'; } >"$ledger"
    echo "appended a row to $ledger"
fi
