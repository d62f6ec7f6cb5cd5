#!/bin/sh
# resume-smoke: the durability gate, for both commands. Run a journaled
# invocation, SIGKILL it mid-way (after at least one run has committed to
# the journal), resume it with -resume, and require the resumed output to
# be byte-identical to an uninterrupted reference run.
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

$GO build -o "$tmp/paper-figures" ./cmd/paper-figures
$GO build -o "$tmp/pageseer-sim" ./cmd/pageseer-sim

# smoke NAME TOTAL CMD...: the kill-and-resume check for one invocation of
# TOTAL runs. -j 1 in CMD keeps the runs sequential so the kill lands
# mid-invocation rather than after it.
smoke() {
    name=$1 total=$2
    shift 2
    jdir="$tmp/$name-journal"

    # Uninterrupted reference.
    "$@" >"$tmp/$name-ref.out"

    # Journaled invocation, SIGKILLed once at least one run has committed.
    "$@" -journal "$jdir" >"$tmp/$name-killed.out" 2>/dev/null &
    pid=$!
    i=0
    while [ $i -lt 400 ]; do
        if [ -f "$jdir/journal.psj" ]; then
            lines=$(wc -l <"$jdir/journal.psj")
        else
            lines=0
        fi
        if [ "$lines" -ge 2 ]; then
            break
        fi
        if ! kill -0 "$pid" 2>/dev/null; then
            break
        fi
        sleep 0.05
        i=$((i + 1))
    done
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true

    if [ ! -f "$jdir/journal.psj" ]; then
        echo "resume-smoke: $name never created its journal" >&2
        exit 1
    fi
    records=$(($(wc -l <"$jdir/journal.psj") - 1))
    if [ "$records" -lt 1 ]; then
        echo "resume-smoke: $name committed no run to the journal before the kill" >&2
        exit 1
    fi
    echo "resume-smoke: SIGKILLed $name with $records/$total run(s) journaled"

    # Resume: completed runs replay from the journal, the casualties re-execute.
    "$@" -journal "$jdir" -resume >"$tmp/$name-resumed.out" 2>"$tmp/$name-resumed.err"
    if ! grep -q "journal: resuming" "$tmp/$name-resumed.err"; then
        echo "resume-smoke: resumed $name did not report the replay" >&2
        cat "$tmp/$name-resumed.err" >&2
        exit 1
    fi

    if ! cmp -s "$tmp/$name-ref.out" "$tmp/$name-resumed.out"; then
        echo "resume-smoke: resumed $name output differs from the uninterrupted reference" >&2
        diff "$tmp/$name-ref.out" "$tmp/$name-resumed.out" >&2 || true
        exit 1
    fi
    echo "resume-smoke: resumed $name output byte-identical to the reference"
}

# 3 workloads x 3 schemes = 9 runs.
smoke paper-figures 9 "$tmp/paper-figures" -quick -workloads lbm,GemsFDTD,miniFE -fig14 -quiet -j 1
# 3 workloads under PageSeer = 3 runs.
smoke pageseer-sim 3 "$tmp/pageseer-sim" -workload lbm,GemsFDTD,miniFE -instr 100000 -warmup 50000 -maxcores 4 -j 1
