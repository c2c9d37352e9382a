#!/usr/bin/env bash
# Byte-identity check between two builds of this repo: run the same
# driver command lines and figure benches with each, and compare
# everything they print and write.
#
# For each line of scripts/identity_corpus.txt it runs both builds'
# tools/ccsvm under the same argv[0] ("ccsvm"; --help prints it) in a
# fresh directory per build, and compares the exit code, stdout,
# stderr and every output file byte for byte. In a corpus line,
# @OUT@ is an output directory and @REPO@ this repo's root.
#
# It then compares both builds' `ccsvm-trace inspect` and `stats`
# output for every committed trace under traces/.
#
# It then does the same for every bench binary the build lists in
# bench/benches.txt, comparing exit code, stdout, stderr and the
# CCSVM_BENCH_JSON file, except abl_engine, abl_trace and abl_replay,
# whose tables carry host-time columns.
#
# Every case is compared, whatever an earlier one found: each case
# that differs is named with the head of its diff as it is found, and
# all of them are listed again at the end. Exits 0 when nothing
# differs, 1 when anything does, 2 on bad usage. The outputs go to a
# temporary directory, deleted when nothing differs and kept (its path
# printed) otherwise.
#
# usage: scripts/identity_check.sh OLD_BUILD NEW_BUILD
#   CCSVM_JOBS=N           sweep workers per bench (default 2)
set -euo pipefail

[[ $# -eq 2 ]] || {
    echo "usage: $0 OLD_BUILD NEW_BUILD" >&2
    exit 2
}
repo="$(cd "$(dirname "$0")/.." && pwd)"
old="$(cd "$1" && pwd)"
new="$(cd "$2" && pwd)"
corpus="$repo/scripts/identity_corpus.txt"
for b in "$old" "$new"; do
    [[ -x $b/tools/ccsvm && -x $b/tools/ccsvm-trace &&
        -f $b/bench/benches.txt ]] || {
        echo "identity_check: $b is not a build with benches" >&2
        exit 2
    }
done

work="$(mktemp -d)"
trap 'rc=$?; if ((rc == 0)); then rm -rf "$work"; else
    echo "identity_check: outputs kept in $work" >&2; fi' EXIT
export CCSVM_JOBS="${CCSVM_JOBS:-2}"

# run SIDE NAME BIN ARGS...: run BIN with argv[0] NAME inside
# $work/SIDE/<case>/run (a bench writes its JSON to out/), capturing
# its exit code and output beside that directory.
run() {
    local dir="$work/$1/$case_id"
    mkdir -p "$dir/run/out"
    local rc=0
    (cd "$dir/run" && export TMPDIR="$dir/run" \
        CCSVM_BENCH_JSON=out/BENCH.json && exec -a "$2" "${@:3}") \
        >"$dir/stdout" 2>"$dir/stderr" || rc=$?
    echo "$rc" >"$dir/exit"
}

# The cases that differ, and how many of the current kind matched.
differ=()
same=0

# compare WHAT: report every way the two sides of case WHAT differ,
# and count the case as identical or add it to differ.
compare() {
    local a="$work/old/$case_id" b="$work/new/$case_id" f ok=1
    for f in exit stdout stderr; do
        if ! cmp -s "$a/$f" "$b/$f"; then
            echo "identity_check: $1: $f differs" >&2
            diff "$a/$f" "$b/$f" | head -20 >&2 || true
            ok=0
        fi
    done
    if ! diff -rq "$a/run" "$b/run" >&2; then
        echo "identity_check: $1: output files differ" >&2
        ok=0
    fi
    if ((ok)); then
        same=$((same + 1))
    else
        differ+=("$1")
    fi
}

# tally N WHAT: print how many of the N cases of kind WHAT matched,
# then start counting the next kind.
tally() {
    if ((same == $1)); then
        echo "identity_check: $1 $2 identical"
    else
        echo "identity_check: $same of $1 $2 identical"
    fi
    same=0
}

n=0
while IFS= read -r line || [[ -n $line ]]; do
    [[ $line =~ ^[[:space:]]*(#|$) ]] && continue
    n=$((n + 1))
    case_id="driver-$n"
    line="${line//@OUT@/out}"
    line="${line//@REPO@/$repo}"
    read -ra args <<<"$line"
    run old ccsvm "$old/tools/ccsvm" "${args[@]}"
    run new ccsvm "$new/tools/ccsvm" "${args[@]}"
    compare "ccsvm $line"
done <"$corpus"
tally "$n" "driver lines"

traces=0
for trace in "$repo"/traces/*.ccsvmt; do
    for cmd in inspect stats; do
        case_id="trace-$cmd-$(basename "$trace" .ccsvmt)"
        run old ccsvm-trace "$old/tools/ccsvm-trace" "$cmd" "$trace"
        run new ccsvm-trace "$new/tools/ccsvm-trace" "$cmd" "$trace"
        compare "ccsvm-trace $cmd $trace"
    done
    traces=$((traces + 1))
done
tally "$((traces * 2))" "ccsvm-trace runs over $traces traces"

benches=0
while IFS= read -r bench; do
    case "$bench" in abl_engine | abl_trace | abl_replay) continue ;; esac
    case_id="bench-$bench"
    run old "$bench" "$old/bench/$bench"
    run new "$bench" "$new/bench/$bench"
    compare "bench $bench"
    benches=$((benches + 1))
done <"$old/bench/benches.txt"
tally "$benches" "benches"

if ((${#differ[@]})); then
    echo "identity_check: ${#differ[@]} cases differ:" >&2
    printf '  %s\n' "${differ[@]}" >&2
    exit 1
fi
