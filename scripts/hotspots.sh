#!/usr/bin/env bash
# Where does a benchmark workload spend its host time?
#
#   scripts/hotspots.sh <workload> [seconds] [--lines]   e.g. fig_pascal 10
#
# A sampling profile for hosts without `perf`: preloads a tiny SIGPROF
# sampler (built here with `cc`) into the already-built, unedited
# `bow-benchmark`, runs one untraced pass of the workload, symbolises the
# sampled program counters with `addr2line -f -i -C` and prints
#   * self time by physical (non-inlined) function, and
#   * inclusive time of every function on the inline chains, which is where
#     small accessors the optimiser folded into their callers show up, and
#   * with `--lines`, self time by source line: each sample is charged to
#     the innermost line of the repository's own code on its inline chain,
#     so the stages the optimiser inlined into `Pipeline::tick` (or any
#     other caller) split into the lines that did the work.
# Samples outside the binary are named after a shared object's function
# only where a symbol with a size covers the address (the object's full
# symbol table where the host has one, its own or a build-id debug file,
# else its exported symbols); the rest are printed as that object's
# unattributed bucket, never credited to the nearest export below them.
#
# Build first (`benchmark/run.sh --smoke` does). Writes only under target/;
# touches nothing in benchmark/. Exits 0 with a notice where `cc` or
# `addr2line` is missing. See docs/TESTING.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

usage="usage: scripts/hotspots.sh <workload> [seconds] [--lines]"
lines=0
args=()
for arg in "$@"; do
    case "$arg" in
    --lines) lines=1 ;;
    -*) echo "$usage" >&2; exit 2 ;;
    *) args+=("$arg") ;;
    esac
done
(( ${#args[@]} >= 1 && ${#args[@]} <= 2 )) || { echo "$usage" >&2; exit 2; }
workload="${args[0]}"
seconds="${args[1]:-10}"
for tool in cc addr2line nm readelf; do
    if ! command -v "$tool" >/dev/null; then
        echo "hotspots: \`$tool\` not found on this host, nothing profiled"
        exit 0
    fi
done
bin="$(pwd)/${CARGO_TARGET_DIR:-benchmark/target}/release/bow-benchmark"
if [[ ! -x "$bin" ]]; then
    echo "hotspots: $bin is not built; run benchmark/run.sh --smoke first" >&2
    exit 1
fi

out="$(pwd)/target/hotspots"
mkdir -p "$out"
cat >"$out/sampler.c" <<'SAMPLER'
/* LD_PRELOAD sampler: records the interrupted program counter on every
 * SIGPROF (1 kHz of process CPU time). At exit it resolves each against
 * /proc/self/maps and writes one "<object> <address in object>" line a
 * sample: the address relative to the object's first mapping, which is what
 * addr2line expects of a position-independent executable or library. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
enum { CAP = 1 << 22, MAPS = 512 };
static unsigned long *pcs;
static size_t n;
static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    size_t i = __atomic_fetch_add(&n, 1, __ATOMIC_RELAXED);
#if defined(__x86_64__)
    if (i < CAP) pcs[i] = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    if (i < CAP) pcs[i] = ((ucontext_t *)ctx)->uc_mcontext.pc;
#endif
}
__attribute__((constructor)) static void start(void) {
    pcs = calloc(CAP, sizeof *pcs);
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval tick = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &tick, NULL);
}
__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    static struct { unsigned long lo, hi, base; char path[256]; } map[MAPS];
    size_t nmap = 0;
    const char *out = getenv("HOTSPOTS_OUT");
    FILE *maps = fopen("/proc/self/maps", "r"), *f = out ? fopen(out, "w") : NULL;
    if (!f || !maps) return;
    for (char line[512]; nmap < MAPS && fgets(line, sizeof line, maps);)
        if (sscanf(line, "%lx-%lx %*s %*s %*s %*s %255s", &map[nmap].lo, &map[nmap].hi,
                   map[nmap].path) == 3 && map[nmap].path[0] == '/') {
            size_t first = 0;
            while (strcmp(map[first].path, map[nmap].path)) first++;
            map[nmap++].base = map[first].lo;
        }
    for (size_t i = 0; i < n && i < CAP; i++) {
        size_t m = 0;
        while (m < nmap && !(pcs[i] >= map[m].lo && pcs[i] < map[m].hi)) m++;
        if (m < nmap) fprintf(f, "%s %lx\n", map[m].path, pcs[i] - map[m].base);
        else fputs("[anonymous] 0\n", f);
    }
    fclose(f);
}
SAMPLER
cc -O2 -shared -fPIC -o "$out/sampler.so" "$out/sampler.c"

HOTSPOTS_OUT="$out/$workload.samples" LD_PRELOAD="$out/sampler.so" "$bin" \
    --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 \
    --out "$out/out" >/dev/null

# "<count> <object> <address>" per distinct sampled address.
sort "$out/$workload.samples" | uniq -c | awk '{ print $1, $2, $3 }' >"$out/$workload.counts"
total=$(awk '{ t += $1 } END { print t + 0 }' "$out/$workload.counts")
if [[ "$total" -eq 0 ]]; then
    echo "hotspots: no samples (did $workload run for under a millisecond?)" >&2
    exit 1
fi

# Symbolise the addresses inside the binary: `-a` prints each address on a
# line of its own, followed by function / file:line pairs from the innermost
# inlined frame outwards.
awk -v bin="$bin" '$2 == bin { print "0x" $3 }' "$out/$workload.counts" |
    addr2line -e "$bin" -a -f -i -C >"$out/$workload.frames"

# "<object> <table> <start> <size> <name>" for every function symbol with a
# size, per sampled shared object, from the fullest table this host has:
# `symtab` (the object's own, or a debug file found by build id) or `dynsym`
# (exported symbols only: a stripped libc names `memcpy` and `malloc` but not
# the `__memmove_avx_*` or `_int_malloc` bodies that do the work).
functions_of() {
    { nm "$@" --defined-only -S 2>/dev/null || true; } | awk 'NF == 4 && $3 ~ /^[tTwWiI]$/ { print $1, $2, $4 }'
}
awk -v bin="$bin" '$2 != bin && $2 != "[anonymous]" { print $2 }' "$out/$workload.counts" |
    sort -u | while read -r obj; do
        id=$(readelf -n "$obj" 2>/dev/null | awk '/Build ID:/ { print $3; exit }')
        table=dynsym
        syms=""
        for src in ${id:+"/usr/lib/debug/.build-id/${id:0:2}/${id:2}.debug"} "$obj"; do
            [[ -r "$src" ]] && syms=$(functions_of "$src") && [[ -n "$syms" ]] && table=symtab && break
        done
        [[ -n "$syms" ]] || syms=$(functions_of -D "$obj")
        if [[ -n "$syms" ]]; then
            printf '%s\n' "$syms" | awk -v obj="$obj" -v table="$table" '{ print obj, table, $0 }'
        fi
    done >"$out/$workload.dsyms"

echo "== $workload: $total samples at 1 kHz of CPU time =="
awk -v bin="$bin" -v total="$total" -v dsyms="$out/$workload.dsyms" -v lines="$lines" -v repo="$(pwd)/" '
    function hex(s,   i, v) {
        v = 0
        for (i = 1; i <= length(s); i++) v = 16 * v + index("0123456789abcdef", substr(s, i, 1)) - 1
        return v
    }
    # A shared-object sample: the covering function with the plainest name
    # (fewest leading underscores, then shortest) among aliases, else the
    # unattributed bucket of the object.
    function so_label(obj, addr,   a, i, best, rank, r, base, n) {
        a = hex(addr); best = ""
        for (i = 1; i <= nsym[obj]; i++)
            if (lo[obj, i] <= a && a < hi[obj, i]) {
                n = sym[obj, i]; match(n, /^_*/); r = 1000 * RLENGTH + length(n)
                if (best == "" || r < rank) { best = n; rank = r }
            }
        base = obj; sub(/.*\//, "", base)
        if (best != "") return "[" base "] " best
        if (table[obj] == "dynsym") return "[" base "] (unattributed: only exported symbols on this host)"
        return "[" base "] (unattributed)"
    }
    BEGIN {
        while ((getline line < dsyms) > 0) {
            split(line, d, " "); sub(/@.*/, "", d[5])
            n = ++nsym[d[1]]; table[d[1]] = d[2]
            lo[d[1], n] = hex(d[3]); hi[d[1], n] = lo[d[1], n] + hex(d[4]); sym[d[1], n] = d[5]
        }
    }
    function flush(   i, at) {
        if (addr == "") return
        self[fn[nfn]] += weight[addr]            # outermost frame: the physical function
        for (i = 1; i <= nfn; i++)
            if (last[fn[i]] != addr) { last[fn[i]] = addr; incl[fn[i]] += weight[addr] }
        at = "(no repository line) " fn[nfn]
        for (i = 1; i <= nfn; i++)               # innermost repository line
            if (index(loc[i], repo) == 1) { at = substr(loc[i], length(repo) + 1) "  " fn[i]; break }
        byline[at] += weight[addr]
    }
    FNR == NR {                                  # first file: the counts
        if ($2 == bin) weight["0x" $3] = $1
        else if ($2 == "[anonymous]") self[$2] += $1
        else self[so_label($2, $3)] += $1
        next
    }
    /^0x[0-9a-f]+$/ { flush(); addr = $0; sub(/^0x0*/, "0x", addr); nfn = 0; row = 0; next }
    { if (row++ % 2 == 0) fn[++nfn] = $0; else loc[nfn] = $0 }
    END {
        flush()
        print "-- self time by physical function (shared objects in brackets) --"
        top = "sort -rn | head -25"
        for (f in self) printf "%6.2f%%  %s\n", 100 * self[f] / total, f | top
        close(top)
        print "-- inclusive time of every function on the inline chains (binary only) --"
        top = "sort -rn | head -40"
        for (f in incl) printf "%6.2f%%  %s\n", 100 * incl[f] / total, f | top
        close(top)
        if (!lines) exit
        print "-- self time by innermost repository source line (binary only) --"
        top = "sort -rn | head -60"
        for (l in byline) printf "%6.2f%%  %s\n", 100 * byline[l] / total, l | top
        close(top)
    }
' "$out/$workload.counts" "$out/$workload.frames"
