#!/usr/bin/env bash
# Tier-1 verification, run fully offline. This is the gate every PR must
# pass; CI runs exactly this script (.github/workflows/ci.yml).
#
# The workspace is hermetic by policy (see DESIGN.md §6): every
# [workspace.dependencies] entry is a path dependency, so the build must
# succeed with the network hard-disabled. CARGO_NET_OFFLINE=true turns
# any accidental registry dependency into an immediate error instead of
# a silent download.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --check
run cargo build --release
# --no-fail-fast: every test binary runs even after one goes red, so a
# single failure cannot hide the results of the binaries after it (the
# exit status is still non-zero if anything failed).
run cargo test -q --no-fail-fast
# The round kernel's tests once more, optimised: the word-wise row fill
# is exactly the code that debug assertions and overflow checks would
# otherwise mask.
run cargo test -q --release -p ftss-sync-sim round::
# The 150-line function cap (clippy.toml) is denied in ftss-sync-sim and
# ftss-serve, so this step also keeps the round kernel and the session
# router from growing back into one loop.
run cargo clippy --all-targets -- -D warnings
# One round kernel (DESIGN.md §16): the adversary is consulted from
# exactly one place. The kernel's walk asks `decide_row` for a run of
# senders' eligible copies (consecutive clean senders, or one special
# sender), and the row method's default body is the one caller of the
# per-copy methods (an override decides a run without them). A
# second non-test call site of any of these is a second implementation
# of the round — fold it into the kernel instead.
# One epoch judge and one judged storm run (DESIGN.md §11), same rule:
# outside crates/check, which defines it, the window oracle is called by
# `EpochJudge::on_round` alone, and the storm program is assembled by
# `StormScenario::new` alone; a second site is a second verification loop
# or a hand-built copy of the run. One smallest-`s` search
# (`ftss_core::stabilization_offset`): its two callers are
# `measured_stabilization_time` and `window_stabilization`; a third is
# the loop reappearing under another name.
# One folded driver (DESIGN.md §16): the kernel hands the clean block to
# the exchange from one place, and `step_folded` — through which
# `InProcess::deliver` and `SyncStepper::step_process` fold an inbox — is
# the one caller of `step_joined`; a second site of either is a second
# reading of the inbox to keep equivalent to `step`.
# One clean block per round, opened and recorded by the kernel alone: a
# copy inside the block must never also be a table bit (DESIGN.md §12),
# only the walk knows which copies it skipped, and only the walk knows the
# block's receivers before its first copy. The per-row builders and
# readers it replaced must not come back under any name they had. The
# clean senders' copies to the special processes are recorded a run at
# a time, by the walk alone (`record_clean_run`), and the block
# receivers' heard-specials masks are read for a whole frame in one pass
# (`RoundMsgs::heard_specials_into`): the per-receiver reader it replaced
# must not come back.
# One storm-phase lookup (`ftss_core::storm::phase_at`, a binary search
# over a validated program): its one caller is `StormAdversary`, which
# makes it once per round; a second is a linear rescan or a second copy
# of the storm program coming back.
# (Test modules sit at the end of their file, behind `#[cfg(test)]`;
# definitions and comment lines are not call sites.)
echo "==> call sites of decide_row / drop_copy / forge_copy / delay_copy / sends_before_crash / clean_block / step_joined / record_clean_block / open_clean_block / record_clean_run / window_stabilization / storm_program_for / stabilization_offset / storm::phase_at / check_edge / step_process / step_round / relabeling scans"
call_sites() { # <expected count> <call regex> <source dir>...
    local want="$1" call="$2" sites
    shift 2
    sites="$(find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk -v m="$call" \
        'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 }
         !test && $0 ~ m && $0 !~ /^ *\/\// && $0 !~ /(^| )fn / { print FILENAME ":" FNR }')"
    if [ "$(printf '%s\n' "$sites" | grep -c .)" -ne "$want" ]; then
        echo "ERROR: expected exactly ${want} non-test call site(s) of ${call}, found:" >&2
        printf '%s\n' "$sites" >&2
        exit 1
    fi
}
for method in decide_row drop_copy forge_copy delay_copy sends_before_crash; do
    call_sites 1 "\\.${method}\\(" crates/*/src
done
for method in clean_block step_joined; do
    call_sites 1 "\\.${method}\\(" crates/sync-sim/src
done
call_sites 1 '\.record_clean_block\(' crates/*/src
call_sites 1 '\.open_clean_block\(' crates/*/src
call_sites 1 '\.record_clean_run\(' crates/*/src
if grep -rnE 'record_clean_sends|record_clean_deliveries|heard_all|iter_outside' crates/; then
    echo "ERROR: a per-row clean-block builder or reader is back (see above)" >&2
    exit 1
fi
if grep -rn 'heard_specials(' crates/*/src; then
    echo "ERROR: a per-receiver heard-specials reader is back (see above)" >&2
    exit 1
fi
# One frame layout (DESIGN.md §12): a frame names its block's receivers
# before its first copy, and one never opened has an empty block. The
# dense layout's flag, its after-the-fact overlap scan and its second bit
# setter stay gone.
if grep -rnE 'table_meets_block|set_bit_checked|opened: bool' crates/core/src; then
    echo "ERROR: the dense frame layout is back (see above)" >&2
    exit 1
fi
# One synchronous checker (DESIGN.md §14): the state graph. The tape
# enumerator's entry point, report, odometer and bound ceiling stay gone; a
# frozen enumeration lives in tests/graph_explore.rs only.
enum_explore="$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk \
    'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 }
     !test && /fn explore\(/ { print FILENAME ":" FNR }')"
if grep -rnwE 'MAX_TAPE_BOUND|DfsReport|advance_tape' crates/*/src || [ -n "$enum_explore" ]; then
    printf '%s\n' "$enum_explore" >&2
    echo "ERROR: the synchronous tape enumerator is back (see above)" >&2
    exit 1
fi
# The async model's one open choice is a message's delay (DESIGN.md §10):
# the dispatch-order demo (its scheduler, explorer and report) and the
# async forgery hook stay gone.
if grep -rnwE 'DfsScheduler|explore_gossip_por|AsyncDfsReport|ByzantineScheduler' crates/*/src \
    || grep -rnw 'forge_message' crates/async-sim/src; then
    echo "ERROR: the async dispatch-order demo or async forgery is back (see above)" >&2
    exit 1
fi
# `AsyncRunner` owns the one event queue; a second is a second event order.
call_sites 1 'EventQueue::new\(' crates/async-sim/src
# A queued message is held once, in the runner's arena slot, with a plain
# count of its queued copies (DESIGN.md §9): no shared handle per copy.
# The dispatch loop probes the queue once per event, with the
# horizon-bounded pop; a peek before it is a second probe coming back.
if grep -rnwE 'Payload|Arc' crates/async-sim/src; then
    echo "ERROR: a shared message handle is back in the async engine (see above)" >&2
    exit 1
fi
call_sites 1 '\.pop_until\(' crates/async-sim/src
call_sites 0 'peek_time\(' crates/async-sim/src
call_sites 1 'window_stabilization\(' crates/chaos/src crates/cli/src
call_sites 1 'storm_program_for\(' crates/chaos/src crates/cli/src crates/serve/src
call_sites 2 'stabilization_offset\(' crates/*/src
call_sites 1 'storm::phase_at\(' crates/sync-sim/src crates/serve/src
# One per-copy seam (DESIGN.md §16): the adversary decides every copy's
# fate, late copies included, and the kernel holds the late copies and
# records each in its arrival round's frame. A second per-copy hook beside
# the adversary, or a second channel of late copies beside the frame,
# stays gone.
if grep -rnwE 'CopyLayer|TimingProxy|TimingFaults|TRANSPARENT|LateCopy' crates/*/src; then
    echo "ERROR: a per-copy layer beside the adversary is back (see above)" >&2
    exit 1
fi
# An exchange hands a survivor its frame alone: `Exchange::deliver` takes
# `(p, inbox)`, and the in-process exchange steps on views of the frame,
# never on an owned inbox rebuilt beside it.
if ! grep -qF "fn deliver(&mut self, p: ProcessId, inbox: Deliveries<'_, M>) -> Result<(), Self::Error>;" \
    crates/sync-sim/src/round.rs; then
    echo "ERROR: Exchange::deliver must take (p, inbox) only" >&2
    exit 1
fi
call_sites 0 'Inbox::new\(' crates/sync-sim/src
# A served node steps on its round frame in place (DESIGN.md §13): it
# decodes the frame's table once into storage it keeps, in one decoder,
# and steps on a view of it; the compiled step hands Π a masked view of
# its own inbox (§16). No owned inbox, and no envelope list in the node.
call_sites 0 'Inbox::new\(' crates/serve/src crates/compiler/src
call_sites 1 'decode_round_frame\(' crates/serve/src
if grep -n 'Vec<Envelope' crates/serve/src/node.rs; then
    echo "ERROR: the node builds an envelope list again (see above)" >&2
    exit 1
fi
# `check_edge` judges a graph node's edges once per effect class inside
# `for_each_edge`; a second call site is a second edge walk beside it.
# The class walk steps each distinct inbox once, one process at a time
# (`SyncStepper::step_process`, called from `transitions` alone); a whole
# `step_round` in production graph code is the n-fold work of stepping
# every process per inbox of the faulty one coming back (the per-mask
# reference in the tests keeps whole rounds).
call_sites 1 'check_edge\(' crates/check/src
call_sites 1 '\.step_process\(' crates/check/src
call_sites 0 '\.step_round\(' crates/check/src
# A canonicalization searches the relabelings by refinement (DESIGN.md
# §14); a whole-table scan of them outside the tests is the (n−1)!-candidate
# loop coming back.
call_sites 0 'relabelings(\[1\.\.\]|\.iter\(\))' crates/check/src

# DESIGN.md §3 is the crate inventory: every crates/* directory has a
# row, and every key module a row names is a file of that crate.
echo "==> DESIGN.md §3 inventory matches crates/"
inventory="$(awk '/^## 3\./ { on = 1; next } /^## / { on = 0 } on && /^\| `crates\//' DESIGN.md)"
for dir in crates/*/; do
    crate="$(basename "$dir")"
    row="$(printf '%s\n' "$inventory" | grep -F "| \`crates/${crate}\`" || true)"
    if [ -z "$row" ]; then
        echo "ERROR: crates/${crate} has no row in DESIGN.md §3" >&2
        exit 1
    fi
    # The last column lists the key modules, each in backticks.
    for m in $(printf '%s\n' "$row" | awk -F'|' '{ print $(NF - 1) }' | grep -o '`[a-z_]*`' | tr -d '`'); do
        if [ ! -f "${dir}src/${m}.rs" ]; then
            echo "ERROR: DESIGN.md §3 names module ${m} of crates/${crate}, but ${dir}src/${m}.rs does not exist" >&2
            exit 1
        fi
    done
done

# A path survives only with a caller outside its own file (ROADMAP aim 2):
# every top-level `pub fn|struct|enum|trait|const|type|static` under
# crates/*/src must be named in some other .rs file of crates/, tests/,
# benchmark/ or examples/ (comment lines and `pub use` re-exports do not
# count), or have a line `path name  # reason` in scripts/pub-allowlist.txt
# saying why it stays public. An entry that is no longer an orphan, or no
# longer exists, fails too, so the list cannot rot. One awk pass collects
# each file's identifiers once.
echo "==> pub items named in no other file (scripts/pub-allowlist.txt)"
pub_orphans() {
    find crates tests benchmark examples -name target -prune -o -name '*.rs' -print \
        | LC_ALL=C sort | xargs awk '
        FNR == 1 { delete here; reexport = 0 }
        /^[ \t]*\/\// { next }
        /^[ \t]*pub use / { reexport = 1 }
        reexport { if (/;/) reexport = 0; next }
        {
            if (FILENAME ~ /^crates\/[^\/]*\/src\// && match($0, \
                /^pub (const |unsafe |async )*(fn|struct|enum|trait|const|type|static) +[A-Za-z_][A-Za-z0-9_]*/)) {
                d = substr($0, RSTART, RLENGTH); sub(/.* /, "", d); defs[FILENAME " " d] = 1
            }
            line = $0; gsub(/[^A-Za-z0-9_]+/, " ", line); k = split(line, w, " ")
            for (i = 1; i <= k; i++) if (!(w[i] in here)) { here[w[i]] = 1; files[w[i]]++ }
        }
        END { for (d in defs) { split(d, p, " "); if (files[p[2]] < 2) print d } }' | LC_ALL=C sort
}
if grep -vnE '^(#|$|[^ #]+ [A-Za-z_][A-Za-z0-9_]* +# .)' scripts/pub-allowlist.txt; then
    echo "ERROR: scripts/pub-allowlist.txt lines must read \`path name  # reason\` (see above)" >&2
    exit 1
fi
orphans="$(pub_orphans)"
allowed="$(awk '!/^#/ && NF { print $1 " " $2 }' scripts/pub-allowlist.txt | LC_ALL=C sort)"
unlisted="$(LC_ALL=C comm -23 <(printf '%s\n' "$orphans" | sed '/^$/d') <(printf '%s\n' "$allowed" | sed '/^$/d'))"
stale="$(LC_ALL=C comm -13 <(printf '%s\n' "$orphans" | sed '/^$/d') <(printf '%s\n' "$allowed" | sed '/^$/d'))"
if [ -n "$unlisted" ]; then
    echo "ERROR: pub items named in no other file (delete, make private, or allowlist with a reason):" >&2
    printf '%s\n' "$unlisted" >&2
    exit 1
fi
if [ -n "$stale" ]; then
    echo "ERROR: scripts/pub-allowlist.txt entries that are gone or have a caller elsewhere now:" >&2
    printf '%s\n' "$stale" >&2
    exit 1
fi

# Telemetry smoke: the same seed must serialize to byte-identical JSONL
# across two runs, and `stats` must parse every line back (it fails on
# the first malformed line) and aggregate the trace into a table.
TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$TRACE_DIR"' EXIT
run cargo run -q --release -p ftss-lab -- trace --protocol round-agreement \
    --rounds 8 --seed 1 --out "$TRACE_DIR/a.jsonl"
run cargo run -q --release -p ftss-lab -- trace --protocol round-agreement \
    --rounds 8 --seed 1 --out "$TRACE_DIR/b.jsonl"
run cmp "$TRACE_DIR/a.jsonl" "$TRACE_DIR/b.jsonl"
run cargo run -q --release -p ftss-lab -- stats --in "$TRACE_DIR/a.jsonl"

# EXPERIMENTS.md is a checked output (DESIGN.md §4): every fenced block
# under a `<!-- ftss-lab ... -->` marker must be, byte for byte, what that
# command prints now — E1–E11 on their full grids, the coverage matrix,
# the bounded `check --graph --rounds` rows and the n = 2..6 fixpoints. To refresh the
# file, redirect the same command into a temporary file and move it over.
echo "==> ftss-lab sweep --doc EXPERIMENTS.md (every marked block regenerated, byte-compared)"
cargo run -q --release -p ftss-lab -- sweep --doc EXPERIMENTS.md | cmp - EXPERIMENTS.md

# Sweep determinism smoke: the parallel executor must render the same
# bytes at any worker count (DESIGN.md §9's merge rule, end to end).
# (Plain invocations: run()'s echo must not land in the compared files.)
echo "==> ftss-lab sweep --exp e1 (serial vs 4 workers, byte-compared)"
cargo run -q --release -p ftss-lab -- sweep --exp e1 \
    --seeds 2 --max-n 4 --jobs 1 > "$TRACE_DIR/sweep_serial.txt"
cargo run -q --release -p ftss-lab -- sweep --exp e1 \
    --seeds 2 --max-n 4 --jobs 4 > "$TRACE_DIR/sweep_par.txt"
run cmp "$TRACE_DIR/sweep_serial.txt" "$TRACE_DIR/sweep_par.txt"

# Large-n engine smoke (DESIGN.md §12): the E9 sweep drives the windowed
# sync engine at n = 1024, verifying Theorem 3 on the retained suffix
# right at the eviction boundary; byte-identical at any worker count.
echo "==> ftss-lab sweep --exp e9 (n=1024, serial vs 4 workers, byte-compared)"
cargo run -q --release -p ftss-lab -- sweep --exp e9 \
    --seeds 2 --max-n 1024 --jobs 1 > "$TRACE_DIR/e9_serial.txt"
cargo run -q --release -p ftss-lab -- sweep --exp e9 \
    --seeds 2 --max-n 1024 --jobs 4 > "$TRACE_DIR/e9_par.txt"
run cmp "$TRACE_DIR/e9_serial.txt" "$TRACE_DIR/e9_par.txt"

# Model-checker smoke (crates/check, DESIGN.md §10 and §14): the graph
# search over every 2-round omission schedule of the n=3 configuration
# must be green; a deliberately broken oracle must trip, write a
# counterexample schedule, and replay it to byte-identical JSONL traces.
# The green run's --ce lands in the workspace so CI can upload it if a
# violation ever appears.
run cargo run -q --release -p ftss-lab -- check --graph --n 3 --rounds 2 \
    --seed 7 --ce check-counterexample.schedule
echo "==> ftss-lab check --broken-oracle (must exit 1 and write a counterexample)"
if cargo run -q --release -p ftss-lab -- check --graph --n 3 --rounds 2 \
    --broken-oracle --ce "$TRACE_DIR/ce.schedule"; then
    echo "ERROR: the broken oracle did not produce a violation" >&2
    exit 1
fi
test -s "$TRACE_DIR/ce.schedule"
run cargo run -q --release -p ftss-lab -- check --replay "$TRACE_DIR/ce.schedule" \
    --out "$TRACE_DIR/replay_a.jsonl"
run cargo run -q --release -p ftss-lab -- check --replay "$TRACE_DIR/ce.schedule" \
    --out "$TRACE_DIR/replay_b.jsonl"
run cmp "$TRACE_DIR/replay_a.jsonl" "$TRACE_DIR/replay_b.jsonl"

# Graph-mode model-checker smoke (DESIGN.md §14): the fixpoint search's
# counterexamples must carry `mode: graph` and replay through the same
# pipeline, and its report must render byte-identical at any worker
# count. (That the n = 2..6 fixpoints close, and their counts — recorded
# with the brute-force canonicalizer: canonicalization, fingerprints and
# dedup must keep producing exactly that search — are pinned by the
# EXPERIMENTS.md check above; that a bounded search agrees with a tape
# enumeration verdict for verdict, by tests/graph_explore.rs.)
echo "==> ftss-lab check --graph --broken-oracle (fixpoint search, must exit 1)"
if cargo run -q --release -p ftss-lab -- check --graph --n 3 --broken-oracle \
    --ce "$TRACE_DIR/gce.schedule"; then
    echo "ERROR: the broken oracle did not trip in graph mode" >&2
    exit 1
fi
test -s "$TRACE_DIR/gce.schedule"
run grep -q '^mode: graph$' "$TRACE_DIR/gce.schedule"
run cargo run -q --release -p ftss-lab -- check --replay "$TRACE_DIR/gce.schedule" \
    --out "$TRACE_DIR/gce_replay.jsonl"
echo "==> ftss-lab check --graph --n 6 --broken-oracle (effect-class violation path, must exit 1)"
if cargo run -q --release -p ftss-lab -- check --graph --n 6 --broken-oracle \
    --ce "$TRACE_DIR/gce6.schedule"; then
    echo "ERROR: the broken oracle did not trip in graph mode at n = 6" >&2
    exit 1
fi
run grep -q '^mode: graph$' "$TRACE_DIR/gce6.schedule"
run cargo run -q --release -p ftss-lab -- check --replay "$TRACE_DIR/gce6.schedule" \
    --out "$TRACE_DIR/gce6_replay.jsonl"
echo "==> ftss-lab check --graph (serial vs 4 workers, byte-compared)"
cargo run -q --release -p ftss-lab -- check --graph --n 4 --rounds 3 \
    --jobs 1 > "$TRACE_DIR/graph_j1.txt"
cargo run -q --release -p ftss-lab -- check --graph --n 4 --rounds 3 \
    --jobs 4 > "$TRACE_DIR/graph_j4.txt"
run cmp "$TRACE_DIR/graph_j1.txt" "$TRACE_DIR/graph_j4.txt"
echo "==> ftss-lab check --graph --n 6 (serial vs 4 workers, byte-compared)"
cargo run -q --release -p ftss-lab -- check --graph --n 6 --seed 7 \
    --jobs 1 > "$TRACE_DIR/graph6_j1.txt"
cargo run -q --release -p ftss-lab -- check --graph --n 6 --seed 7 \
    --jobs 4 > "$TRACE_DIR/graph6_j4.txt"
run cmp "$TRACE_DIR/graph6_j1.txt" "$TRACE_DIR/graph6_j4.txt"

# Fault-class boundary smoke (DESIGN.md §15, EXPERIMENTS.md E10): the
# omission/byzantine/churn grid. Byzantine rows beyond n > 4f are
# *expected* to record violations — the sweep always exits 0; the gate
# here is byte-determinism across worker counts. The table lands in the
# workspace so CI uploads it as an artifact.
echo "==> ftss-lab sweep --exp e10 (serial vs 4 workers, byte-compared)"
cargo run -q --release -p ftss-lab -- sweep --exp e10 \
    --seeds 2 --max-n 8 --jobs 1 > e10-boundary.txt
cargo run -q --release -p ftss-lab -- sweep --exp e10 \
    --seeds 2 --max-n 8 --jobs 4 > "$TRACE_DIR/e10_par.txt"
run cmp e10-boundary.txt "$TRACE_DIR/e10_par.txt"

# Chaos soak smoke (crates/chaos, DESIGN.md §11): a short default-plan
# soak must recover after every epoch inside an explicit wall-clock
# budget, and the JSONL soak report must render byte-identical at any
# worker count. The reports land in the workspace (not $TRACE_DIR) so
# CI can upload them if a cell ever stops recovering.
run cargo run -q --release -p ftss-lab -- soak --plan default --epochs 2 \
    --budget-ms 60000 --jobs 1 --out soak-j1.soak.jsonl
run cargo run -q --release -p ftss-lab -- soak --plan default --epochs 2 \
    --budget-ms 60000 --jobs 4 --out soak-j4.soak.jsonl
run cmp soak-j1.soak.jsonl soak-j4.soak.jsonl

# Large-n soak smoke: one n = 4096 round-agreement cell. Like every soak
# cell it streams through a history window the engine derives from the
# epoch geometry (one epoch; nothing configures it), every epoch judged
# in-stream; a rerun must reproduce the report byte for byte.
run cargo run -q --release -p ftss-lab -- soak --plan large-n --epochs 1 \
    --jobs 1 --out soak-largen-a.soak.jsonl
run cargo run -q --release -p ftss-lab -- soak --plan large-n --epochs 1 \
    --jobs 1 --out soak-largen-b.soak.jsonl
run cmp soak-largen-a.soak.jsonl soak-largen-b.soak.jsonl

# Churn soak smoke (DESIGN.md §15): leave/join storms where joiners
# re-enter with arbitrary state; every epoch must still recover, and
# the report must be byte-identical at any worker count.
run cargo run -q --release -p ftss-lab -- soak --plan churn --epochs 2 \
    --budget-ms 60000 --jobs 1 --out soak-churn-j1.soak.jsonl
run cargo run -q --release -p ftss-lab -- soak --plan churn --epochs 2 \
    --budget-ms 60000 --jobs 4 --out soak-churn-j4.soak.jsonl
run cmp soak-churn-j1.soak.jsonl soak-churn-j4.soak.jsonl

# Socket-runtime smoke (crates/serve, DESIGN.md §13): the served `mem`
# session must stream the exact bytes of the simulator's trace, and a
# 3-node round agreement over REAL TCP must survive a replayed
# partition+omission storm with per-epoch recovery verified inside the
# Theorem-3 window bound (exit code 0 plus explicit event checks).
run cargo run -q --release -p ftss-lab -- serve --transport mem --derived \
    --out "$TRACE_DIR/serve_mem.jsonl"
run cargo run -q --release -p ftss-lab -- trace --protocol round-agreement \
    --out "$TRACE_DIR/trace_ref.jsonl"
run cmp "$TRACE_DIR/serve_mem.jsonl" "$TRACE_DIR/trace_ref.jsonl"
# A zero-round session must end (it once waited forever for a broadcast
# no node sends), and stream what the simulator's zero-round trace does.
run timeout 20 cargo run -q --release -p ftss-lab -- serve --transport mem \
    --rounds 0 --out "$TRACE_DIR/serve_zero.jsonl"
run cargo run -q --release -p ftss-lab -- trace --protocol round-agreement \
    --rounds 0 --out "$TRACE_DIR/trace_zero.jsonl"
run cmp "$TRACE_DIR/serve_zero.jsonl" "$TRACE_DIR/trace_zero.jsonl"
# Real sockets differ only by the transport label (DESIGN.md §13): one
# compiled-FloodSet session over tcp and over uds writes the same trace
# once the transport name is masked — every `net_frame.bytes` included,
# which a non-canonical binary encoding would break — and `stats` parses
# the tcp trace back.
for transport in tcp uds; do
    run cargo run -q --release -p ftss-lab -- serve --protocol compile \
        --transport "$transport" --n 4 --rounds 12 --seed 3 \
        --out "$TRACE_DIR/serve_$transport.jsonl"
done
echo "==> serve: tcp and uds traces must agree modulo the transport label"
cmp <(sed 's/"transport":"[a-z]*"/"transport":"X"/' "$TRACE_DIR/serve_tcp.jsonl") \
    <(sed 's/"transport":"[a-z]*"/"transport":"X"/' "$TRACE_DIR/serve_uds.jsonl")
run cargo run -q --release -p ftss-lab -- stats --in "$TRACE_DIR/serve_tcp.jsonl"
run cargo run -q --release -p ftss-lab -- serve --protocol round-agreement \
    --transport tcp --storm default --epochs 2 --n 3 --seed 42 \
    --out "$TRACE_DIR/serve_storm.jsonl"
run grep -q '"type":"recovery_measured"' "$TRACE_DIR/serve_storm.jsonl"
echo "==> serve storm: every epoch must have recovered (no \"ok\":false)"
if grep '"type":"recovery_measured"' "$TRACE_DIR/serve_storm.jsonl" \
    | grep -q '"ok":false'; then
    echo "ERROR: a storm epoch failed to re-stabilize over TCP" >&2
    exit 1
fi

# Restart-storm smoke (DESIGN.md §15): a 3-node round agreement over
# REAL TCP through a kill/respawn episode — p0's thread dies at round 2,
# respawns from a damaged recovery snapshot, re-enters via an epoch'd
# mid-session hello — under the storm adversary's
# delay/duplicate/reorder storms. Every epoch must re-stabilize inside
# the Theorem-3 window (exit 0 plus an explicit "ok":false tripwire).
run cargo run -q --release -p ftss-lab -- serve --protocol round-agreement \
    --transport tcp --storm restart --epochs 2 --n 3 --seed 7 \
    --out "$TRACE_DIR/serve_restart.jsonl"
run grep -q '"type":"net_stale_frame"' "$TRACE_DIR/serve_restart.jsonl"
echo "==> serve restart: every epoch must have recovered (no \"ok\":false)"
if grep '"type":"recovery_measured"' "$TRACE_DIR/serve_restart.jsonl" \
    | grep -q '"ok":false'; then
    echo "ERROR: a restart epoch failed to re-stabilize over TCP" >&2
    exit 1
fi

# Restart soak smoke: the same episode cycled through the chaos engine
# on the mem transport (real router, real node threads). The report
# must be byte-identical across worker counts; it lands in the
# workspace so CI can upload it if a cell ever stops recovering.
run cargo run -q --release -p ftss-lab -- soak --plan restart --epochs 2 \
    --budget-ms 60000 --jobs 1 --out soak-restart-j1.soak.jsonl
run cargo run -q --release -p ftss-lab -- soak --plan restart --epochs 2 \
    --budget-ms 60000 --jobs 4 --out soak-restart-j4.soak.jsonl
run cmp soak-restart-j1.soak.jsonl soak-restart-j4.soak.jsonl

# Load-generator smoke: the latency report is integer-only and
# byte-deterministic; it lands in the workspace (not $TRACE_DIR) so CI
# uploads it as an artifact.
run cargo run -q --release -p ftss-lab -- loadgen --transport tcp --n 4 \
    --rounds 48 --seed 7 --out loadgen-tcp.latency.json
run grep -q '"p99"' loadgen-tcp.latency.json
run cargo run -q --release -p ftss-lab -- loadgen --transport mem --n 4 \
    --rounds 48 --seed 7 --out "$TRACE_DIR/loadgen_mem.latency.json"
echo "==> loadgen: mem and tcp reports must agree modulo the transport label"
diff <(sed 's/"transport":"[a-z]*"/"transport":"X"/' loadgen-tcp.latency.json) \
     <(sed 's/"transport":"[a-z]*"/"transport":"X"/' "$TRACE_DIR/loadgen_mem.latency.json")

# Hermeticity tripwire: no crate manifest may name a registry package.
if grep -rn 'rand\|proptest\|criterion\|serde\|crossbeam\|parking_lot\|bytes' \
    --include=Cargo.toml Cargo.toml crates/ \
    | grep -v '^[^:]*:[0-9]*:#' | grep -v 'ftss-rng'; then
    echo "ERROR: registry dependency found in a manifest" >&2
    exit 1
fi

echo "verify: all gates passed"
