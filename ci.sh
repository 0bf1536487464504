#!/usr/bin/env bash
# Tier-1 CI gate: build, test, lint, docs, format. Run from the repo root.
#
#   ./ci.sh          full gate (also runs the codec totality check over
#                    all 256 values per frame byte in release, the
#                    bitline-perf benchmark's tests, and one short
#                    full-size run each of headline,
#                    voltage, long-gcc and serve-mixed that must match the
#                    pinned stdout digests, simulated cycle totals and
#                    serve answer digest; lints and format-checks the
#                    benchmark package as well as the workspace; builds
#                    the workspace docs with warnings denied; and, next
#                    to clippy, fails when a Rust source outside a tests/
#                    directory reads a BITLINE_* variable through
#                    env::var/var_os other than BITLINE_INSTRS,
#                    BITLINE_SUITE, BITLINE_FAILPOINTS and
#                    BITLINE_FAILPOINT_SEED: every other run setting is a
#                    flag, and the retired variables BITLINE_JOBS,
#                    BITLINE_RUN_BUDGET, BITLINE_CHECKPOINT and
#                    BITLINE_NO_RESUME are only looked up by name, from
#                    one list (RETIRED_ENV in crates/sim/src/lib.rs), so
#                    the binaries can refuse them)
#   ./ci.sh chaos    failpoint chaos gate: proves a run with every
#                    failpoint armed at probability 0 is byte-identical
#                    to one with BITLINE_FAILPOINTS unset, then runs the
#                    seeded chaos soak (crates/serve/tests/chaos.rs) at
#                    BITLINE_CHAOS_SEED (default 42); set
#                    BITLINE_CHAOS_SECONDS to keep re-running the soak
#                    with incrementing seeds for that long
#   ./ci.sh smoke    timed headline smoke: runs the release bitline-sim's
#                    headline 3 times each at jobs=1 and jobs=N, fails if
#                    any figure differs, times each leg as its fastest
#                    run, and prints the wall-clock + run-cache artifact
#                    it writes to its temp dir (it rewrites no tracked
#                    file; BITLINE_BLESS=1 ./ci.sh smoke also replaces
#                    BENCH_headline.json with it and rewrites the
#                    <!-- ci:headline --> lines of README.md and
#                    ROADMAP.md); then a 400k-instruction -b gcc
#                    run must hold at most 2 trace segments in its
#                    window; then exercises run supervision:
#                    a tiny --run-budget must surface as timed-out, for a
#                    single run and for the fig9 experiment alike (never
#                    as a caught panic), and a SIGKILL-interrupted
#                    --checkpoint sweep must resume to
#                    byte-identical output without recomputing journaled
#                    runs, its journal at most 1.5x the bytes per frame
#                    codec v8 writes there (so a return to fixed-width
#                    frame leaves fails); finally a metrics leg: an instrumented figure
#                    run must export schema-valid bitline-obs/v1 JSONL
#                    with the expected counter families moving, produce
#                    identical stdout, and cost no more than 2% (+ fixed
#                    slack) over the same run with metrics off; finally a
#                    reliability leg: the SECDED table on mesa must be
#                    byte-identical at jobs=1 vs jobs=N with the ecc.*
#                    counter family present, moving, and equal across
#                    job counts; finally a serve leg: the bitline-serve
#                    daemon must dedup identical in-flight requests,
#                    answer byte-identically from the journal after a
#                    SIGKILL+restart without recomputing, shed overload
#                    with positive retry_after_ms hints, and exit 0 on
#                    a SIGTERM drain
#   ./ci.sh hierarchy
#                    multi-level gate: the hierarchy table (node x
#                    levels x leakage mode) must be byte-identical to
#                    the blessed golden and across jobs=1 vs jobs=N,
#                    and a single-level sweep must render identical
#                    bytes whether the binary carries the hierarchy
#                    flags at their defaults or not at all; a journaled
#                    3-level undervolted ECC sweep must replay every run
#                    warm to the same bytes; and a drowsy:100 policy on
#                    mesa must save D and I energy under every leakage
#                    mode, drowsy and gated-vdd cells no less than
#                    full-vdd ones
#   ./ci.sh traces   trace memory gate (also part of the full gate): at
#                    the golden budget with --jobs 1, voltage, headline
#                    and ablations must never retain more than one
#                    4 096-instruction trace segment at once (32 KiB at
#                    the 8 B/instr bound the trace store's tests pin), read
#                    from the exec.traces.retained_peak_bytes gauge of a
#                    --metrics export: each unit of work frees its
#                    benchmark's stream when it returns
#   ./ci.sh voltage  supply gate: the voltage table (node x Vdd step x
#                    static/governor) must be byte-identical to the
#                    blessed golden and across jobs=1 vs jobs=N; an
#                    explicit --vdd 1.0 must leave a sweep byte-identical
#                    to one that never mentions the supply; and a forced
#                    deep undervolt under the governor must escalate the
#                    guardband ladder with vdd.* counters identical
#                    across job counts
set -euo pipefail
cd "$(dirname "$0")"

smoke() {
    local instrs="${BITLINE_INSTRS:-4000}"
    local jobs_n
    jobs_n="$(nproc 2>/dev/null || echo 4)"
    # A single-core box would make the parallel leg vacuous; the workers
    # are about determinism, not speed, so oversubscribe.
    if [[ "$jobs_n" -lt 2 ]]; then jobs_n=4; fi

    echo "==> smoke: build the release bitline-sim"
    cargo build --release -q -p bitline-sim
    local sim=./target/release/bitline-sim

    SMOKE_TMP="$(mktemp -d)"
    trap 'rm -rf "$SMOKE_TMP"' EXIT
    # Each leg is timed as the fastest of 3 runs, as bitline-perf reports
    # its fastest unit: a single reading mostly measures host noise. The
    # fastest run's stdout, stderr and metrics stand for the leg.
    local secs_serial secs_parallel
    echo "==> smoke: headline at jobs=1 (BITLINE_INSTRS=$instrs), fastest of 3"
    secs_serial=$(fastest_headline "$sim" "$instrs" 1 "$SMOKE_TMP/serial")
    echo "==> smoke: headline at jobs=$jobs_n, fastest of 3"
    secs_parallel=$(fastest_headline "$sim" "$instrs" "$jobs_n" "$SMOKE_TMP/parallel")
    local out_serial="$SMOKE_TMP/serial.out" err_parallel="$SMOKE_TMP/parallel.err"

    echo "==> smoke: comparing figure output"
    local out
    for out in "$SMOKE_TMP"/{serial,parallel}.[123].out; do
        if ! diff -u "$out_serial" "$out"; then
            echo "==> smoke: FAIL — headline output depends on the job count" >&2
            exit 1
        fi
    done

    # bitline-sim reports "jobs=N; run-cache: H hits, M misses, ..." on
    # stderr; pull the parallel run's cache stats into the report.
    local hits misses
    hits=$(sed -n 's/.*run-cache: \([0-9]*\) hits.*/\1/p' "$err_parallel" | tail -n 1)
    misses=$(sed -n 's/.*hits, \([0-9]*\) misses.*/\1/p' "$err_parallel" | tail -n 1)

    # Serial throughput gate. MIPS comes from the runner's own counters
    # (committed instructions over hot-loop wall time, excluding setup and
    # reporting), so the gate measures the core, not process start-up.
    local committed busy mips_serial
    committed=$(metric_value "$SMOKE_TMP/serial.jsonl" sim.runner.committed_instructions)
    busy=$(metric_value "$SMOKE_TMP/serial.jsonl" sim.runner.busy_micros)
    if [[ "$busy" -eq 0 ]]; then
        echo "==> smoke: FAIL — serial metrics export carries no sim.runner.busy_micros" >&2
        exit 1
    fi
    mips_serial=$(awk -v c="$committed" -v b="$busy" 'BEGIN {printf "%.3f", c / b}')
    # The pre-SoA pointer-chasing core sustained ~0.45 MIPS here; the
    # data-oriented rewrite must hold at least 2x that. Override the
    # floor (BITLINE_MIPS_FLOOR) when smoking on much slower hardware.
    local mips_floor="${BITLINE_MIPS_FLOOR:-0.9}"
    if ! awk -v m="$mips_serial" -v f="$mips_floor" 'BEGIN {exit !(m >= f)}'; then
        echo "==> smoke: FAIL — serial throughput $mips_serial MIPS" \
            "($committed instrs / ${busy}us busy) is below the $mips_floor MIPS floor" \
            "(2x the ~0.45 MIPS pre-SoA core) — the hot loop regressed" >&2
        exit 1
    fi

    # Parallel-scaling gate, normalised by the cores that can actually
    # run: efficiency = speedup / min(jobs, nproc). On a single-core box
    # the parallel leg proves determinism rather than speed, so the
    # divisor degrades to 1 and the gate checks for pool overhead only.
    local ncores eff_jobs scaling_efficiency
    ncores="$(nproc 2>/dev/null || echo 1)"
    eff_jobs=$(( jobs_n < ncores ? jobs_n : ncores ))
    scaling_efficiency=$(awk -v s="$secs_serial" -v p="$secs_parallel" -v j="$eff_jobs" \
        'BEGIN {printf "%.3f", s / (p * j)}')
    local eff_floor="${BITLINE_EFF_FLOOR:-0.8}"
    if ! awk -v e="$scaling_efficiency" -v f="$eff_floor" 'BEGIN {exit !(e >= f)}'; then
        echo "==> smoke: FAIL — parallel efficiency $scaling_efficiency at jobs=$jobs_n" \
            "(${secs_serial}s -> ${secs_parallel}s on $eff_jobs usable cores)" \
            "is below the $eff_floor floor — sweep scaling regressed" >&2
        exit 1
    fi

    # The artifact is this host's timings: printed, and kept in the temp
    # dir. Only a bless replaces the committed copy and the doc markers.
    local artifact="$SMOKE_TMP/BENCH_headline.json"
    cat >"$artifact" <<EOF
{
  "bench": "headline",
  "instructions": $instrs,
  "jobs_parallel": $jobs_n,
  "seconds_serial": $secs_serial,
  "seconds_parallel": $secs_parallel,
  "mips_serial": $mips_serial,
  "scaling_efficiency": $scaling_efficiency,
  "run_cache_hits": ${hits:-0},
  "run_cache_misses": ${misses:-0},
  "output_identical": true
}
EOF
    echo "==> smoke: serial ${secs_serial}s (${mips_serial} MIPS)," \
        "parallel(${jobs_n}) ${secs_parallel}s (efficiency ${scaling_efficiency})"
    cat "$artifact"

    if [[ "${BITLINE_BLESS:-}" == 1 ]]; then
        # Temp-file + rename in the same directory: a crash mid-write
        # never leaves a truncated BENCH_headline.json behind.
        cp "$artifact" "BENCH_headline.json.tmp.$$"
        mv "BENCH_headline.json.tmp.$$" BENCH_headline.json
        # Keep the quoted headline figures in the docs honest: any line
        # tagged <!-- ci:headline --> is rewritten from the artifact, so
        # README/ROADMAP never drift from BENCH_headline.json.
        local headline doc
        headline="Headline bench (fastest of 3): ${secs_serial}s serial (${mips_serial} MIPS), \
${secs_parallel}s at jobs=${jobs_n}, scaling efficiency ${scaling_efficiency} \
(regenerated by \`BITLINE_BLESS=1 ./ci.sh smoke\`). <!-- ci:headline -->"
        for doc in README.md ROADMAP.md; do
            if grep -q 'ci:headline' "$doc"; then
                sed -i "s|^\( *\).*<!-- ci:headline -->.*$|\1$headline|" "$doc"
            fi
        done
        echo "==> smoke: blessed BENCH_headline.json and the ci:headline lines"
    fi

    window_smoke "$sim"
    resume_smoke "$instrs" "$jobs_n"
}

# A single-benchmark run reads its trace through one window shared by the
# policy run and its static baseline: however long the run, the window
# holds at most the two segments between the slower run and the faster.
window_smoke() {
    local sim="$1"
    echo "==> smoke: a 400k-instruction -b gcc run holds at most 2 trace segments"
    local win_json="$SMOKE_TMP/window.jsonl" win_err="$SMOKE_TMP/window.err"
    if ! "$sim" -b gcc -i 400000 --metrics "$win_json" >/dev/null 2>"$win_err"; then
        echo "==> smoke: FAIL — the 400k-instruction gcc run exited non-zero" >&2
        cat "$win_err" >&2
        exit 1
    fi
    local segments
    segments=$(metric_value "$win_json" exec.traces.window_peak_segments)
    if [[ "$segments" -lt 1 || "$segments" -gt 2 ]]; then
        echo "==> smoke: FAIL — the gcc pair's window held $segments segments (want 1 or 2)" >&2
        cat "$win_err" >&2
        exit 1
    fi
    if ! grep -q "1 windowed, at most $segments segments" "$win_err"; then
        echo "==> smoke: FAIL — the exec line on stderr does not report the window" >&2
        cat "$win_err" >&2
        exit 1
    fi
    # The pair's cursors own the stream: one window is counted, and no
    # stream is retained beside it.
    local windows retained
    windows=$(metric_value "$win_json" exec.traces.windows)
    retained=$(metric_value "$win_json" exec.traces.retained_peak_bytes)
    if [[ "$windows" != 1 || "$retained" != 0 ]]; then
        echo "==> smoke: FAIL — the gcc pair read $windows windows (want 1) and retained" \
            "$retained B of trace (want 0)" >&2
        cat "$win_err" >&2
        exit 1
    fi
    echo "==> smoke: window OK — at most $segments segments held, one window, none retained"
}

# Runs the headline 3 times at JOBS workers with metrics on, and prints the
# fastest wall time in seconds. Run r leaves PREFIX.r.{out,err,jsonl}; the
# fastest run's files are copied to PREFIX.{out,err,jsonl}.
fastest_headline() {
    local sim=$1 instrs=$2 jobs=$3 prefix=$4
    local r t0 t1 secs best=""
    for r in 1 2 3; do
        t0=$(date +%s.%N)
        if ! BITLINE_INSTRS="$instrs" "$sim" --jobs "$jobs" --metrics "$prefix.$r.jsonl" \
            headline >"$prefix.$r.out" 2>"$prefix.$r.err"; then
            echo "==> smoke: FAIL — headline at jobs=$jobs exited non-zero" >&2
            cat "$prefix.$r.err" >&2
            return 1
        fi
        t1=$(date +%s.%N)
        secs=$(echo "$t1 $t0" | awk '{printf "%.3f", $1 - $2}')
        if [[ -z $best ]] || awk -v s="$secs" -v b="$best" 'BEGIN {exit !(s < b)}'; then
            best=$secs
            local ext
            for ext in out err jsonl; do cp "$prefix.$r.$ext" "$prefix.$ext"; done
        fi
    done
    echo "$best"
}

resume_smoke() {
    local instrs="$1" jobs_n="$2"
    local sim=./target/debug/bitline-sim
    echo "==> smoke: build bitline-sim"
    cargo build -q -p bitline-sim

    echo "==> smoke: a run over budget surfaces as timed-out"
    local to_err="$SMOKE_TMP/timeout.err"
    if "$sim" -b gcc -i 500000 --run-budget 0.001ms >/dev/null 2>"$to_err"; then
        echo "==> smoke: FAIL — a 1us budget cannot complete a 500k-instruction run" >&2
        exit 1
    fi
    if ! grep -q "timed-out" "$to_err" || ! grep -q "2 attempt" "$to_err"; then
        echo "==> smoke: FAIL — timeout must be reported as timed-out after 2 attempts" >&2
        cat "$to_err" >&2
        exit 1
    fi

    echo "==> smoke: an experiment over budget surfaces as timed-out, not as a panic"
    local fig_err="$SMOKE_TMP/timeout-fig9.err"
    if "$sim" --run-budget 0.001ms fig9 >/dev/null 2>"$fig_err"; then
        echo "==> smoke: FAIL — a 1us budget cannot complete fig9" >&2
        exit 1
    fi
    if ! grep -q "timed-out" "$fig_err" || ! grep -q "2 attempt" "$fig_err" ||
        grep -q "panicked at" "$fig_err"; then
        echo "==> smoke: FAIL — fig9's timeout must read timed-out after 2 attempts, with no panic" >&2
        cat "$fig_err" >&2
        exit 1
    fi

    echo "==> smoke: resume — reference sweep (no checkpoint)"
    local ref="$SMOKE_TMP/ref.out" ckpt="$SMOKE_TMP/ckpt"
    "$sim" -b all -i "$instrs" -j "$jobs_n" >"$ref" 2>/dev/null

    echo "==> smoke: resume — cold sweep SIGKILLed mid-flight"
    "$sim" -b all -i "$instrs" -j 1 --checkpoint "$ckpt" >/dev/null 2>&1 &
    local pid=$!
    sleep 0.3
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true

    echo "==> smoke: resume — restarted sweep completes from the journal"
    local resumed="$SMOKE_TMP/resumed.out"
    "$sim" -b all -i "$instrs" -j "$jobs_n" --checkpoint "$ckpt" \
        >"$resumed" 2>"$SMOKE_TMP/resumed.err"
    if ! diff -u "$ref" "$resumed"; then
        echo "==> smoke: FAIL — resumed sweep differs from the uncheckpointed reference" >&2
        exit 1
    fi

    echo "==> smoke: resume — warm sweep replays every journaled run"
    local warm="$SMOKE_TMP/warm.out" warm_err="$SMOKE_TMP/warm.err"
    "$sim" -b all -i "$instrs" -j "$jobs_n" --checkpoint "$ckpt" >"$warm" 2>"$warm_err"
    if ! diff -u "$ref" "$warm"; then
        echo "==> smoke: FAIL — warm sweep differs from the reference" >&2
        exit 1
    fi
    local replayed recomputed
    replayed=$(sed -n 's/.*journal: \([0-9]*\) replayed.*/\1/p' "$warm_err" | tail -n 1)
    recomputed=$(sed -n 's/.*appended, \([0-9]*\) recomputed.*/\1/p' "$warm_err" | tail -n 1)
    if [[ -z "$replayed" || "$replayed" -eq 0 ]]; then
        echo "==> smoke: FAIL — warm sweep replayed nothing from the journal" >&2
        cat "$warm_err" >&2
        exit 1
    fi
    if [[ -z "$recomputed" || "$recomputed" -ne 0 ]]; then
        echo "==> smoke: FAIL — warm sweep recomputed ${recomputed:-?} journaled run(s)" >&2
        cat "$warm_err" >&2
        exit 1
    fi
    # Codec v8 frames (varint integers, short whole floats) take 1 052 B
    # each here with their keys and framing, v7's fixed-width leaves took
    # 4 816: a journal above 1.5x the v8 average has lost the dense leaves.
    local appended frames per_frame
    appended=$(sed -n 's/.*replayed, \([0-9]*\) appended.*/\1/p' "$warm_err" | tail -n 1)
    frames=$((replayed + appended))
    per_frame=$((($(wc -c <"$ckpt/runs.journal") - 8) / frames))
    echo "==> smoke: resume — journal holds $frames frames, $per_frame B per frame"
    if [[ "$per_frame" -gt 1578 ]]; then
        echo "==> smoke: FAIL — $per_frame B per journal frame, above 1.5x codec v8's 1052 B" >&2
        exit 1
    fi
    echo "==> smoke: resume OK — $replayed runs replayed, 0 recomputed"

    metrics_smoke "$instrs" "$jobs_n"
}

# Extracts one counter's value from a bitline-obs/v1 JSONL file (0 when absent).
metric_value() {
    local file="$1" name="$2" v
    v=$(sed -n 's/.*"name":"'"$name"'","value":\([0-9]*\).*/\1/p' "$file" | head -n 1)
    echo "${v:-0}"
}

metrics_smoke() {
    local instrs="$1" jobs_n="$2"
    local sim=./target/debug/bitline-sim

    echo "==> smoke: metrics — fig3 with metrics off (reference timing)"
    local off_out="$SMOKE_TMP/metrics-off.out" t0 t1 secs_off secs_on
    t0=$(date +%s.%N)
    BITLINE_SUITE=mesa,bisort BITLINE_INSTRS="$instrs" \
        "$sim" -j "$jobs_n" fig3 >"$off_out" 2>/dev/null
    t1=$(date +%s.%N)
    secs_off=$(echo "$t1 $t0" | awk '{printf "%.3f", $1 - $2}')

    echo "==> smoke: metrics — fig3 instrumented (--metrics + --checkpoint)"
    local mjson="$SMOKE_TMP/metrics.jsonl" on_out="$SMOKE_TMP/metrics-on.out"
    local mckpt="$SMOKE_TMP/metrics-ckpt"
    t0=$(date +%s.%N)
    BITLINE_SUITE=mesa,bisort BITLINE_INSTRS="$instrs" \
        "$sim" -j "$jobs_n" --metrics "$mjson" --checkpoint "$mckpt" fig3 \
        >"$on_out" 2>/dev/null
    t1=$(date +%s.%N)
    secs_on=$(echo "$t1 $t0" | awk '{printf "%.3f", $1 - $2}')

    if ! diff -u "$off_out" "$on_out"; then
        echo "==> smoke: FAIL — figure output must be byte-identical with metrics on" >&2
        exit 1
    fi

    echo "==> smoke: metrics — validating $mjson against the exporter schema"
    if ! "$sim" --validate-metrics "$mjson"; then
        echo "==> smoke: FAIL — exported metrics are not schema-valid" >&2
        exit 1
    fi

    # The counter families the figure run must have moved: pool units
    # (scheduling), run-cache misses (memoisation), journal appends
    # (checkpointing), committed instructions (the runner itself).
    local name v
    for name in exec.pool.units sim.run_cache.misses exec.journal.appends \
        sim.runner.committed_instructions sim.harness.ok; do
        v=$(metric_value "$mjson" "$name")
        if [[ "$v" -eq 0 ]]; then
            echo "==> smoke: FAIL — counter $name did not move (value $v)" >&2
            exit 1
        fi
    done
    # The full taxonomy is declared even when untouched.
    for name in faults.d.injected sim.checkpoint.replayed; do
        if ! grep -q "\"name\":\"$name\"" "$mjson"; then
            echo "==> smoke: FAIL — declared counter $name missing from export" >&2
            exit 1
        fi
    done

    echo "==> smoke: metrics — faulted run moves the faults.* family"
    local fjson="$SMOKE_TMP/metrics-faults.jsonl" fault_events
    "$sim" -b mesa -i "$instrs" --fault-rate 0.05 --metrics "$fjson" >/dev/null 2>&1
    fault_events=$(grep '"name":"faults\.' "$fjson" \
        | sed 's/.*"value":\([0-9]*\).*/\1/' | awk '{s+=$1} END {print s+0}')
    if [[ "$fault_events" -eq 0 ]]; then
        echo "==> smoke: FAIL — fault injection left every faults.* counter at zero" >&2
        exit 1
    fi

    # Instrumentation overhead budget: <=2% over metrics-off, plus a fixed
    # 0.25s slack so scheduler noise on a tiny run cannot flake the gate.
    if ! echo "$secs_on $secs_off" | awk '{exit !($1 <= $2 * 1.02 + 0.25)}'; then
        echo "==> smoke: FAIL — instrumented run ${secs_on}s vs ${secs_off}s off exceeds 2% + 0.25s" >&2
        exit 1
    fi
    echo "==> smoke: metrics OK — off ${secs_off}s, on ${secs_on}s, $fault_events fault events"

    reliability_smoke "$instrs" "$jobs_n"
}

reliability_smoke() {
    local instrs="$1" jobs_n="$2"
    local sim=./target/debug/bitline-sim

    echo "==> smoke: reliability — table at jobs=1 vs jobs=$jobs_n (mesa, 70nm rates)"
    local rel1="$SMOKE_TMP/rel1.out" relN="$SMOKE_TMP/relN.out"
    local rj1="$SMOKE_TMP/rel1.jsonl" rjN="$SMOKE_TMP/relN.jsonl"
    BITLINE_SUITE=mesa BITLINE_INSTRS="$instrs" \
        "$sim" -j 1 --fault-rate 0.05 --fault-seed 7 --metrics "$rj1" reliability \
        >"$rel1" 2>/dev/null
    BITLINE_SUITE=mesa BITLINE_INSTRS="$instrs" \
        "$sim" -j "$jobs_n" --fault-rate 0.05 --fault-seed 7 --metrics "$rjN" reliability \
        >"$relN" 2>/dev/null

    if ! diff -u "$rel1" "$relN"; then
        echo "==> smoke: FAIL — reliability table depends on the job count" >&2
        exit 1
    fi

    echo "==> smoke: reliability — validating metrics export"
    if ! "$sim" --validate-metrics "$rj1"; then
        echo "==> smoke: FAIL — reliability metrics are not schema-valid" >&2
        exit 1
    fi

    # The ECC runs inside the table must move the ecc.* family, and the
    # counters must agree exactly across job counts (pure function of the
    # work, not the schedule).
    local name v1 vN moved=0
    for name in ecc.d.corrected ecc.d.due ecc.d.sdc ecc.d.scrub_words \
        ecc.d.latent_cleared ecc.d.fail_safe_subarrays ecc.i.corrected \
        ecc.i.scrub_words; do
        v1=$(metric_value "$rj1" "$name")
        vN=$(metric_value "$rjN" "$name")
        if ! grep -q "\"name\":\"$name\"" "$rj1"; then
            echo "==> smoke: FAIL — counter $name missing from reliability export" >&2
            exit 1
        fi
        if [[ "$v1" -ne "$vN" ]]; then
            echo "==> smoke: FAIL — $name differs across job counts ($v1 vs $vN)" >&2
            exit 1
        fi
        moved=$((moved + v1))
    done
    if [[ "$moved" -eq 0 ]]; then
        echo "==> smoke: FAIL — a faulted reliability table left every ecc.* counter at zero" >&2
        exit 1
    fi
    echo "==> smoke: reliability OK — ecc.* totals identical across jobs ($moved events)"

    serve_smoke "$instrs"
}

# Extracts one field's value from a serve stats response line (empty when absent).
serve_stat() {
    local line="$1" name="$2"
    echo "$line" | sed -n 's/.*"'"$name"'":\([0-9]*\).*/\1/p'
}

serve_smoke() {
    local instrs="$1"
    local serve=./target/debug/bitline-serve
    echo "==> smoke: serve — build bitline-serve"
    cargo build -q -p bitline-serve

    local sock="$SMOKE_TMP/serve.sock" sckpt="$SMOKE_TMP/serve-ckpt"
    local slow_req='{"id":"slow","benchmark":"gcc","spec":{"instructions":60000}}'
    local same_req='{"id":"IDN","benchmark":"mesa","spec":{"instructions":'"$instrs"'}}'

    wait_for_socket() {
        for _ in $(seq 1 200); do
            [[ -S "$1" ]] && return 0
            sleep 0.05
        done
        echo "==> smoke: FAIL — daemon never bound $1" >&2
        exit 1
    }

    echo "==> smoke: serve — daemon 1: dedup under a busy single worker"
    "$serve" --serve --socket "$sock" --checkpoint "$sckpt" --jobs 1 \
        2>"$SMOKE_TMP/serve1.err" &
    local pid=$!
    wait_for_socket "$sock"
    # The slow distinct request is written first, so with one worker the
    # three identical requests land while it runs: one queues, two dedup.
    local cold="$SMOKE_TMP/serve-cold.out"
    timeout 60 "$serve" --socket "$sock" \
        --request "$slow_req" \
        --request "${same_req//IDN/r1}" \
        --request "${same_req//IDN/r2}" \
        --request "${same_req//IDN/r3}" >"$cold"
    local stats deduped accepted
    stats=$(timeout 60 "$serve" --socket "$sock" --stats)
    deduped=$(serve_stat "$stats" deduped)
    accepted=$(serve_stat "$stats" accepted)
    if [[ "${deduped:-0}" -ne 2 || "${accepted:-0}" -ne 2 ]]; then
        echo "==> smoke: FAIL — expected 2 accepted / 2 deduped, got ${accepted:-?}/${deduped:-?}" >&2
        echo "$stats" >&2
        exit 1
    fi

    echo "==> smoke: serve — SIGKILL, restart on the same journal, resubmit"
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    # SIGKILL leaves the stale socket file behind; drop it so the socket's
    # reappearance below means the restarted daemon is listening.
    rm -f "$sock"
    "$serve" --serve --socket "$sock" --checkpoint "$sckpt" --jobs 1 \
        2>"$SMOKE_TMP/serve2.err" &
    pid=$!
    wait_for_socket "$sock"
    local warm="$SMOKE_TMP/serve-warm.out"
    timeout 60 "$serve" --socket "$sock" \
        --request "$slow_req" \
        --request "${same_req//IDN/r1}" \
        --request "${same_req//IDN/r2}" \
        --request "${same_req//IDN/r3}" >"$warm"
    # Responses arrive in completion order, which differs cold vs warm;
    # the lines themselves must be byte-identical.
    if ! diff -u <(sort "$cold") <(sort "$warm"); then
        echo "==> smoke: FAIL — warm responses differ from the cold run" >&2
        exit 1
    fi
    stats=$(timeout 60 "$serve" --socket "$sock" --stats)
    local replayed recomputed
    replayed=$(serve_stat "$stats" replayed)
    recomputed=$(serve_stat "$stats" recomputed)
    if [[ -z "$replayed" || "$replayed" -eq 0 || "${recomputed:-1}" -ne 0 ]]; then
        echo "==> smoke: FAIL — restart must answer from the journal (replayed=${replayed:-?}, recomputed=${recomputed:-?})" >&2
        echo "$stats" >&2
        exit 1
    fi
    echo "==> smoke: serve — warm restart OK ($replayed replayed, 0 recomputed)"
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true

    echo "==> smoke: serve — daemon 2: overload sheds with retry hints, SIGTERM drains"
    rm -f "$sock"
    "$serve" --serve --socket "$sock" --queue-depth 1 --jobs 1 \
        2>"$SMOKE_TMP/serve3.err" &
    pid=$!
    wait_for_socket "$sock"
    # Occupy the worker with a long run, then burst three quick distinct
    # requests at the 1-deep queue: one queues, two must shed.
    local burst="$SMOKE_TMP/serve-burst.out"
    timeout 60 "$serve" --socket "$sock" \
        --request '{"id":"long","benchmark":"gcc","spec":{"instructions":500000}}' \
        >"$SMOKE_TMP/serve-long.out" &
    local long_pid=$!
    sleep 0.3
    timeout 60 "$serve" --socket "$sock" \
        --request '{"id":"q1","benchmark":"mesa","spec":{"instructions":'"$instrs"',"seed":1}}' \
        --request '{"id":"q2","benchmark":"mesa","spec":{"instructions":'"$instrs"',"seed":2}}' \
        --request '{"id":"q3","benchmark":"mesa","spec":{"instructions":'"$instrs"',"seed":3}}' \
        >"$burst"
    local sheds hints
    sheds=$(grep -c '"status":"shed"' "$burst" || true)
    if [[ "$sheds" -ne 2 ]]; then
        echo "==> smoke: FAIL — expected 2 sheds from a 1-deep queue, got $sheds" >&2
        cat "$burst" >&2
        exit 1
    fi
    hints=$(sed -n 's/.*"retry_after_ms":\([0-9]*\).*/\1/p' "$burst" | awk '$1 < 1' | wc -l)
    if [[ "$hints" -ne 0 ]]; then
        echo "==> smoke: FAIL — a shed response carried no positive retry_after_ms" >&2
        cat "$burst" >&2
        exit 1
    fi
    wait "$long_pid"
    kill -TERM "$pid" 2>/dev/null || true
    if ! wait "$pid"; then
        echo "==> smoke: FAIL — SIGTERM drain must exit 0" >&2
        cat "$SMOKE_TMP/serve3.err" >&2
        exit 1
    fi
    echo "==> smoke: serve OK — dedup, warm restart, shedding, and drain all verified"
}

chaos() {
    local seed="${BITLINE_CHAOS_SEED:-42}"
    local instrs="${BITLINE_INSTRS:-2000}"
    CHAOS_TMP="$(mktemp -d)"
    trap 'rm -rf "$CHAOS_TMP"' EXIT

    echo "==> chaos: build bitline-sim and the chaos test harness"
    cargo build -q -p bitline-sim
    cargo test -q -p bitline-serve --test chaos --no-run

    # Disarmed-identity gate: arming every wired seam at probability 0
    # must leave the product bit-for-bit alone — the instrumentation is
    # free when it cannot fire.
    echo "==> chaos: disarmed identity — armed-at-@0 sweep vs unset"
    local sim=./target/debug/bitline-sim
    local ref="$CHAOS_TMP/ref.out" armed="$CHAOS_TMP/armed.out"
    "$sim" -b all -i "$instrs" -j 2 --checkpoint "$CHAOS_TMP/ref-ckpt" \
        >"$ref" 2>/dev/null
    BITLINE_FAILPOINTS='journal.append.write=shortwrite(5)@0;journal.append.fsync=err(EIO)@0;checkpoint.record=err(ENOSPC)@0;journal.atomic_write=err(ENOSPC)@0;pool.worker=delay(1ms)@0;traces.materialise=delay(1ms)@0;sim.run=panic@0' \
        "$sim" -b all -i "$instrs" -j 2 --checkpoint "$CHAOS_TMP/armed-ckpt" \
        >"$armed" 2>/dev/null
    if ! diff -u "$ref" "$armed"; then
        echo "==> chaos: FAIL — armed-at-@0 failpoints changed the output" >&2
        exit 1
    fi

    echo "==> chaos: soak at seed $seed"
    BITLINE_CHAOS_SEED="$seed" cargo test -q -p bitline-serve --test chaos

    # Soak mode: keep replaying the same schedule shape under fresh seeds
    # until the budget runs out; any seed that breaks an invariant is
    # reproducible by exporting it as BITLINE_CHAOS_SEED.
    if [[ -n "${BITLINE_CHAOS_SECONDS:-}" ]]; then
        local t_end=$((SECONDS + BITLINE_CHAOS_SECONDS))
        local iterations=0
        while [[ "$SECONDS" -lt "$t_end" ]]; do
            seed=$((seed + 1))
            iterations=$((iterations + 1))
            echo "==> chaos: soak iteration $iterations (seed $seed)"
            BITLINE_CHAOS_SEED="$seed" cargo test -q -p bitline-serve --test chaos
        done
        echo "==> chaos: soaked $iterations extra seed(s) in ${BITLINE_CHAOS_SECONDS}s"
    fi
    echo "==> chaos: OK — disarmed identity held, soak green (last seed $seed)"
}

hierarchy() {
    local instrs="${BITLINE_INSTRS:-2000}"
    local jobs_n
    jobs_n="$(nproc 2>/dev/null || echo 4)"
    if [[ "$jobs_n" -lt 2 ]]; then jobs_n=4; fi
    HIER_TMP="$(mktemp -d)"
    trap 'rm -rf "$HIER_TMP"' EXIT

    echo "==> hierarchy: build bitline-sim"
    cargo build -q -p bitline-sim
    local sim=./target/debug/bitline-sim

    # The golden is blessed on the two smallest workloads at 2000
    # instructions (crates/sim/tests/goldens.rs); the same
    # configuration here must reproduce it byte-for-byte from the CLI.
    echo "==> hierarchy: table at jobs=1 vs the blessed golden"
    local h1="$HIER_TMP/h1.dat" hN="$HIER_TMP/hN.dat"
    BITLINE_SUITE=mesa,bisort BITLINE_INSTRS="$instrs" \
        "$sim" -j 1 hierarchy >"$h1" 2>/dev/null
    if ! diff -u crates/sim/tests/goldens/hierarchy.dat "$h1"; then
        echo "==> hierarchy: FAIL — the CLI table drifted from the blessed golden" >&2
        exit 1
    fi

    echo "==> hierarchy: table at jobs=$jobs_n"
    BITLINE_SUITE=mesa,bisort BITLINE_INSTRS="$instrs" \
        "$sim" -j "$jobs_n" hierarchy >"$hN" 2>/dev/null
    if ! diff -u "$h1" "$hN"; then
        echo "==> hierarchy: FAIL — the hierarchy table depends on the job count" >&2
        exit 1
    fi

    # Inertness: the default hierarchy flags must leave a single-level
    # sweep byte-identical to one that never mentions them.
    echo "==> hierarchy: single-level inertness under default flags"
    local bare="$HIER_TMP/bare.out" flagged="$HIER_TMP/flagged.out"
    "$sim" -b all -i "$instrs" -j "$jobs_n" >"$bare" 2>/dev/null
    "$sim" -b all -i "$instrs" -j "$jobs_n" \
        --levels 1 --leakage-mode full-vdd >"$flagged" 2>/dev/null
    if ! diff -u "$bare" "$flagged"; then
        echo "==> hierarchy: FAIL — default hierarchy flags changed single-level output" >&2
        exit 1
    fi

    # A deep, mode-priced run must actually report the outer levels.
    echo "==> hierarchy: 3-level drowsy run reports L2 and L3"
    local deep="$HIER_TMP/deep.out"
    "$sim" -b gcc -i "$instrs" --levels 3 --l2-policy gated:100 \
        --leakage-mode drowsy >"$deep" 2>/dev/null
    if ! grep -q "L2:" "$deep" || ! grep -q "L3:" "$deep"; then
        echo "==> hierarchy: FAIL — a 3-level run must print L2 and L3 lines" >&2
        cat "$deep" >&2
        exit 1
    fi

    # A leakage mode composes with a drowsy precharge policy: the cells a
    # policy holds at retention voltage leak less under every mode, so each
    # mode saves energy, and the sleep modes, which leave retention cycles
    # as they are, save no less than full-Vdd cells.
    echo "==> hierarchy: a drowsy policy keeps its savings under every leakage mode"
    local mode d i full_d="" full_i=""
    for mode in full-vdd drowsy gated-vdd 6t-lp; do
        read -r d i < <("$sim" -b mesa -i 20000 -p drowsy:100 --levels 2 --leakage-mode "$mode" \
            2>/dev/null | awk '$1 == "D:" || $1 == "I:" { sub("%", "", $NF); printf "%s ", $NF }
                END { print "" }')
        echo "    $mode: D / I energy saved ${d:-?}% / ${i:-?}%"
        if [[ "$mode" == full-vdd ]]; then full_d="$d" full_i="$i"; fi
        if ! awk -v d="$d" -v i="$i" -v full_d="$full_d" -v full_i="$full_i" -v mode="$mode" 'BEGIN {
            if (d == "" || i == "" || d <= 0 || i <= 0) exit 1
            if ((mode == "drowsy" || mode == "gated-vdd") && (d < full_d || i < full_i)) exit 1
        }'; then
            echo "==> hierarchy: FAIL — $mode cells lose a drowsy policy's savings" \
                "(D / I $d% / $i% vs full-vdd $full_d% / $full_i%)" >&2
            exit 1
        fi
    done

    # Every per-level record (L2/L3, faults, ECC, Vdd, way prediction) must
    # survive the journal codec: a warm rerun replays every run to the
    # bytes of an unjournaled one.
    echo "==> hierarchy: journaled 3-level undervolted ECC sweep"
    local flags=(-b all -i "$instrs" --levels 3 --l2-policy gated:100 --leakage-mode drowsy
        --vdd 0.8 --vdd-governor --ecc --fault-rate 0.01 --way-prediction)
    local ckpt="$HIER_TMP/ckpt" appended
    "$sim" "${flags[@]}" >"$HIER_TMP/plain.out" 2>/dev/null
    "$sim" "${flags[@]}" --checkpoint "$ckpt" >"$HIER_TMP/cold.out" 2>"$HIER_TMP/cold.err"
    "$sim" "${flags[@]}" --checkpoint "$ckpt" >"$HIER_TMP/warm.out" 2>"$HIER_TMP/warm.err"
    appended=$(sed -n 's/.*replayed, \([0-9]*\) appended.*/\1/p' "$HIER_TMP/cold.err" | tail -n 1)
    if ! diff -u "$HIER_TMP/plain.out" "$HIER_TMP/cold.out" ||
        ! diff -u "$HIER_TMP/plain.out" "$HIER_TMP/warm.out" || [[ "${appended:-0}" -eq 0 ]] ||
        ! grep -q "journal: $appended replayed, 0 appended, 0 recomputed" "$HIER_TMP/warm.err"; then
        echo "==> hierarchy: FAIL — the warm sweep must replay every journaled run identically" >&2
        cat "$HIER_TMP/cold.err" "$HIER_TMP/warm.err" >&2
        exit 1
    fi
    echo "==> hierarchy: OK — golden, job-count identity, inertness, depth, drowsy savings under every mode and journal replay verified"
}

if [[ "${1:-}" == "smoke" ]]; then
    smoke
    exit 0
fi

if [[ "${1:-}" == "chaos" ]]; then
    chaos
    exit 0
fi

voltage() {
    local instrs="${BITLINE_INSTRS:-2000}"
    local jobs_n
    jobs_n="$(nproc 2>/dev/null || echo 4)"
    if [[ "$jobs_n" -lt 2 ]]; then jobs_n=4; fi
    VOLT_TMP="$(mktemp -d)"
    trap 'rm -rf "$VOLT_TMP"' EXIT

    echo "==> voltage: build bitline-sim"
    cargo build -q -p bitline-sim
    local sim=./target/debug/bitline-sim

    # The golden is blessed on the two smallest workloads at 2000
    # instructions (crates/sim/tests/goldens.rs); the same
    # configuration here must reproduce it byte-for-byte from the CLI.
    echo "==> voltage: table at jobs=1 vs the blessed golden"
    local v1="$VOLT_TMP/v1.dat" vN="$VOLT_TMP/vN.dat"
    BITLINE_SUITE=mesa,bisort BITLINE_INSTRS="$instrs" \
        "$sim" -j 1 voltage >"$v1" 2>/dev/null
    if ! diff -u crates/sim/tests/goldens/voltage.dat "$v1"; then
        echo "==> voltage: FAIL — the CLI table drifted from the blessed golden" >&2
        exit 1
    fi

    echo "==> voltage: table at jobs=$jobs_n"
    BITLINE_SUITE=mesa,bisort BITLINE_INSTRS="$instrs" \
        "$sim" -j "$jobs_n" voltage >"$vN" 2>/dev/null
    if ! diff -u "$v1" "$vN"; then
        echo "==> voltage: FAIL — the voltage table depends on the job count" >&2
        exit 1
    fi

    # Inertness: the nominal supply must leave a sweep byte-identical to
    # one that never mentions the flag.
    echo "==> voltage: nominal-Vdd inertness under an explicit --vdd 1.0"
    local bare="$VOLT_TMP/bare.out" flagged="$VOLT_TMP/flagged.out"
    "$sim" -b all -i "$instrs" -j "$jobs_n" >"$bare" 2>/dev/null
    "$sim" -b all -i "$instrs" -j "$jobs_n" --vdd 1.0 >"$flagged" 2>/dev/null
    if ! diff -u "$bare" "$flagged"; then
        echo "==> voltage: FAIL — an explicit nominal supply changed sweep output" >&2
        exit 1
    fi

    # Non-finite supplies die at the flag parser, not deep in a run.
    echo "==> voltage: non-finite --vdd is rejected at parse time"
    if "$sim" -b mesa -i 100 --vdd nan >/dev/null 2>"$VOLT_TMP/nan.err"; then
        echo "==> voltage: FAIL — --vdd nan must be rejected" >&2
        exit 1
    fi
    if ! grep -q "finite" "$VOLT_TMP/nan.err"; then
        echo "==> voltage: FAIL — the rejection must name the non-finite input" >&2
        cat "$VOLT_TMP/nan.err" >&2
        exit 1
    fi

    # Experiments run their own specs: a supply flag they would silently
    # ignore is rejected, naming the flag.
    echo "==> voltage: an experiment rejects a spec flag it does not honour"
    if "$sim" --vdd 0.8 fig3 >/dev/null 2>"$VOLT_TMP/ignored.err"; then
        echo "==> voltage: FAIL — fig3 must reject --vdd instead of running at nominal" >&2
        exit 1
    fi
    if ! grep -q -- "--vdd" "$VOLT_TMP/ignored.err"; then
        echo "==> voltage: FAIL — the rejection must name --vdd" >&2
        cat "$VOLT_TMP/ignored.err" >&2
        exit 1
    fi

    # A base fault rate outside [0, 1] fails before any run instead of
    # silently falling back to the table's default rate.
    echo "==> voltage: reliability rejects an out-of-range --fault-rate"
    if "$sim" --fault-rate -0.1 reliability >/dev/null 2>"$VOLT_TMP/rate.err"; then
        echo "==> voltage: FAIL — reliability must reject --fault-rate -0.1" >&2
        exit 1
    fi
    if ! grep -q "fault rate" "$VOLT_TMP/rate.err"; then
        echo "==> voltage: FAIL — the rejection must name the fault rate" >&2
        cat "$VOLT_TMP/rate.err" >&2
        exit 1
    fi

    # Governor leg: a forced deep undervolt must fire the guardband
    # ladder — escalations move, replays resolve through detect-and-
    # replay — and every vdd.* counter must agree across job counts.
    echo "==> voltage: governor escalates under a deep undervolt (jobs=1 vs jobs=$jobs_n)"
    local g1="$VOLT_TMP/gov1.jsonl" gN="$VOLT_TMP/govN.jsonl"
    BITLINE_SUITE=mesa BITLINE_INSTRS="$instrs" \
        "$sim" -b all -j 1 --vdd 0.8 --vdd-governor --metrics "$g1" \
        >"$VOLT_TMP/gov1.out" 2>/dev/null
    BITLINE_SUITE=mesa BITLINE_INSTRS="$instrs" \
        "$sim" -b all -j "$jobs_n" --vdd 0.8 --vdd-governor --metrics "$gN" \
        >"$VOLT_TMP/govN.out" 2>/dev/null
    if ! diff -u "$VOLT_TMP/gov1.out" "$VOLT_TMP/govN.out"; then
        echo "==> voltage: FAIL — a governed sweep depends on the job count" >&2
        exit 1
    fi
    if ! "$sim" --validate-metrics "$g1"; then
        echo "==> voltage: FAIL — governed metrics are not schema-valid" >&2
        exit 1
    fi
    local name v1c vNc
    for name in vdd.d.upsets vdd.d.replays vdd.d.sdc vdd.d.escalations \
        vdd.d.deescalations vdd.d.pinned_subarrays vdd.i.upsets \
        vdd.i.escalations; do
        v1c=$(metric_value "$g1" "$name")
        vNc=$(metric_value "$gN" "$name")
        if ! grep -q "\"name\":\"$name\"" "$g1"; then
            echo "==> voltage: FAIL — counter $name missing from governed export" >&2
            exit 1
        fi
        if [[ "$v1c" -ne "$vNc" ]]; then
            echo "==> voltage: FAIL — $name differs across job counts ($v1c vs $vNc)" >&2
            exit 1
        fi
    done
    if [[ "$(metric_value "$g1" vdd.d.escalations)" -eq 0 ]]; then
        echo "==> voltage: FAIL — a 0.8 Vdd governed run must escalate the ladder" >&2
        exit 1
    fi
    if [[ "$(metric_value "$g1" vdd.d.upsets)" -eq 0 ]]; then
        echo "==> voltage: FAIL — a 0.8 Vdd run must mis-sense speculative reads" >&2
        exit 1
    fi
    echo "==> voltage: OK — golden, job-count identity, inertness, validation," \
        "and governor escalation all verified"
}

# A harness unit of work owns the streams its runs read and frees them when
# it returns, so at --jobs 1 the trace memory retained at any one time is
# one benchmark's stream: at the golden budget, one 4 096-instruction
# segment, at most 32 KiB at 8 B/instr. `ablations` reads its own six
# benchmarks, whatever the suite, so a study run outside its benchmark's
# unit shows here as several streams held at once.
trace_memory() {
    local sim=./target/release/bitline-sim dir experiment peak
    dir=$(mktemp -d)
    for experiment in voltage headline ablations; do
        echo "==> traces: $experiment retains at most one segment at a time at --jobs 1"
        if ! BITLINE_SUITE=mesa,bisort BITLINE_INSTRS=2000 "$sim" --jobs 1 \
            --metrics "$dir/$experiment.jsonl" "$experiment" >/dev/null 2>"$dir/$experiment.err"; then
            echo "==> traces: FAIL — $experiment exited non-zero" >&2
            cat "$dir/$experiment.err" >&2
            exit 1
        fi
        peak=$(metric_value "$dir/$experiment.jsonl" exec.traces.retained_peak_bytes)
        if [[ "$peak" -eq 0 || "$peak" -gt 32768 ]]; then
            echo "==> traces: FAIL — $experiment retained $peak B of trace at once" \
                "(want 1 to 32768: one segment)" >&2
            cat "$dir/$experiment.err" >&2
            exit 1
        fi
        echo "==> traces: $experiment OK — at most $peak B retained at once"
    done
    rm -rf "$dir"
}

if [[ "${1:-}" == "traces" ]]; then
    cargo build --release
    trace_memory
    exit 0
fi

if [[ "${1:-}" == "hierarchy" ]]; then
    hierarchy
    exit 0
fi

if [[ "${1:-}" == "voltage" ]]; then
    voltage
    exit 0
fi

echo "==> cargo build --release"
cargo build --release

trace_memory

echo "==> cargo test -q"
cargo test -q

# The codec totality check replaces every byte of three frames. The debug
# run above tries a fixed value set per byte; a release build tries all 256.
totality=checkpoint::tests::any_single_byte_mutation_decodes_or_is_rejected_without_panicking
echo "==> cargo test --release -q -p bitline-sim --lib $totality"
cargo test --release -q -p bitline-sim --lib "$totality" -- --exact

# The benchmark's own tests include a --quick run of every workload that
# must end "correct": true and carry every declared metric. At --quick
# sizes nothing is pinned: a unit only has to exit cleanly, skip no run and
# print the same stdout as the workload's first unit.
echo "==> cargo test --release -q --manifest-path perf/Cargo.toml"
cargo test --release -q --manifest-path perf/Cargo.toml

# The pins: at full size each CLI workload's stdout digest and simulated
# cycle total must equal the benchmark's pinned ones (long-gcc's at seed
# 42), so a core change that moves one cycle fails here; serve-mixed's
# digest of the daemon's 64 prefill answers must equal its pinned one,
# and the daemon's cold runs read freshly encoded traces.
for workload in headline voltage long-gcc serve-mixed; do
    echo "==> bitline-perf --workload $workload --seed 42 --seconds 1 --trace 0"
    result=$(cargo run --quiet --release --offline --manifest-path perf/Cargo.toml -- \
        --workload "$workload" --seed 42 --seconds 1 --trace 0 | tail -n 1)
    if [[ $result != *'"correct": true'* || $result != *'"failed": 0,'* ]]; then
        echo "==> ci.sh: FAIL — bitline-perf $workload does not match its pins: $result" >&2
        exit 1
    fi
done

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# One source per run setting: only these four BITLINE_* variables may be
# read outside tests/. A read split over lines still matches (-z reads a
# file as one record; tr turns a match's newlines into spaces).
echo "==> BITLINE_* reads outside tests/"
env_reads=$(grep -rnoPz --include='*.rs' --exclude-dir=tests --exclude-dir=target \
    'env::var(_os)?\(\s*"BITLINE_\w*"' . | tr '\n\0' ' \n' |
    grep -vE '"BITLINE_(INSTRS|SUITE|FAILPOINTS|FAILPOINT_SEED)"$' || true)
if [[ -n "$env_reads" ]]; then
    echo "==> ci.sh: FAIL — a run setting read from the environment; make it a flag:" >&2
    echo "${env_reads//:1:/: }" >&2
    exit 1
fi

# perf/ is its own workspace, so the root lint and format steps skip it.
echo "==> cargo clippy --manifest-path perf/Cargo.toml --all-targets -- -D warnings"
cargo clippy --manifest-path perf/Cargo.toml --all-targets -- -D warnings

# Warnings denied, so a citation read as a link or a link to a private
# or missing item fails here. The root workspace only: perf/ is not documented.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo fmt --manifest-path perf/Cargo.toml --check"
cargo fmt --manifest-path perf/Cargo.toml --check

echo "==> ci.sh: all green"
