#!/usr/bin/env bash
# Chaos smoke stage: drive the supervised multi-tenant admission service
# (`hetfeas serve`) through its failure modes and check the bulkhead
# contract from outside the process.
#
#   HETFEAS_BIN=path          the `hetfeas` CLI binary (required)
#   CHAOS_SMOKE_TIMEOUT=120   outer wall-clock cap per stage, seconds
#
# Stages:
#   1. in-process seeded fault storms (`serve --chaos`) across several
#      seeds — exit 0 means every surviving tenant's digest matched a
#      fault-free replay and the quarantine set was exactly the poisoned
#      roles; the report must show panics contained and restarts served;
#   2. a framed stdin session: mixed tenants, an injected shard panic
#      (recovers, digest unchanged), a poisoned tenant (quarantined,
#      neighbors untouched), malformed frames answered with errors — the
#      process always exits 0;
#   3. cross-process convergence: a served session is kill -9'd
#      mid-stream with aggressive compaction, then every tenant journal
#      must `hetfeas recover` cleanly and a restarted server must serve
#      the recovered state: its on-demand digest equals the one
#      `hetfeas recover` printed;
#   4. seeded network-chaos storms (`serve --chaos --net`) across seeds:
#      a frame-aware proxy injects delays, duplicate frames, torn
#      mid-frame writes, resets and swallowed replies between retrying
#      clients and the TCP server — every acked request must appear
#      exactly once in the replayed journal;
#   5. kill -9 of a TCP server mid-stream with a retrying `call` client:
#      the orphaned client fails with the transport exit code (4), and a
#      restarted server on the same data dir serves the recovered state,
#      digest included;
#   6. a retry that straddles a kill -9: a text-mode TCP server acks an
#      `add` carrying a fixed `rid=`, is SIGKILLed and restarted on the
#      same data dir, and the same line sent again must get the same
#      reply (bar the seq prefix) without the live count growing — the
#      rid is in the journal record, so exactly-once survives the
#      process;
#   7. a restart keeps the compaction slice budget: a text-mode tenant is
#      served with `--slice-bytes 64 --compact-every 8`, then served again
#      from the same data dir with the same flags, and the second run's
#      compactions must still be copied in several slices each.
set -euo pipefail

hetfeas="${HETFEAS_BIN:?set HETFEAS_BIN to the hetfeas binary}"
cap="${CHAOS_SMOKE_TIMEOUT:-120}"

work="$(mktemp -d)"
# A failing last stage must not leave its text-mode server running.
trap 'kill "${ridserver:-}" 2>/dev/null || true; rm -rf "$work" || true' EXIT

echo "== seeded fault storms converge" >&2
for seed in 7 1013 57005; do
    report="$work/chaos_$seed.json"
    timeout "$cap" "$hetfeas" serve --chaos --seed "$seed" \
        --tenants 8 --ops 32 --report "$report" \
        >"$work/chaos_$seed.out" 2>"$work/chaos_$seed.err" || {
        echo "chaos_smoke: FAIL — storm seed=$seed did not converge" >&2
        cat "$work/chaos_$seed.out" "$work/chaos_$seed.err" >&2
        exit 1
    }
    grep -q '"verdict": "converged"' "$report" || {
        echo "chaos_smoke: FAIL — seed=$seed report verdict not converged" >&2
        cat "$report" >&2
        exit 1
    }
    # The storm must actually have hurt: panics contained, restarts
    # served, the three poisoned roles quarantined.
    grep -q '"quarantines": 3' "$report" || {
        echo "chaos_smoke: FAIL — seed=$seed expected 3 quarantines" >&2
        cat "$report" >&2
        exit 1
    }
    for key in panics restarts; do
        if grep -q "\"$key\": 0" "$report"; then
            echo "chaos_smoke: FAIL — seed=$seed storm had zero $key" >&2
            cat "$report" >&2
            exit 1
        fi
    done
done

echo "== framed session: panic recovery + quarantine bulkhead" >&2
data="$work/session_data"
session_out="$work/session.out"
{
    printf 'open alpha edf 1.0 1,2,3\n'
    printf 'open beta rms-ll 1.5 2,2\n'
    printf 'add alpha 3 10\n'
    printf 'add alpha 4 12\n'
    printf 'add beta 1 8\n'
    printf 'digest alpha\n'
    printf 'panic alpha\n'
    printf 'digest alpha\n'
    printf 'this is not a command\n'
    printf 'add nosuch 1 2\n'
    printf 'stats\n'
    printf 'quit\n'
} | timeout "$cap" "$hetfeas" serve --text --data-dir "$data" \
    >"$session_out" 2>"$work/session.err" || {
    echo "chaos_smoke: FAIL — framed session exited nonzero" >&2
    cat "$session_out" "$work/session.err" >&2
    exit 1
}
d_before="$(sed -n 's/^6 ok digest=\([0-9a-f]*\).*/\1/p' "$session_out")"
d_after="$(sed -n 's/^8 ok digest=\([0-9a-f]*\).*/\1/p' "$session_out")"
[[ -n "$d_before" && "$d_before" == "$d_after" ]] || {
    echo "chaos_smoke: FAIL — digest changed across panic ($d_before vs $d_after)" >&2
    cat "$session_out" >&2
    exit 1
}
grep -q '^7 err panic' "$session_out" || {
    echo "chaos_smoke: FAIL — injected panic not surfaced as an error ack" >&2
    cat "$session_out" >&2
    exit 1
}
grep -q '^9 err ' "$session_out" || {
    echo "chaos_smoke: FAIL — malformed frame not answered" >&2
    cat "$session_out" >&2
    exit 1
}
grep -q '^10 err ' "$session_out" || {
    echo "chaos_smoke: FAIL — unknown tenant not answered" >&2
    cat "$session_out" >&2
    exit 1
}

echo "== poisoned journal quarantines only its tenant across a restart" >&2
# Truncate alpha's journal to a torn header (no intact records), then
# reopen both tenants in a fresh process: alpha boots into quarantine,
# beta recovers and serves. `open` acks before the shard boots, so the
# fence shows on alpha's first op.
head -c 5 "$data/alpha.journal" >"$work/poison"
mv "$work/poison" "$data/alpha.journal"
{
    printf 'open alpha edf 1.0 1,2,3\n'
    printf 'open beta rms-ll 1.5 2,2\n'
    printf 'add alpha 1 30\n'
    printf 'add beta 1 30\n'
    printf 'quit\n'
} | timeout "$cap" "$hetfeas" serve --text --data-dir "$data" \
    >"$work/poisoned.out" 2>/dev/null || {
    echo "chaos_smoke: FAIL — poisoned tenant took the process down" >&2
    cat "$work/poisoned.out" >&2
    exit 1
}
grep -q '^3 err quarantined' "$work/poisoned.out" || {
    echo "chaos_smoke: FAIL — corrupt journal not fenced" >&2
    cat "$work/poisoned.out" >&2
    exit 1
}
grep -q '^4 ok admitted' "$work/poisoned.out" || {
    echo "chaos_smoke: FAIL — healthy neighbor stopped serving" >&2
    cat "$work/poisoned.out" >&2
    exit 1
}

echo "== kill -9 mid-stream, then recover every tenant journal" >&2
killdata="$work/kill_data"
mkfifo "$work/kill_pipe"
timeout "$cap" "$hetfeas" serve --text --data-dir "$killdata" \
    --compact-every 2 <"$work/kill_pipe" >"$work/kill.out" 2>/dev/null &
server=$!
disown "$server" # silence bash's job-status line when we SIGKILL it
exec 3>"$work/kill_pipe"
printf 'open t0 edf 1.0 1,2\nopen t1 rms-hyp 1.0 3\n' >&3
for i in $(seq 1 24); do
    printf 'add t0 1 %d\nadd t1 1 %d\n' "$((9 + i))" "$((9 + i))" >&3
done
# Wait until both journals exist and have absorbed writes, then SIGKILL
# the server mid-stream (compaction every 2 ops keeps replaces in play).
for _ in $(seq 1 100); do
    [[ -s "$killdata/t0.journal" && -s "$killdata/t1.journal" ]] && break
    sleep 0.1
done
# $server is the `timeout` wrapper — SIGKILL its hetfeas child FIRST
# (killing only the wrapper would orphan the server, which then races
# the recover checks below), then the wrapper itself.
pkill -KILL -P "$server" 2>/dev/null || true
kill -9 "$server" 2>/dev/null || true
exec 3>&-
while kill -0 "$server" 2>/dev/null; do sleep 0.05; done
while pgrep -f "serve --text --data-dir $killdata" >/dev/null 2>&1; do
    sleep 0.05
done
for t in t0 t1; do
    j="$killdata/$t.journal"
    [[ -s "$j" ]] || {
        echo "chaos_smoke: FAIL — $t journal missing after kill -9" >&2
        exit 1
    }
    timeout "$cap" "$hetfeas" recover "$j" >"$work/kill_$t.out" 2>&1 || {
        echo "chaos_smoke: FAIL — $t journal unrecoverable after kill -9" >&2
        cat "$work/kill_$t.out" >&2
        exit 1
    }
    grep -q 'state digest [0-9a-f]*' "$work/kill_$t.out" || {
        echo "chaos_smoke: FAIL — recover $t printed no digest" >&2
        exit 1
    }
done
# A restarted server serves the recovered state.
{
    printf 'open t0 edf 1.0 1,2\n'
    printf 'open t1 rms-hyp 1.0 3\n'
    printf 'digest t0\ndigest t1\nquit\n'
} | timeout "$cap" "$hetfeas" serve --text --data-dir "$killdata" \
    >"$work/kill_restart.out" 2>/dev/null || {
    echo "chaos_smoke: FAIL — restart after kill -9 failed" >&2
    cat "$work/kill_restart.out" >&2
    exit 1
}
# Each restarted tenant's served digest (computed on demand) must equal
# the digest `hetfeas recover` printed for the same journal.
for pair in 3:t0 4:t1; do
    seq="${pair%%:*}" t="${pair#*:}"
    served="$(sed -n "s/^$seq ok digest=\([0-9a-f]*\) .*/\1/p" "$work/kill_restart.out")"
    recovered="$(sed -n 's/.*state digest \([0-9a-f]*\).*/\1/p' "$work/kill_$t.out")"
    [[ -n "$served" ]] || {
        echo "chaos_smoke: FAIL — restarted server served no digest (seq $seq)" >&2
        cat "$work/kill_restart.out" >&2
        exit 1
    }
    [[ "$served" == "$recovered" ]] || {
        echo "chaos_smoke: FAIL — $t served digest $served, recover printed '$recovered'" >&2
        cat "$work/kill_restart.out" "$work/kill_$t.out" >&2
        exit 1
    }
done

echo "== network-chaos storms are exactly-once" >&2
for seed in 3 911 48879; do
    report="$work/netchaos_$seed.json"
    timeout "$cap" "$hetfeas" serve --chaos --net --seed "$seed" \
        --tenants 4 --ops 24 --data-dir "$work/netchaos_data_$seed" \
        --report "$report" \
        >"$work/netchaos_$seed.out" 2>"$work/netchaos_$seed.err" || {
        echo "chaos_smoke: FAIL — net storm seed=$seed diverged" >&2
        cat "$work/netchaos_$seed.out" "$work/netchaos_$seed.err" >&2
        exit 1
    }
    grep -q '"verdict": "converged"' "$report" || {
        echo "chaos_smoke: FAIL — net seed=$seed verdict not converged" >&2
        cat "$report" >&2
        exit 1
    }
    if grep -q '"exactly_once": 0' "$report"; then
        echo "chaos_smoke: FAIL — net seed=$seed verified no tenant strictly" >&2
        cat "$report" >&2
        exit 1
    fi
done
# Across the seed matrix the proxy must actually have hurt: at least one
# duplicated frame and at least one torn/reset/swallowed exchange.
dup_total=0 harm_total=0
for seed in 3 911 48879; do
    report="$work/netchaos_$seed.json"
    dup="$(sed -n 's/.*"duplicated": \([0-9]*\).*/\1/p' "$report" | head -1)"
    for key in torn resets dropped_replies; do
        v="$(sed -n "s/.*\"$key\": \([0-9]*\).*/\1/p" "$report" | head -1)"
        harm_total=$((harm_total + ${v:-0}))
    done
    dup_total=$((dup_total + ${dup:-0}))
done
[[ "$dup_total" -ge 1 && "$harm_total" -ge 1 ]] || {
    echo "chaos_smoke: FAIL — net matrix injected no faults (dup=$dup_total harm=$harm_total)" >&2
    exit 1
}

echo "== kill -9 of the TCP server orphans the retrying client cleanly" >&2
tcpdata="$work/tcp_kill_data"
mkdir -p "$tcpdata"
# An ephemeral port in the dynamic range, seeded by PID to dodge collisions.
tcpport=$((20000 + $$ % 20000))
timeout "$cap" "$hetfeas" serve --tcp "127.0.0.1:$tcpport" \
    --data-dir "$tcpdata" >"$work/tcp_kill.out" 2>&1 &
tcpserver=$!
disown "$tcpserver"
for _ in $(seq 1 100); do
    "$hetfeas" call 'stats' --tcp "127.0.0.1:$tcpport" \
        >/dev/null 2>&1 && break
    sleep 0.1
done
"$hetfeas" call 'open k edf 1.0 1,2' --tcp "127.0.0.1:$tcpport" \
    >/dev/null 2>&1 || {
    echo "chaos_smoke: FAIL — could not open tenant over TCP" >&2
    exit 1
}
for i in $(seq 1 6); do
    "$hetfeas" call "add k 1 $((9 + i))" --tcp "127.0.0.1:$tcpport" \
        >/dev/null 2>&1 || {
        echo "chaos_smoke: FAIL — TCP add $i refused before the kill" >&2
        exit 1
    }
done
pkill -KILL -P "$tcpserver" 2>/dev/null || true
kill -9 "$tcpserver" 2>/dev/null || true
while kill -0 "$tcpserver" 2>/dev/null; do sleep 0.05; done
while pgrep -f "serve --tcp 127.0.0.1:$tcpport" >/dev/null 2>&1; do
    sleep 0.05
done
# The retrying client must give up with the transport exit code, not hang
# or misreport success.
set +e
timeout "$cap" "$hetfeas" call 'digest k' --tcp "127.0.0.1:$tcpport" \
    --budget-ms 2000 >/dev/null 2>&1
dead_rc=$?
set -e
[[ "$dead_rc" -eq 4 ]] || {
    echo "chaos_smoke: FAIL — call against killed server exited $dead_rc, want 4" >&2
    exit 1
}
# The journal survived the SIGKILL and a restarted server serves it.
timeout "$cap" "$hetfeas" recover "$tcpdata/k.journal" >"$work/tcp_recover.out" 2>&1 || {
    echo "chaos_smoke: FAIL — TCP tenant journal unrecoverable after kill -9" >&2
    cat "$work/tcp_recover.out" >&2
    exit 1
}
timeout "$cap" "$hetfeas" serve --tcp "127.0.0.1:$tcpport" \
    --data-dir "$tcpdata" >"$work/tcp_restart.out" 2>&1 &
tcpserver2=$!
for _ in $(seq 1 100); do
    "$hetfeas" call 'stats' --tcp "127.0.0.1:$tcpport" \
        >/dev/null 2>&1 && break
    sleep 0.1
done
"$hetfeas" call 'open k edf 1.0 1,2' --tcp "127.0.0.1:$tcpport" \
    >/dev/null 2>&1 || {
    echo "chaos_smoke: FAIL — reopen after restart refused" >&2
    exit 1
}
"$hetfeas" call 'digest k' --tcp "127.0.0.1:$tcpport" \
    >"$work/tcp_digest.out" 2>&1 || {
    echo "chaos_smoke: FAIL — restarted TCP server served no digest" >&2
    cat "$work/tcp_digest.out" >&2
    exit 1
}
grep -q 'live=6' "$work/tcp_digest.out" || {
    echo "chaos_smoke: FAIL — recovered state lost admissions" >&2
    cat "$work/tcp_digest.out" >&2
    exit 1
}
served="$(sed -n 's/.*digest=\([0-9a-f]*\) .*/\1/p' "$work/tcp_digest.out")"
recovered="$(sed -n 's/.*state digest \([0-9a-f]*\).*/\1/p' "$work/tcp_recover.out")"
[[ -n "$served" && "$served" == "$recovered" ]] || {
    echo "chaos_smoke: FAIL — k served digest '$served', recover printed '$recovered'" >&2
    cat "$work/tcp_digest.out" "$work/tcp_recover.out" >&2
    exit 1
}
"$hetfeas" call 'quit' --tcp "127.0.0.1:$tcpport" >/dev/null 2>&1 || true
wait "$tcpserver2" 2>/dev/null || true

echo "== a retry that straddles a kill -9 is a dedup hit" >&2
riddata="$work/rid_kill_data"
mkdir -p "$riddata"
ridport=$((tcpport + 1))
# Start a text-mode TCP server on $ridport (its `timeout` wrapper's pid
# lands in $ridserver) and wait until it accepts.
start_text_server() {
    timeout "$cap" "$hetfeas" serve --tcp "127.0.0.1:$ridport" --text \
        --data-dir "$riddata" >>"$work/rid_kill.out" 2>&1 &
    ridserver=$!
    disown "$ridserver"
    for _ in $(seq 1 100); do
        if (exec 6<>"/dev/tcp/127.0.0.1/$ridport") 2>/dev/null; then
            return 0
        fi
        sleep 0.1
    done
    echo "chaos_smoke: FAIL — text TCP server never accepted" >&2
    cat "$work/rid_kill.out" >&2
    exit 1
}
# Send each argument as one line on a fresh connection; print one reply
# line per request.
text_session() {
    exec 6<>"/dev/tcp/127.0.0.1/$ridport"
    printf '%s\n' "$@" >&6
    local reply
    for _ in "$@"; do
        IFS= read -r -t 10 reply <&6 || {
            echo "chaos_smoke: FAIL — text TCP session got no reply" >&2
            exit 1
        }
        printf '%s\n' "$reply"
    done
    exec 6>&-
}
start_text_server
text_session 'open r edf 1.0 1,2' 'add r 3 10 rid=4242' 'digest r' \
    >"$work/rid_first.out"
first="$(sed -n 2p "$work/rid_first.out")"
[[ "$first" == *" ok admitted "*" rid=4242" ]] || {
    echo "chaos_smoke: FAIL — rid-tagged add not acked" >&2
    cat "$work/rid_first.out" >&2
    exit 1
}
grep -q 'live=1$' "$work/rid_first.out" || {
    echo "chaos_smoke: FAIL — first session should hold one task" >&2
    cat "$work/rid_first.out" >&2
    exit 1
}
pkill -KILL -P "$ridserver" 2>/dev/null || true
kill -9 "$ridserver" 2>/dev/null || true
while kill -0 "$ridserver" 2>/dev/null; do sleep 0.05; done
while pgrep -f "serve --tcp 127.0.0.1:$ridport" >/dev/null 2>&1; do
    sleep 0.05
done
start_text_server
text_session 'open r edf 1.0 1,2' 'add r 3 10 rid=4242' 'digest r' \
    >"$work/rid_retry.out"
retry="$(sed -n 2p "$work/rid_retry.out")"
[[ "${retry#* }" == "${first#* }" ]] || {
    echo "chaos_smoke: FAIL — retry across kill -9 answered '$retry', first ack was '$first'" >&2
    exit 1
}
grep -q 'live=1$' "$work/rid_retry.out" || {
    echo "chaos_smoke: FAIL — retry across kill -9 applied the add again" >&2
    cat "$work/rid_retry.out" >&2
    exit 1
}
text_session quit >/dev/null
while pgrep -f "serve --tcp 127.0.0.1:$ridport" >/dev/null 2>&1; do
    sleep 0.05
done

echo "== a restarted tenant keeps the compaction slice budget" >&2
slicedata="$work/slice_data"
# One text-mode session of 24 adds to tenant s, with periods $1+1 to
# $1+24; further arguments go to `serve`.
slice_session() {
    {
        printf 'open s edf 1.0 1,2\n'
        for i in $(seq 1 24); do
            printf 'add s 1 %d\n' "$(($1 + i))"
        done
        printf 'quit\n'
    } | timeout "$cap" "$hetfeas" serve --text --data-dir "$slicedata" \
        --slice-bytes 64 --compact-every 8 "${@:2}" \
        >>"$work/slice.out" 2>>"$work/slice.err" || {
        echo "chaos_smoke: FAIL — slice-budget session exited nonzero" >&2
        cat "$work/slice.out" "$work/slice.err" >&2
        exit 1
    }
}
slice_session 40
slice_session 80 --report "$work/slice_report.json"
slices="$(sed -n 's/.*"journal_compact_slices": \([0-9]*\).*/\1/p' "$work/slice_report.json")"
compactions="$(sed -n 's/.*"journal.compactions": \([0-9]*\).*/\1/p' "$work/slice_report.json")"
[[ "${compactions:-0}" -ge 1 && "${slices:-0}" -gt "${compactions:-0}" ]] || {
    echo "chaos_smoke: FAIL — after a restart $compactions compactions took $slices slices of 64 bytes" >&2
    cat "$work/slice_report.json" >&2
    exit 1
}

echo "chaos_smoke: all stages passed" >&2
