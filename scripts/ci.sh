#!/bin/sh
# CI gate: build, tests, then a --quick smoke of the JSON result
# pipeline — the emitted document must parse (the CLI's own --check
# re-reads it) and round-trip through the regression gate at zero
# tolerance. Run from anywhere; operates on the repository root.
#
# Usage: scripts/ci.sh [STAGE]
#
# With no argument every stage runs in order — the full local gate.
# Naming a stage runs just that section (what the GitHub Actions matrix
# fans out across jobs); $stages below is the one authoritative list.
set -eu

# Single source of truth for the stage list: both the usage string and
# the dispatch whitelist derive from it, so adding a stage in one place
# cannot silently drift from the other (the build stage smoke-tests
# this by running an unknown stage name).
stages="build docs tests smoke trace serve serve-soak audit"

usage() { echo "usage: scripts/ci.sh [$(echo "$stages" | tr ' ' '|')]"; }

stage="${1:-all}"
stage_known=false
[ "$stage" = all ] && stage_known=true
for s in $stages; do
  [ "$stage" = "$s" ] && stage_known=true
done
if ! "$stage_known"; then
  echo "unknown stage '$stage'" >&2
  usage >&2
  exit 2
fi
want() { [ "$stage" = all ] || [ "$stage" = "$1" ]; }

cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

if want build; then
  echo "== build =="
  dune build @all

  # Stage-dispatch self-test: an unknown stage must fail fast with exit
  # code 2 and the usage line, never fall through to the full gate.
  set +e
  bogus_out="$(sh scripts/ci.sh bogus-stage 2>&1)"
  bogus_rc=$?
  set -e
  [ "$bogus_rc" -eq 2 ]
  echo "$bogus_out" | grep -q '^usage: scripts/ci.sh'
fi

if want docs; then
  echo "== docs =="
  # @doc needs odoc; build it where the tool exists, skip (loudly) where
  # it does not so the gate stays runnable on minimal images.
  if command -v odoc >/dev/null 2>&1; then
    dune build @doc @doc-private
  else
    echo "odoc not installed; skipping documentation build"
  fi
fi

if want tests; then
  echo "== tests =="
  dune runtest

  # The suite finds its data files next to its executable, not in the
  # working directory: run one suite that reads one from the repository
  # root.
  ./_build/default/test/test_main.exe test json >"$tmp/test_json_from_root.out"

  # dune runtest's benchmark smoke checks seed 2006's digests from
  # bench/e2e/expected.json; the second recorded seed gates here, so
  # both seeds' reproduce and audit documents are checked on every run,
  # and the stream workload's machine verdicts on a second set of
  # instances.
  for workload in reproduce audit stream; do
    dune exec bench/e2e/oqsc_bench.exe -- --smoke --seed 7 \
      --workload "$workload" >"$tmp/bench_seed7_$workload.out"
  done
fi

if want smoke; then
  echo "== run-all JSON smoke =="
  # Emit a quick baseline, then check the very same run against it: this
  # exercises the emitter, the parser, and the differ end to end, and
  # fails if the document stopped being byte-deterministic.
  # The baseline runs on one domain, so the default-scheduled run below
  # checks parallel against sequential too.
  dune exec bin/oqsc_cli.exe -- run-all --quick --quiet --domains 1 \
    --json "$tmp/exp.json"
  dune exec bin/oqsc_cli.exe -- run-all --quick --quiet \
    --check "$tmp/exp.json" --tolerance 0.0

  # One and two domains must produce identical bytes (the default may be
  # one domain on a small machine, so name two explicitly).
  dune exec bin/oqsc_cli.exe -- run-all --quick --quiet --domains 2 \
    --json "$tmp/exp_d2.json"
  cmp "$tmp/exp.json" "$tmp/exp_d2.json"

  # The README's CLI quickstart must run as written: its gen line, then
  # the quantum and block recognizers on what it wrote.
  dune exec bin/oqsc_cli.exe -- gen -k 3 --kind intersect -t 1 > "$tmp/input.txt"
  dune exec bin/oqsc_cli.exe -- run --algo quantum --input "$tmp/input.txt" \
    >"$tmp/run_quantum.out"
  dune exec bin/oqsc_cli.exe -- run --algo block --input "$tmp/input.txt" \
    >"$tmp/run_block.out"

  # Every generated kind, at k = 3 and at full size k = 6, through the
  # two deterministic classical machines: the verdict must be the
  # ground truth the run prints (Ldisj.member on the input), and that
  # must be the label gen printed on stderr.
  for k in 3 6; do
    for kind in member intersect corrupt malformed; do
      gen="$tmp/gen_${kind}_k$k.txt"
      dune exec bin/oqsc_cli.exe -- gen -k "$k" --kind "$kind" >"$gen" \
        2>"$tmp/gen_${kind}_k$k.err"
      case "$(sed -n 's/.* member=//p' "$tmp/gen_${kind}_k$k.err")" in
        true) label="in L_DISJ" ;;
        false) label="not in L_DISJ" ;;
        *) label="" ;;
      esac
      for algo in block naive; do
        out="$tmp/run_${algo}_${kind}_k$k.out"
        dune exec bin/oqsc_cli.exe -- run --algo "$algo" --input "$gen" >"$out"
        verdict="$(sed -n 's/^verdict: //p' "$out")"
        truth="$(sed -n 's/^ground truth: //p' "$out")"
        if [ -z "$verdict" ] || [ "$verdict" != "$truth" ] || [ "$truth" != "$label" ]; then
          echo "run --algo $algo on a k=$k $kind instance: verdict '$verdict'," \
            "ground truth '$truth', gen label '$label'" >&2
          exit 1
        fi
      done
    done
  done

  # Every example executable must run to a zero exit status;
  # circuit_dump is the one caller of A3's circuit-recording path.
  for src in examples/*.ml; do
    ex="$(basename "$src" .ml)"
    echo "-- examples/$ex"
    dune exec "examples/$ex.exe" >"$tmp/example_$ex.out"
  done
  # register_machine prints a compiled state count and a control-state
  # id, so a drift in the compiler's state numbering shows here.
  diff -u examples/register_machine.expected "$tmp/example_register_machine.out"

  # Malformed selections and out-of-range arguments must fail with a
  # usable message and cmdliner's usage-error status 124, never 125 (an
  # uncaught exception). A failing command caught by '||' never trips
  # set -e, so each check fails the stage explicitly. The loop reads
  # /dev/null, so a bad input character comes from a file.
  printf '01x\n' > "$tmp/bad_symbol.txt"
  for args in "space-audit --quick --quiet --shard 3/3" \
    "space-audit --quick --quiet --shard 0/0" "space-audit --quick --quiet --shard x/3" \
    "run-all --quick --quiet --only e99" "gen -k 0" \
    "gen -k 1 --kind intersect -t 9" "run --algo subsample --budget 0" \
    "run --input $tmp/missing.txt" "ne --input $tmp/missing.txt" \
    "ne --input $tmp/bad_symbol.txt"; do
    rc=0
    # $args is unquoted on purpose: it splits into a command and its options.
    dune exec bin/oqsc_cli.exe -- $args </dev/null >/dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 124 ]; then
      echo "oqsc $args exited $rc, not 124" >&2
      exit 1
    fi
  done
fi

if want trace; then
  echo "== trace smoke =="
  # Tracing must be write-only: a traced run's gated JSON must match an
  # untraced one-domain baseline byte for byte, on the default and
  # two-domain schedules alike. Each emitted timeline must also survive
  # the structural linter (balanced per-track B/E spans, nondecreasing
  # timestamps, zero dropped events).
  dune exec bin/oqsc_cli.exe -- run-all --quick --quiet --only e3 --domains 1 \
    --json "$tmp/e3.json"
  dune exec bin/oqsc_cli.exe -- run-all --quick --quiet --only e3 \
    --trace "$tmp/e3_trace.json" --json "$tmp/e3_traced.json"
  cmp "$tmp/e3.json" "$tmp/e3_traced.json"
  dune exec bin/oqsc_cli.exe -- trace-lint "$tmp/e3_trace.json"

  dune exec bin/oqsc_cli.exe -- run-all --quick --quiet --only e3 --domains 2 \
    --trace "$tmp/e3_trace_d2.json" --json "$tmp/e3_traced_d2.json"
  cmp "$tmp/e3.json" "$tmp/e3_traced_d2.json"
  dune exec bin/oqsc_cli.exe -- trace-lint "$tmp/e3_trace_d2.json"
fi

if want serve; then
  echo "== serve protocol smoke =="
  # The served-payload contract (docs/PROTOCOL.md): a run/sweep payload
  # answered by the long-lived server must be byte-identical to the
  # one-shot CLI document at the same (quick, seed). bench-serve
  # strictly re-decodes every reply envelope, so this replay also fails
  # on any undocumented reply key or error code.
  mix=examples/serve_mix.ndjson

  # In-process replay: payloads out of the engine itself.
  dune exec bin/oqsc_cli.exe -- bench-serve "$mix" \
    --payload-dir "$tmp/payloads" >/dev/null
  dune exec bin/oqsc_cli.exe -- run-all --quick --quiet --only e2 \
    --json "$tmp/serve_b.json"
  cmp "$tmp/payloads/b.json" "$tmp/serve_b.json"
  dune exec bin/oqsc_cli.exe -- run-all --quick --quiet --only e2 --seed 7 \
    --json "$tmp/serve_f.json"
  cmp "$tmp/payloads/f.json" "$tmp/serve_f.json"
  dune exec bin/oqsc_cli.exe -- space-audit --quick --quiet --shard 0/5 \
    --json "$tmp/serve_e.json"
  cmp "$tmp/payloads/e.json" "$tmp/serve_e.json"

  # Socket transport: a background server, the same mix over frames,
  # clean shutdown via a shutdown request, identical payload bytes. The
  # server runs from the built binary directly so the backgrounded
  # process never contends for dune's build lock.
  dune build bin/oqsc_cli.exe
  _build/default/bin/oqsc_cli.exe serve --socket "$tmp/serve.sock" &
  serve_pid=$!
  for _ in $(seq 50); do [ -S "$tmp/serve.sock" ] && break; sleep 0.1; done
  [ -S "$tmp/serve.sock" ]
  dune exec bin/oqsc_cli.exe -- bench-serve "$mix" --socket "$tmp/serve.sock" \
    --repeat 2 --payload-dir "$tmp/payloads_sock" --shutdown
  wait "$serve_pid"
  [ ! -e "$tmp/serve.sock" ]
  for id in b e f; do
    cmp "$tmp/payloads_sock/$id.json" "$tmp/serve_$id.json"
  done

  # Telemetry must be write-only: the same socket replay with the
  # request log, the metrics file, and the trace recorder all active
  # must produce byte-identical payloads. The emitted streams must
  # survive their linters (log-lint checks the exact event schema and
  # seq/ts ordering; trace-lint checks span balance and flow-arrow
  # pairing), and the metrics file must expose the serve counters in
  # Prometheus text exposition format.
  _build/default/bin/oqsc_cli.exe serve --socket "$tmp/tel.sock" \
    --log "$tmp/tel_log.ndjson" --metrics-file "$tmp/tel.prom" \
    --trace "$tmp/tel_trace.json" &
  tel_pid=$!
  for _ in $(seq 50); do [ -S "$tmp/tel.sock" ] && break; sleep 0.1; done
  [ -S "$tmp/tel.sock" ]
  dune exec bin/oqsc_cli.exe -- bench-serve "$mix" --socket "$tmp/tel.sock" \
    --payload-dir "$tmp/payloads_tel" --shutdown >/dev/null
  wait "$tel_pid"
  for id in b e f; do
    cmp "$tmp/payloads_tel/$id.json" "$tmp/serve_$id.json"
  done
  dune exec bin/oqsc_cli.exe -- log-lint "$tmp/tel_log.ndjson"
  dune exec bin/oqsc_cli.exe -- trace-lint "$tmp/tel_trace.json"
  grep -q '^# TYPE serve_requests_total counter$' "$tmp/tel.prom"
  grep -q '^# TYPE serve_cache_hits_total counter$' "$tmp/tel.prom"
  grep -q 'serve_request_latency_ms_bucket{le="+Inf"}' "$tmp/tel.prom"

  # NDJSON transport smoke: requests on stdin, one reply line each, a
  # shutdown request ends the process with exit 0.
  { cat "$mix"; echo '{"v":1,"id":"z","op":"shutdown"}'; } \
    | dune exec bin/oqsc_cli.exe -- serve > "$tmp/ndjson_replies"
  [ "$(wc -l < "$tmp/ndjson_replies")" -eq 8 ]
  if grep -q '"ok":false' "$tmp/ndjson_replies"; then
    echo "serve drew an error reply on the NDJSON mix" >&2
    exit 1
  fi

  # Error discipline: malformed / unknown-version / unknown-experiment
  # lines draw error replies with the documented codes and never kill
  # the server (the shutdown afterwards must still be answered).
  printf '%s\n' \
    '{nope' \
    '{"v":9,"id":"v9","op":"ping"}' \
    '{"v":1,"id":"x","op":"run","exp":"e99"}' \
    '{"v":1,"id":"z","op":"shutdown"}' \
    | dune exec bin/oqsc_cli.exe -- serve > "$tmp/err_replies"
  grep -q '"code":"parse_error"' "$tmp/err_replies"
  grep -q '"code":"unsupported_version"' "$tmp/err_replies"
  grep -q '"code":"unknown_experiment"' "$tmp/err_replies"
  grep -q '"op":"shutdown"' "$tmp/err_replies"

  # An undocumented request key draws bad_request naming the key.
  printf '%s\n' \
    '{"v":1,"id":"k","op":"ping","extra":1}' \
    '{"v":1,"id":"z","op":"shutdown"}' \
    | dune exec bin/oqsc_cli.exe -- serve > "$tmp/key_replies"
  grep '"id":"k"' "$tmp/key_replies" | grep '"code":"bad_request"' \
    | grep -q 'extra'

  # The v2 metrics op: version-gated (a v1 request naming it draws
  # unknown_op), a barrier when accepted, and the reply payload is the
  # oqsc-metrics document.
  printf '%s\n' \
    '{"v":1,"id":"m1","op":"metrics"}' \
    '{"v":2,"id":"m2","op":"metrics"}' \
    '{"v":1,"id":"z","op":"shutdown"}' \
    | dune exec bin/oqsc_cli.exe -- serve > "$tmp/metrics_replies"
  grep -q '"code":"unknown_op"' "$tmp/metrics_replies"
  grep -q '"id":"m2","ok":true' "$tmp/metrics_replies"
  grep -q '"kind":"oqsc-metrics"' "$tmp/metrics_replies"

  # Backpressure: with threshold flushes disabled (batch > queue) the
  # second admission must be refused with queue_full.
  printf '%s\n' \
    '{"v":1,"id":"r1","op":"run","exp":"e2","quick":true}' \
    '{"v":1,"id":"r2","op":"run","exp":"e13","quick":true}' \
    '{"v":1,"id":"z","op":"shutdown"}' \
    | dune exec bin/oqsc_cli.exe -- serve --queue 1 --batch 4 > "$tmp/bp_replies"
  grep -q '"code":"queue_full"' "$tmp/bp_replies"
fi

if want serve-soak; then
  echo "== serve sustained-load soak =="
  # Concurrent-serving gate (docs/PROTOCOL.md § Concurrency): a
  # background server under 4 concurrent bench-serve connections must
  # complete the committed mix with strict reply decoding and
  # per-connection ordering, produce byte-identical payloads, and keep
  # the server-side p99 within a (deliberately loose) factor of the
  # committed baseline — machine variance is fine, a complexity
  # regression in the serving path is not.  The payload cache answers
  # every repeat, so the loaded pass's p99 reads cache lookups; the
  # early replay, where every run/sweep request is a miss, is the one
  # whose p99 still times the computations, and both are gated.
  mix=examples/serve_mix.ndjson
  dune build bin/oqsc_cli.exe
  _build/default/bin/oqsc_cli.exe serve --socket "$tmp/soak.sock" --max-clients 8 \
    --log "$tmp/soak_log.ndjson" &
  soak_pid=$!
  for _ in $(seq 50); do [ -S "$tmp/soak.sock" ] && break; sleep 0.1; done
  [ -S "$tmp/soak.sock" ]
  # Early metrics scrape: one light replay against the live server
  # records the counter state before the heavy load, for the
  # monotonicity gate below (every bench-serve --json report embeds
  # the server's metrics snapshot, scraped via a v2 metrics request).
  # It is the server's first sight of the mix, so each of its run/sweep
  # requests is computed, and its p99 is gated below.
  dune exec bin/oqsc_cli.exe -- bench-serve "$mix" --socket "$tmp/soak.sock" \
    --json "$tmp/soak_mid.json" >/dev/null
  dune exec bin/oqsc_cli.exe -- bench-serve "$mix" --socket "$tmp/soak.sock" \
    --clients 4 --repeat 50 --payload-dir "$tmp/soak_payloads" \
    --json "$tmp/soak.json" --shutdown
  wait "$soak_pid"
  [ ! -e "$tmp/soak.sock" ]

  # The request log the server wrote under concurrent load must lint
  # clean after shutdown: exact event schema, gapless seq, ordered ts.
  dune exec bin/oqsc_cli.exe -- log-lint "$tmp/soak_log.ndjson"

  # Metrics gates over the two scrapes of the same server process.
  metric() { # FILE NAME -> integer counter value
    awk -v pat="\"name\": \"$2\"" '
      index($0, pat) { f = 1 }
      f && index($0, "\"value\":") { gsub(/[^0-9]/, "", $0); print; exit }
    ' "$1"
  }
  # 1. Monotonicity: no serve counter may move backwards between the
  #    early scrape and the end-of-soak scrape.
  for c in serve_requests_total serve_replies_ok_total \
           serve_replies_error_total serve_rejected_total \
           serve_dropped_total serve_flushes_total \
           serve_cache_hits_total; do
    early="$(metric "$tmp/soak_mid.json" "$c")"
    final="$(metric "$tmp/soak.json" "$c")"
    if [ -z "$early" ] || [ -z "$final" ]; then
      echo "serve-soak: counter $c missing from a metrics scrape" >&2
      exit 1
    fi
    if [ "$early" -gt "$final" ]; then
      echo "serve-soak: counter $c went backwards ($early -> $final)" >&2
      exit 1
    fi
  done
  #    The soak repeats every request of the mix, so the final scrape
  #    must show the payload cache answering some of them.
  if [ "$(metric "$tmp/soak.json" serve_cache_hits_total)" -le 0 ]; then
    echo "serve-soak: no cache hits over a repeated mix" >&2
    exit 1
  fi
  # 2. Accounting identity at both scrapes: every request the server
  #    ever saw is exactly one of replied-ok / replied-error /
  #    rejected / dropped (docs/PROTOCOL.md, metrics payload).
  for f in "$tmp/soak_mid.json" "$tmp/soak.json"; do
    req="$(metric "$f" serve_requests_total)"
    sum=$(( $(metric "$f" serve_replies_ok_total) \
          + $(metric "$f" serve_replies_error_total) \
          + $(metric "$f" serve_rejected_total) \
          + $(metric "$f" serve_dropped_total) ))
    if [ "$req" -ne "$sum" ]; then
      echo "serve-soak: accounting identity broken in $f ($req != $sum)" >&2
      exit 1
    fi
  done

  # Payload bytes out of a loaded concurrent server = one-shot CLI bytes.
  dune exec bin/oqsc_cli.exe -- run-all --quick --quiet --only e2 \
    --json "$tmp/soak_b.json"
  cmp "$tmp/soak_payloads/b.json" "$tmp/soak_b.json"
  dune exec bin/oqsc_cli.exe -- run-all --quick --quiet --only e2 --seed 7 \
    --json "$tmp/soak_f.json"
  cmp "$tmp/soak_payloads/f.json" "$tmp/soak_f.json"
  dune exec bin/oqsc_cli.exe -- space-audit --quick --quiet --shard 0/5 \
    --json "$tmp/soak_e.json"
  cmp "$tmp/soak_payloads/e.json" "$tmp/soak_e.json"

  # Server-side p99 gate against the committed dated baseline.
  # Re-record with scripts/ci.sh serve-soak's bench-serve line and
  # commit a new dated file after intentional serving-path changes.
  # At the end of the loaded pass (soak.json) the server's stats window
  # holds 5 computations and 1000 cache hits, so its p99 is a lookup;
  # the cold early replay (soak_mid.json) holds only the 5
  # computations, so its p99 is the costliest document of the mix.
  # Both must stay within 25x the baseline.
  p99() { awk -F: '/"p99_ms"/ { gsub(/[ ",]/, "", $2); print $2; exit }' "$1"; }
  base="$(p99 BENCH_SERVE_2026-08-08.json)"
  for f in "$tmp/soak.json" "$tmp/soak_mid.json"; do
    fresh="$(p99 "$f")"
    echo "$(basename "$f") p99_ms: fresh=$fresh baseline=$base (gate: fresh <= 25x baseline)"
    # A missing or non-positive sample means the stats payload or the
    # baseline lost its p99_ms key — that is a gate failure, not a pass
    # (empty strings would otherwise compare 0 <= 0 and wave it through).
    if [ -z "$fresh" ] || [ -z "$base" ]; then
      echo "serve-soak: p99_ms missing in $f (fresh='$fresh' baseline='$base')" >&2
      exit 1
    fi
    awk -v f="$fresh" -v b="$base" \
      'BEGIN { exit !(f + 0 > 0 && b + 0 > 0 && f + 0 <= 25 * b) }'
  done
fi

if want audit; then
  echo "== space-audit gate =="
  # Exits non-zero unless the fitted classical exponent lands in the
  # n^(1/3) band and the quantum data prefers the logarithmic model; the
  # emitted document must also be byte-stable across runs.
  dune exec bin/oqsc_cli.exe -- space-audit --quick --quiet --json "$tmp/audit.json"
  dune exec bin/oqsc_cli.exe -- space-audit --quick --quiet --json "$tmp/audit2.json"
  cmp "$tmp/audit.json" "$tmp/audit2.json"
  # --timing adds wall_ms telemetry (and nothing else): the timed
  # document must differ from the baseline, and stripping its wall_ms
  # lines (plus the comma they force onto the preceding line, since
  # sorted keys put wall_ms last in each object) must give back the
  # baseline bytes exactly.
  dune exec bin/oqsc_cli.exe -- space-audit --quick --quiet --timing \
    --json "$tmp/audit_timed.json"
  if cmp -s "$tmp/audit.json" "$tmp/audit_timed.json"; then
    echo "space-audit --timing added no wall_ms telemetry" >&2
    exit 1
  fi
  awk '{ if ($0 ~ /"wall_ms"/) { sub(/,$/, "", prev); next }
         if (have) print prev; prev = $0; have = 1 }
       END { if (have) print prev }' \
    "$tmp/audit_timed.json" > "$tmp/audit_stripped.json"
  cmp "$tmp/audit.json" "$tmp/audit_stripped.json"
fi

echo "== ci $stage OK =="
