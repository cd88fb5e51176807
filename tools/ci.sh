#!/bin/sh
# Build everything, run the full test suite (includes the crash-point and
# message-delivery sweeps), then a reduced randomized stress: outages,
# message faults (loss/dup/reorder with the fault-free-twin store check),
# and coordinator amnesia (in-doubt tokens presumed aborted).  Finally
# regenerate the committed reference bench output.
set -eu
cd "$(dirname "$0")/.."

dune build @all
dune runtest
dune exec tools/stress.exe -- --seeds 41-50 --outages 0.0,0.2
dune exec tools/stress.exe -- --seeds 41-50 --fail-rates 0.0,0.1 --msg-faults 0.05
dune exec tools/stress.exe -- --seeds 41-50 --modes deferred,quasi --fail-rates 0.1 --amnesia
# differential admission testing: incremental engine vs the string-based
# reference oracle, bit-identical decisions/edges/cycle-verdicts required,
# and no parked waiter may be admissible when the wake loop skips it
dune exec tools/stress.exe -- --seeds 41-60 --check-admission
dune exec tools/stress.exe -- --seeds 41-46 --modes deferred,quasi --fail-rates 0.1 --check-admission --amnesia
# forensics: a stress arm with the ring tracer enabled (failures would
# dump the last trace events + metrics snapshot into this log)
dune exec tools/stress.exe -- --seeds 41-45 --fail-rates 0.1 --trace-ring
# forensics self-test: inject an artificial invariant failure and assert
# the dump machinery actually fires (the run exits 1 by design)
out=$(dune exec tools/stress.exe -- --seeds 41 --modes deferred --fail-rates 0.0 \
        --trace-ring --inject-failure) && {
  echo "ci: injected failure did not fail the stress run"; exit 1; } || true
case "$out" in
  *"forensics: last trace events"*) ;;
  *) echo "ci: forensics dump missing from injected-failure output"; exit 1 ;;
esac
# the same self-test on the churn arm
out=$(dune exec tools/stress.exe -- --churn --seeds 41 --modes deferred \
        --trace-ring --inject-failure) && {
  echo "ci: injected failure did not fail the churn stress run"; exit 1; } || true
case "$out" in
  *"forensics: last trace events"*) ;;
  *) echo "ci: forensics dump missing from injected-failure churn output"; exit 1 ;;
esac
# systematic exploration: exhaust the built-in scenarios (also regenerates
# the P13 state-count record), then the mutation self-test — disabling the
# Lemma-1 commit deferral (a test-only scheduler hook) must yield a PRED
# violation whose minimized trace replays from the file
dune exec tools/explore.exe -- --quiet --bench-json bench/BENCH_P13.json
out=$(dune exec tools/explore.exe -- --quiet --scenario lemma1-mut \
        --expect-violation --trace-out _build/explore-mut.trace)
case "$out" in
  *"PRED violated"*) ;;
  *) echo "ci: Lemma-1 mutation did not produce a PRED violation"; exit 1 ;;
esac
out=$(dune exec tools/explore.exe -- --quiet --replay _build/explore-mut.trace)
case "$out" in
  *"reproduced:"*) ;;
  *) echo "ci: minimized mutation trace did not replay"; exit 1 ;;
esac
# disk-fault sweep: full byte-level axis (torn tails at every strided
# crash point, a bit flip at every byte of a multi-segment image, lying
# fsync windows) across all seed x mode combos; every fault must be
# tolerated as a torn tail or detected as corruption -- zero silent
# misreads, zero oracle violations
dune exec tools/crashsweep.exe -- --disk-only
# amnesia sweep: crash after EVERY 2PC message delivery for every seed x
# mode and recover without the coordinator's records (one participant
# per instance: in-doubt tokens presumed aborted); the full oracle suite
# minus presumed-abort soundness against the crash image, which amnesia
# legitimately gives up
dune exec tools/crashsweep.exe -- --amnesia-only
# stress with the WAL on real disk under each sync policy; after each run
# the on-disk log must load clean and match the in-memory record stream
dune exec tools/stress.exe -- --seeds 41-45 --fail-rates 0.1 --sync-policy group:0.2
dune exec tools/stress.exe -- --seeds 41-43 --sync-policy each
# server-mode stress: open-loop arrivals against the bounded-admission
# server under every overload policy; checks shed accounting, drain, and
# that the final stores equal a closed-batch run of the admitted subset
dune exec tools/stress.exe -- --serve --seeds 41-48
# the same open-world arm under the Checked engine: server arrivals land
# while earlier processes are parked, and every skipped parked waiter is
# re-derived (missed-wakeup detector) besides the engine cross-check
dune exec tools/stress.exe -- --serve --seeds 41-48 --check-admission
# the same Checked arm over a long history: a 200-vt arrival horizon
# leaves hundreds of terminated processes behind each admission, so
# retirement (the live index, the retired-skipping predecessor walk, the
# from-scratch retirement oracle) and Lemma 1's live-predecessor rule are
# cross-checked against the full-history references where retirement
# actually carries weight
dune exec tools/stress.exe -- --serve --seeds 41-44 --check-admission --serve-horizon 200
# server crash sweep: kill the scheduler at EVERY server-loop step
# (arrival decisions, enqueues, deadline sheds, queue pumps, all four
# drain stages) for every policy, and recover through the full oracle
# suite replaying exactly the admitted (possibly degraded) processes
dune exec tools/crashsweep.exe -- --serve-only
# page-level crash sweep: crash between EVERY pair of buffer-pool page
# flushes (1-frame pools over ballasted stores, two checkpoints mid-run:
# one sealed at once, one over a window), assert the WAL rule on the surviving page files (no page LSN
# beyond the durable marker), recover every store through the
# checkpoint-bounded redo plan against a durable-replay twin, and probe
# the torn-page posture (fail-stop refuses, salvage + full redo repairs)
dune exec tools/crashsweep.exe -- --pages-only
# shard-differential: clustered workloads through Shard.run_parallel with
# the per-shard admission oracle on and 2 domains; checks per-shard
# invariants, decision equivalence with a single-engine run, and recovery
# of every shard from its own on-disk WAL ("wal.log.shard<i>")
dune exec tools/stress.exe -- --shards 4 --domains 2 --seeds 41-55 --procs 12 --check-admission
# mixed-churn: staggered submissions with random abort requests; the
# latent base the dirty-set patch maintains (and its patched topological
# order) is checked against the from-scratch oracle at every time slice
dune exec tools/stress.exe -- --churn --seeds 41-55 --check-admission
# p16 smoke: sharded admission must hold p95 under 100us at 1k processes
# (8 conflict components), and beat the single engine's e2e throughput by
# >= 2x at the baseline scale; the per-shard differential oracle runs on
# 2 real domains inside the same smoke
dune exec bench/main.exe -- p16 --quick --max-p95-us 100 --min-speedup 2
# p15 smoke: under deep overload (>= 8x the admission window's capacity)
# every policy must keep pushing committed work — shed, never collapse —
# with the shed-accounting invariant exact at every measured point
# (offered = admitted + rejected + expired + degraded, queue drained)
dune exec bench/main.exe -- p15 --quick --min-goodput 0.3
# perf smoke: admission throughput at the quick scales must stay within
# 5x of the recorded floor (~25k admissions/s at 32 processes)
dune exec bench/main.exe -- p11 --quick --min-throughput 5000
# tracing-overhead smoke: the ring sink measures ~5-10% over the
# tracing-disabled baseline (the committed bench/BENCH_P12.json is the
# precise <=10% record); the smoke ceiling leaves headroom for the
# +/-6% run-to-run noise of shared hardware and exists to catch gross
# regressions such as an instrumentation site formatting eagerly again
dune exec bench/main.exe -- p12 --quick --max-overhead 0.20
# group-commit smoke: the storage-level axis must show batched fsyncs
# multiplying durable-commit throughput (batch-32 >= 2x fsync-per-record
# and above an absolute floor; measured ~210k rec/s vs the 20k floor)
dune exec bench/main.exe -- p14 --quick --min-throughput 20000
# p17 smoke: a pool at least as large as the dataset must stop paging
# (hit rate >= 95%; measured 100%), the bounded-redo oracle must hold at
# every pool size (always-on: rebuilt store equals the durable replay,
# no replayed record below the plan's bound), and the Tx read-set must
# stay linear (>= 100k reads/s in one transaction; measured ~1M)
dune exec bench/main.exe -- p17 --quick --min-hit-rate 0.95 --min-tx-reads 100000
# composite crash sweep at full coverage: crash at EVERY append while a
# grouped subprocess (Compose) is mid-flight under the weak order
# (order = Weak: commit order enforced in the subsystems), recover with
# the groups re-declared, and require the recovered
# subsystem histories commit-order serializable (runtest runs a strided
# slice; this arm exhausts all crash points for every seed)
dune exec tools/crashsweep.exe -- --composite-only
# p18 smoke: the headline — at the highest conflict density PRED with the
# weak order (order = Weak, enforced in the subsystems) must
# out-throughput BOTH classical baselines (strict 2PL and TSO over
# whole-process transactions), the weak order must shorten the PRED
# makespan by >= 1.05x, and the bench must exercise the retriable
# re-invocation path (> 0 local restarts)
dune exec bench/main.exe -- p18 --quick --min-weak-speedup 1.05 --check-baselines
# full bench regenerates the reference output, bench/BENCH_P11.json,
# bench/BENCH_P12.json, bench/BENCH_P14.json, bench/BENCH_P15.json,
# bench/BENCH_P16.json, bench/BENCH_P17.json and bench/BENCH_P18.json
dune exec bench/main.exe > bench/bench_output.txt 2>&1
