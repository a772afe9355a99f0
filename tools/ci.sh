#!/usr/bin/env bash
# Minimal CI: tier-1 verify (ROADMAP.md) + sanitizer passes over the
# concurrency-heavy tests + a Release-mode perf smoke test.
#
#   tools/ci.sh                # debug tests + sanitizers + release smoke bench
#   tools/ci.sh --no-bench     # skip the release bench
#   tools/ci.sh --no-sanitize  # skip the TSan/ASan/UBSan builds
set -euo pipefail
cd "$(dirname "$0")/.."

RUN_BENCH=1
RUN_SANITIZE=1
for arg in "$@"; do
  case "$arg" in
    --no-bench) RUN_BENCH=0 ;;
    --no-sanitize) RUN_SANITIZE=0 ;;
    *) echo "unknown option: $arg" >&2; exit 2 ;;
  esac
done

echo "== tier-1 verify =="
cmake -B build -S . && cmake --build build -j && (cd build && ctest --output-on-failure -j)

echo "== overload scenarios (N=50) =="
# The shedding scenarios gate the joiner with a scripted stall so the
# flood — and, where the gate fixes it, the exact shed count — is the same
# on every run; 50 repetitions prove no assertion leans on scheduling luck.
(cd build && ctest -L overload --repeat until-fail:50 --output-on-failure)

echo "== multi-process smoke =="
# `net`-labeled tests open localhost sockets; net_smoke_test additionally
# fork/execs the real dssj_cli + dssj_worker binaries and diffs the result
# set against a single-process run, and wire_codec_equivalence_test runs
# per-codec TCP clusters (raw/delta/delta+lz x batch sizes x faults).
# Sandboxed runners without sockets can skip the whole surface with
# `ctest -LE net` (the tests also self-skip when no localhost port can be
# bound).
(cd build && ctest -L net --output-on-failure)

echo "== elastic migration scenarios =="
# Live-migration exactness: blob-codec corruption fuzz, scripted
# migration/kill races, the 2->4->2 autoscale scenario, and the TCP
# handoff smoke (self-skips without sockets). Also part of `-L net` above;
# kept as its own stage so a migration regression is named in CI output.
(cd build && ctest -L migration --output-on-failure)

echo "== tiered state store =="
# Durable-state surface (docs/INTERNALS.md §13): checkpoint/segment file
# formats with torn-write + bit-flip fuzz, spill GC life cycle, checkpoint
# service ordering/wedging, the in-memory chain, and the
# recovery-equivalence suite (the base+delta chain in memory and on disk,
# spilled windows, kills landing mid-checkpoint).
(cd build && ctest -L store --output-on-failure)

echo "== store repetition (N=20) =="
# The fuzz seeds inside store_test are fixed for reproducibility; repeated
# runs re-explore the corruption space (truncation point, flipped bit, and
# file choice all re-randomize per iteration within a run, so repetition
# multiplies coverage). A failure here means a corrupt chain was read back
# as valid — the worst silent failure the store can have. The whole label
# repeats, so the spill exactness and recovery suites ride along.
(cd build && ctest -L store --repeat until-fail:20 --output-on-failure)

echo "== store tmpdir hygiene =="
# Every store/spill test routes its files through a mkdtemp dir under the
# gtest TempDir and removes it in the fixture dtor; litter here means a
# ScopedTempDir leak (or a checkpoint path escaping its store root), which
# would accumulate across CI runs.
LITTER=$(find "${TMPDIR:-/tmp}" -maxdepth 1 -name 'dssj_*' 2>/dev/null | head -5)
if [[ -n "$LITTER" ]]; then
  echo "store tests littered the temp dir:" >&2
  echo "$LITTER" >&2
  exit 1
fi

if [[ "$RUN_SANITIZE" == "1" ]]; then
  # Each sanitizer gets its own build tree; only the `tsan_safe`-labeled
  # tests (the queue/executor/supervision concurrency surface) are built and
  # run — the full suite under sanitizers is too slow for this host.
  TSAN_SAFE_TARGETS=(queue_test ring_queue_test queue_equivalence_test
                     topology_test topology_stress_test
                     stream_substrate_misc_test fault_recovery_test
                     checkpoint_equivalence_test store_test
                     distributed_join_test adaptive_router_test
                     ingest_lanes_test)

  echo "== thread sanitizer =="
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  cmake --build build-tsan -j --target "${TSAN_SAFE_TARGETS[@]}"
  (cd build-tsan && TSAN_OPTIONS="halt_on_error=1" ctest -L tsan_safe --output-on-failure)

  echo "== checkpoint thread repetition (TSan, N=10) =="
  # Every supervised bolt hands its frozen views to the checkpoint service
  # thread, and recovery barriers on it before reading the chain back
  # (docs/INTERNALS.md §13). Repeat the kill/recovery suites so a race
  # between freeze, off-thread encode, durable confirm and recovery has
  # real odds of surfacing.
  (cd build-tsan && TSAN_OPTIONS="halt_on_error=1" \
    ctest -R '^(fault_recovery_test|checkpoint_equivalence_test)$' --repeat until-fail:10 \
    --output-on-failure)

  echo "== sharded router snapshot-publish repetition (TSan, N=20) =="
  # With ingest lanes every lane's router reads the adaptive epoch list as
  # an immutable snapshot while the replanner CAS-publishes replacements
  # and folds observations under a try-lock (docs/INTERNALS.md §14). That
  # publish/read edge is the newest lock-free surface in the repo; repeat
  # the router unit tests and the shared-router lanes scenario so a torn
  # read or lost-observation schedule has real odds of surfacing.
  (cd build-tsan && TSAN_OPTIONS="halt_on_error=1" \
    ctest -R 'adaptive_router_test' --repeat until-fail:20 --output-on-failure)
  (cd build-tsan && TSAN_OPTIONS="halt_on_error=1" GTEST_FILTER='*SharedAdaptiveRouter*' \
    ctest -R 'ingest_lanes_test' --repeat until-fail:10 --output-on-failure)

  echo "== ring-queue race repetition (TSan, N=200) =="
  # The close/wake interleavings in the lock-free rings are the raciest
  # code in the repo and a single pass rarely explores them; hammer the
  # Queue<T> contract tests (both rings) and the ring stress tests 200
  # times under TSan so a stranded-waiter or missed-close schedule has
  # real odds of surfacing.
  (cd build-tsan && TSAN_OPTIONS="halt_on_error=1" \
    ctest -R '^(queue_test|ring_queue_test)$' --repeat until-fail:200 --output-on-failure)

  echo "== address sanitizer =="
  # ASan also covers the network surface: the transport threads + wire
  # parser run under it in-process, and the multi-process smoke re-runs
  # with both spawned binaries ASan-instrumented.
  ASAN_TARGETS=("${TSAN_SAFE_TARGETS[@]}"
                net_wire_test net_transport_test net_smoke_test
                wire_codec_equivalence_test wire_borrow_test
                migration_test store_test checkpoint_equivalence_test
                spill_joiner_test dssj_cli dssj_worker)
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address"
  cmake --build build-asan -j --target "${ASAN_TARGETS[@]}"
  (cd build-asan && ASAN_OPTIONS="detect_leaks=1" \
    ctest -L 'tsan_safe|net' --output-on-failure)

  echo "== sharded ingestion multi-process smoke (ASan, lanes=4) =="
  # A real two-process TCP cluster with the ingestion front end split into
  # four lanes, both binaries ASan-instrumented: the coordinator's pair set
  # must equal a single-lane in-process run over the same corpus
  # (docs/INTERNALS.md §14, exercised end-to-end through the CLI). Pair
  # *sets* are compared sorted — the sink's collection order is
  # interleaving-dependent; the set is not. Skips without localhost sockets.
  LANES_CLUSTER=$(python3 - <<'PYEOF'
import socket
try:
    a, b = socket.socket(), socket.socket()
    a.bind(("127.0.0.1", 0)); b.bind(("127.0.0.1", 0))
    print("127.0.0.1:%d,127.0.0.1:%d" % (a.getsockname()[1], b.getsockname()[1]))
    a.close(); b.close()
except OSError:
    pass
PYEOF
)
  if [[ -z "$LANES_CLUSTER" ]]; then
    echo "no localhost sockets; skipping lanes smoke"
  else
    LANES_TMP=$(mktemp -d "${TMPDIR:-/tmp}/ci_lanes.XXXXXX")
    python3 - "$LANES_TMP/corpus.txt" <<'PYEOF'
import sys
rng = 0x243F6A8885A308D3
lines = []
for i in range(2000):
    rng = (rng * 6364136223846793005 + 1442695040888963407) % (1 << 64)
    if i % 3 == 2 and i >= 2:  # near-duplicate of a recent line
        base = lines[i - 1 - (rng % 2)].split()
        base[rng % len(base)] = "w%d" % ((rng >> 33) % 400)
        lines.append(" ".join(base))
        continue
    words = []
    for _ in range(3 + rng % 9):
        rng = (rng * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        words.append("w%d" % ((rng >> 33) % 400))
    lines.append(" ".join(words))
open(sys.argv[1], "w").write("\n".join(lines) + "\n")
PYEOF
    LANES_FLAGS=(--threshold=600 --joiners=4 --max-pairs=100000)
    ASAN_OPTIONS="detect_leaks=1" ./build-asan/examples/dssj_cli \
        "$LANES_TMP/corpus.txt" "${LANES_FLAGS[@]}" | grep '~' | sort > "$LANES_TMP/ref.txt"
    [[ -s "$LANES_TMP/ref.txt" ]]  # a pair-free corpus would make this vacuous
    ASAN_OPTIONS="detect_leaks=1" ./build-asan/examples/dssj_worker --rank=1 \
        --transport=tcp --connect="$LANES_CLUSTER" --ingest_lanes=4 "${LANES_FLAGS[@]}" &
    LANES_WORKER=$!
    ASAN_OPTIONS="detect_leaks=1" ./build-asan/examples/dssj_cli "$LANES_TMP/corpus.txt" \
        --transport=tcp --connect="$LANES_CLUSTER" --ingest_lanes=4 "${LANES_FLAGS[@]}" \
        | grep '~' | sort > "$LANES_TMP/lanes4.txt"
    wait "$LANES_WORKER"
    diff -u "$LANES_TMP/ref.txt" "$LANES_TMP/lanes4.txt"
    rm -rf "$LANES_TMP"
  fi

  echo "== tiered state store (ASan) =="
  # The store suite's failure modes are exactly ASan's beat: torn-write
  # fuzz walks ReadCheckpoint/segment parsers over truncated and bit-flipped
  # files (out-of-bounds reads on corrupt varints), and the spill read-back
  # path hands borrowed frame bytes across the probe boundary. Includes the
  # recovery-equivalence suite so restore-time buffer handling runs
  # instrumented too.
  (cd build-asan && ASAN_OPTIONS="detect_leaks=1" \
    ctest -L store --output-on-failure)

  echo "== wire fuzz + borrow lifetime (ASan) =="
  # The fuzz battery (>= 5000 structured mutations over all three codecs,
  # owning and arena parse paths) and the borrow-lifetime regressions
  # (net_arena_pool=0 frees every frame buffer at last-borrower drop) are
  # exactly the tests whose failure mode is a silent out-of-bounds read —
  # they only prove anything under ASan, so they get an explicit stage.
  (cd build-asan && ASAN_OPTIONS="detect_leaks=1" \
    ctest -R 'net_wire_test|wire_borrow_test' --output-on-failure)

  echo "== undefined behavior sanitizer =="
  # UBSan is cheap enough to cover the overload/shedding surface on top of
  # the concurrency set (shed accounting does a lot of size_t arithmetic).
  UBSAN_TARGETS=("${TSAN_SAFE_TARGETS[@]}" overload_test
                 net_wire_test wire_borrow_test)
  cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=undefined"
  cmake --build build-ubsan -j --target "${UBSAN_TARGETS[@]}"
  (cd build-ubsan && UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
    ctest -L 'tsan_safe|overload' --output-on-failure)

  echo "== wire fuzz (UBSan) =="
  # Varint shifting, zigzag casts, and LZ offset arithmetic are the repo's
  # densest integer-overflow surface; run the mutational battery under
  # UBSan as well as ASan.
  (cd build-ubsan && UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
    ctest -R 'net_wire_test|wire_borrow_test' --output-on-failure)
fi

if [[ "$RUN_BENCH" == "1" ]]; then
  echo "== release smoke bench =="
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-release -j --target bench_local_join
  ./build-release/bench/bench_local_join --records=20000 \
    --benchmark_filter='BM_RecordJoiner/40|BM_BundleJoiner/40'
fi

echo "CI OK"
