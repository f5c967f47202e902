#!/usr/bin/env sh
# Bounded fuzz campaign: the deterministic parser mutation fuzzer plus a
# scaled-up run of the router differential property, whose generator
# randomizes the A* lookahead weight across 0.9..1.2 (admissible to
# mildly weighted), flips net_parallel, and — since the timing-driven
# refactor — flips
# timing_driven (~35% of cases) with a criticality exponent drawn from
# {1.0, 1.5, ..., 3.0} and max_criticality from {0.99, 0.999}, so both
# search cores, the batch scheduler and the blended timing cost are
# exercised against the reference oracle on every campaign. Timing-driven
# cases pair the production incremental STA against the naive
# full-recompute reference hook. The placer differential campaign then
# drives the incremental bounding-box cost model against the full-rescan
# oracle over randomized move/swap sequences with randomized placer knobs
# (directed-move generators, timing-driven second anneal, weighted nets).
# The ECO campaign then
# replays randomized edit streams (the generator's mutation mode: pin
# connects/disconnects/retargets, block moves/swaps, with a deliberate
# minority of precondition-violating ops) through a live EcoFlow session,
# checking every apply against the from-scratch oracle (bitwise packing/
# placed-net equivalence, legal routing, zero overuse, 1e-12 STA
# agreement); next comes the dedicated incremental-vs-full STA property
# over randomized rip-up sequences. The campaign finishes with the
# flow-cache concurrency property: randomized concurrent job mixes
# (mutated seeds/widths/timing modes, 1..8 scheduler workers, coin-flip
# tiny-budget caches that force eviction churn) submitted through the
# shared artifact cache + job scheduler, with every job's result checked
# bit-identical against a solo self-contained run_flow.
# Runs under whatever sanitizer configuration the build directory was
# configured with; for the zero-crash guarantee the harness is designed
# around, run it against an ASan/UBSan build:
#
#   cmake -B build-asan -S . -DNF_ASAN=ON -DNF_UBSAN=ON
#   cmake --build build-asan -j --target fuzz_parsers prop_route_diff \
#       prop_eco_diff prop_sta_incremental
#   tools/run_fuzz.sh build-asan 100000
#
# The generator also flips the RR-graph backend (~50% implicit) and —
# since the switch-technology registry refactor — the switch-block
# pattern (~55% Wilton, the rest split across subset / universal /
# custom with rotations 0..W+1 to hit the degenerate and modulo-folded
# corners), so every campaign differential-tests the coordinate-computed
# graph and the parameterized sb_turn_track machinery against the
# stored-adjacency oracle. The
# flow-cache stage additionally pins the backend x sb_pattern artifact
# key space: combinations share one cache and must never alias.
#
# Usage: tools/run_fuzz.sh [BUILD_DIR] [ITERS] [SEED] [--implicit]
#   BUILD_DIR  build tree containing tests/prop/fuzz_parsers (default: build)
#   ITERS      mutation iterations (default: 50000); the router property
#              runs ITERS/100 randomized designs
#   SEED       base seed; vary it to explore a different input sequence
#              (default: 1). A failing run prints the --seed/--iters (or
#              NF_PROP_SEED/NF_PROP_CASE) pair that replays the failure
#              deterministically.
#   --implicit pin every router case to the implicit RR backend
#              (NF_PROP_IMPLICIT=1): a focused campaign on the computed
#              neighbor functions instead of the 50/50 default mix.
set -eu

BUILD_DIR="${1:-build}"
ITERS="${2:-50000}"
SEED="${3:-1}"
NF_PROP_IMPLICIT="${NF_PROP_IMPLICIT:-0}"
if [ "${4:-}" = "--implicit" ]; then
  NF_PROP_IMPLICIT=1
fi
export NF_PROP_IMPLICIT

find_bin() {
  # gtest_discover_tests layouts differ; fall back to a search.
  if [ -x "$BUILD_DIR/tests/prop/$1" ]; then
    echo "$BUILD_DIR/tests/prop/$1"
  else
    find "$BUILD_DIR" -name "$1" -type f -perm -u+x 2>/dev/null \
      | head -n 1 || true
  fi
}

BIN=$(find_bin fuzz_parsers)
if [ -z "${BIN:-}" ] || [ ! -x "$BIN" ]; then
  echo "run_fuzz.sh: fuzz_parsers not found under '$BUILD_DIR'" \
       "(build it first: cmake --build $BUILD_DIR --target fuzz_parsers)" >&2
  exit 2
fi

echo "run_fuzz.sh: $BIN --iters $ITERS --seed $SEED"
"$BIN" --iters "$ITERS" --seed "$SEED"

ROUTE_BIN=$(find_bin prop_route_diff)
if [ -z "${ROUTE_BIN:-}" ] || [ ! -x "$ROUTE_BIN" ]; then
  echo "run_fuzz.sh: prop_route_diff not built; skipping the router" \
       "differential campaign" >&2
  exit 0
fi

ROUTE_CASES=$((ITERS / 100))
[ "$ROUTE_CASES" -ge 50 ] || ROUTE_CASES=50
echo "run_fuzz.sh: $ROUTE_BIN (NF_PROP_CASES=$ROUTE_CASES" \
     "NF_PROP_SEED=$SEED NF_PROP_IMPLICIT=$NF_PROP_IMPLICIT," \
     "astar_factor randomized in [0.9, 1.2], rr_backend, net_parallel," \
     "sb_pattern (wilton/subset/universal/custom) and" \
     "timing_driven/criticality_exp/max_criticality randomized)"
NF_PROP_CASES="$ROUTE_CASES" NF_PROP_SEED="$SEED" "$ROUTE_BIN"

PLACE_BIN=$(find_bin prop_place_diff)
if [ -z "${PLACE_BIN:-}" ] || [ ! -x "$PLACE_BIN" ]; then
  echo "run_fuzz.sh: prop_place_diff not built; skipping the placer" \
       "differential campaign" >&2
else
  PLACE_CASES=$((ITERS / 200))
  [ "$PLACE_CASES" -ge 30 ] || PLACE_CASES=30
  echo "run_fuzz.sh: $PLACE_BIN (NF_PROP_CASES=$PLACE_CASES" \
       "NF_PROP_SEED=$SEED, randomized move sequences vs full-rescan" \
       "oracle; directed/timing knobs randomized per case)"
  NF_PROP_CASES="$PLACE_CASES" NF_PROP_SEED="$SEED" "$PLACE_BIN"
fi

ECO_BIN=$(find_bin prop_eco_diff)
if [ -z "${ECO_BIN:-}" ] || [ ! -x "$ECO_BIN" ]; then
  echo "run_fuzz.sh: prop_eco_diff not built; skipping the ECO" \
       "edit-stream replay campaign" >&2
else
  ECO_CASES=$((ITERS / 500))
  [ "$ECO_CASES" -ge 25 ] || ECO_CASES=25
  echo "run_fuzz.sh: $ECO_BIN (NF_PROP_CASES=$ECO_CASES" \
       "NF_PROP_SEED=$SEED, randomized edit streams — connects," \
       "disconnects, retargets, moves, swaps, ~12% deliberate" \
       "precondition violations — replayed against the from-scratch" \
       "flow oracle)"
  NF_PROP_CASES="$ECO_CASES" NF_PROP_SEED="$SEED" "$ECO_BIN" \
      --gtest_filter='PropEcoDiff.ReplayMatchesFromScratch'
fi

STA_BIN=$(find_bin prop_sta_incremental)
if [ -z "${STA_BIN:-}" ] || [ ! -x "$STA_BIN" ]; then
  echo "run_fuzz.sh: prop_sta_incremental not built; skipping the" \
       "incremental-STA differential campaign" >&2
  exit 0
fi

STA_CASES=$((ITERS / 500))
[ "$STA_CASES" -ge 20 ] || STA_CASES=20
echo "run_fuzz.sh: $STA_BIN (NF_PROP_CASES=$STA_CASES NF_PROP_SEED=$SEED," \
     "randomized rip-up sequences vs full-recompute STA)"
NF_PROP_CASES="$STA_CASES" NF_PROP_SEED="$SEED" "$STA_BIN"

CACHE_BIN=$(find_bin prop_flow_cache)
if [ -z "${CACHE_BIN:-}" ] || [ ! -x "$CACHE_BIN" ]; then
  echo "run_fuzz.sh: prop_flow_cache not built; skipping the concurrent" \
       "job-mix campaign" >&2
  exit 0
fi

CACHE_CASES=$((ITERS / 1000))
[ "$CACHE_CASES" -ge 12 ] || CACHE_CASES=12
echo "run_fuzz.sh: $CACHE_BIN (NF_PROP_CASES=$CACHE_CASES" \
     "NF_PROP_SEED=$SEED, randomized concurrent job mixes — mutated" \
     "seeds/widths/timing, 1..8 workers, coin-flip tiny-budget caches —" \
     "each job checked bit-identical against a solo run_flow; plus the" \
     "backend x sb_pattern no-aliasing property on a shared cache)"
NF_PROP_CASES="$CACHE_CASES" NF_PROP_SEED="$SEED" exec "$CACHE_BIN" \
    --gtest_filter='PropFlowCache.ConcurrentJobMixesMatchSoloFlows:PropFlowCache.BackendsAndPatternsNeverAliasArtifacts'
