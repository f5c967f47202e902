#!/usr/bin/env python3
"""Compare two bench JSON files: BENCH_route.json (schema
nemfpga-route-bench-1/2/3/4), BENCH_place.json (nemfpga-place-bench-1) or
BENCH_eco.json (nemfpga-eco-bench-1).

Usage:
    bench_check.py BASELINE.json CANDIDATE.json [--max-regress PCT]
    bench_check.py --selftest

Exit status is non-zero when the candidate run
  * is missing, malformed, or uses an unknown schema,
  * disagrees with the baseline on any correctness-bearing field
    (Wmin, tree checksum, iteration count, fixed route width), or
  * regresses total wall time by more than --max-regress percent
    (default 15; wall time is noisy, correctness fields are not).

Wall-time comparison is refused — but correctness fields and work
counters still diffed — when the two runs are not wall-comparable:
different schema versions, different thread counts, or mismatched
NF_CHECK_INVARIANTS settings. Counter comparison is likewise skipped
across a router-configuration change (schema mismatch, or different
astar_factor / net_parallel / timing_driven / crit_exp), since a
different search legitimately explores different work; the correctness
fields (Wmin, checksum, iterations, critical path) are then the only
fields that must hold, and only when the router configuration matches.
Cross-schema comparisons (e.g. a schema-2 baseline against a schema-3
timing run) are therefore always refused beyond circuit coverage: a
schema bump changes what the harness measures.

Schema 3 adds the timing-driven router: timing_driven / crit_exp select
the configuration, and critical_path_s joins the correctness fields —
the timing-driven route is bit-deterministic, so any drift between
same-configuration runs is a correctness bug, not noise.

Schema 4 adds the selectable RR backend. rr_backend deliberately does
NOT join the configuration tuple — the implicit and explicit graphs are
bit-identical by construction, so cross-backend runs must agree on every
correctness field and work counter; diffing them is exactly how that
claim is audited. Wall-time comparison, however, additionally requires
the same rr_backend (per-expansion cost differs between backends), and
the memory measurements (rr_bytes, rr_bytes_per_node, peak_rss_bytes)
are never compared — except rr_nodes, which is backend-invariant and
pinned. A circuit's "infeasible" verdict is a correctness field: a
design flipping between routable and unroutable is a router bug.

The place family (nemfpga-place-bench-1, written by bench/place_perf)
follows the same philosophy with placer-shaped fields. The annealing
trajectory is pinned bit-identical across thread counts, so `threads`
does not join the configuration tuple: diffing a 1-thread run against
an 8-thread run is exactly how that claim is audited — the final cost,
the placement checksum, and the move/accept/rescan counters must all
hold. The knobs that legitimately change the trajectory (timing_driven,
inner_num, seed) ARE the configuration. Wall time
additionally requires the same threads. A route bench and a place bench
measure
different programs entirely, so cross-family comparison is a hard
error, not a waiver.

The eco family (nemfpga-eco-bench-1, written by bench/eco_perf) records
a seeded edit-stream replay through a live EcoFlow session. The stream
(edit_seed + edits), the session width and the local-replace seed ARE
the configuration: a different stream applies different edits, so
nothing beyond circuit coverage is comparable across it. Within one
configuration the status tallies (ok/rejected/unroutable), fallback and
work counters, the final tree checksum and the critical path are pinned
bit-identical at any thread count — the ECO reroute sessions run the
deterministic batched scheduler, so cross-thread diffs audit that claim
exactly like the place family's. The latency percentiles (apply_p50_s
and friends) are wall-clock samples: they are compared only between
wall-comparable runs (same schema, threads AND configuration — i.e.
identical edit streams), against the same --max-regress budget as
total_wall_s; everywhere else they are waived, never pinned. Cross-
family comparison is again a hard error.

The serve family (nemfpga-serve-bench-1, written by bench/flow_throughput)
records one job mix — N same-architecture flows differing only in
placement seed — measured as cold-seq / cold-batch / warm-batch modes
(the "circuits" rows). The mix (benchmark, jobs, w, timing, seed0,
cache_mb) IS the configuration; threads is deliberately excluded — the
scheduler is required to be bit-identical at any worker count, so the
cross-thread diff audits exactly that. Within one configuration the
per-mode batch checksum, job tallies and the cache counters (misses /
evictions / reuses / lookahead_cached) are pinned: single-flight
construction makes the build count exact no matter how many workers
race. Wall comparisons (total_wall_s and per-mode wall_s) are REFUSED
across thread counts — an 8-worker batch and a 1-worker batch measure
different machines — and budget-checked otherwise. jobs_per_s and the
artifact microbench walls are never compared (derived / noisy).
Cross-family comparison is a hard error.

The arch family (nemfpga-arch-bench-1, written by bench/arch_exploration)
records the architecture-exploration study: one mapped design per fabric
point (switch-block pattern x segment length x Fc), re-evaluated
electrically under every requested switch-technology backend. The
(benchmark, w, downsize) triple IS the configuration; each "circuits"
row is one (backend, fabric) cell keyed by name. Every metric —
routability verdict, tree checksum, critical path, dynamic/leakage
power, area — is a deterministic function of that cell, so all are
pinned bit-identical within one configuration; the per-cell wall_s and
total_wall_s are the only budget-checked fields, and only between
same-schema same-configuration runs. The paper_slice object (the
NEM-vs-CMOS reduction column at the Table 1 operating point) is pinned
too. Cross-family comparison is a hard error.

Only the Python standard library is used, so the script runs anywhere
CTest does (see the bench_smoke target).
"""

import argparse
import json
import sys

ROUTE_SCHEMAS = ("nemfpga-route-bench-1", "nemfpga-route-bench-2",
                 "nemfpga-route-bench-3", "nemfpga-route-bench-4")
PLACE_SCHEMAS = ("nemfpga-place-bench-1",)
ECO_SCHEMAS = ("nemfpga-eco-bench-1",)
SERVE_SCHEMAS = ("nemfpga-serve-bench-1",)
ARCH_SCHEMAS = ("nemfpga-arch-bench-1",)
SCHEMAS = (ROUTE_SCHEMAS + PLACE_SCHEMAS + ECO_SCHEMAS + SERVE_SCHEMAS +
           ARCH_SCHEMAS)
EXACT_FIELDS = ("wmin", "tree_checksum", "iterations", "fixed_w")
# Later-schema additions; compared with .get() so they are simply absent
# (None == None) when two older files are diffed. rr_nodes is pinned
# because the node set is backend-invariant by construction; rr_bytes
# and the RSS measurements are intentionally NOT here.
EXACT_OPTIONAL_FIELDS = ("critical_path_s", "infeasible", "rr_nodes")
COUNTER_FIELDS = ("heap_pushes", "nodes_expanded", "sink_searches")
COUNTER_OPTIONAL_FIELDS = ("sta_net_evals", "sta_block_updates")

# Place-family correctness fields (flat per-circuit keys, no "counters"
# sub-object). All of these are pinned across thread counts: the
# annealing trajectory is deterministic.
PLACE_EXACT_FIELDS = ("final_cost", "final_weighted_cost", "cost_checksum",
                      "moves", "accepted", "rescans",
                      "route_w", "routed", "critical_path_s")

# Eco-family correctness fields: every one is a deterministic function of
# the edit stream (part of the configuration tuple), pinned bit-identical
# at any thread count. The latency percentiles are deliberately absent —
# they are wall-clock samples, handled by the wall budget below.
ECO_EXACT_FIELDS = ("ok", "rejected", "unroutable", "full_fallbacks",
                    "nets_invalidated", "nets_rerouted", "blocks_moved",
                    "sta_nets_evaluated", "tree_checksum", "final_cycle",
                    "critical_path_s")
# Wall-clock percentile fields checked against the --max-regress budget,
# but only between wall-comparable runs (identical edit streams).
ECO_LATENCY_FIELDS = ("apply_p50_s", "apply_p99_s",
                      "reroute_p50_s", "reroute_p99_s")

# Serve-family correctness fields, pinned per mode (cold-seq /
# cold-batch / warm-batch) within one job-mix configuration at ANY
# worker count: the scheduler is bit-identical across thread counts and
# single-flight construction makes the cache's build count exact.
SERVE_EXACT_FIELDS = ("ok_jobs", "batch_checksum", "cache_misses",
                      "cache_evictions", "cache_reuses",
                      "lookahead_cached")

# Arch-family correctness fields, pinned per (backend, fabric) cell
# within one (benchmark, w, downsize) configuration: the mapping is
# deterministic and the electrical evaluation is pure arithmetic over
# it, so every metric is bit-exact run to run. wall_s is deliberately
# absent (budget-checked instead).
ARCH_EXACT_FIELDS = ("backend", "sb_pattern", "seg_len", "fc_in",
                     "downsize", "routed", "tree_checksum",
                     "critical_path_s", "dynamic_w", "leakage_w",
                     "area_m2")
# The NEM-vs-CMOS reduction column at the Table 1 point; pinned as a
# whole object within one configuration.
ARCH_SLICE_FIELDS = ("downsize", "speedup", "dynamic_reduction",
                     "leakage_reduction", "area_reduction")


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    if data.get("schema") not in SCHEMAS:
        raise ValueError(f"{path}: schema {data.get('schema')!r}, "
                         f"expected one of {SCHEMAS!r}")
    if not isinstance(data.get("circuits"), list) or not data["circuits"]:
        raise ValueError(f"{path}: no circuits recorded")
    return data


def family(data):
    """Which harness produced the file: route, place, eco or serve."""
    if data.get("schema") in PLACE_SCHEMAS:
        return "place"
    if data.get("schema") in ECO_SCHEMAS:
        return "eco"
    if data.get("schema") in SERVE_SCHEMAS:
        return "serve"
    if data.get("schema") in ARCH_SCHEMAS:
        return "arch"
    return "route"


def place_config(data):
    """The fields that select which annealing trajectory ran. threads is
    deliberately excluded: the placer is required to be bit-identical
    across thread counts, so cross-thread diffs must still pin every
    correctness field — that diff IS the audit."""
    return ("place-1", data.get("timing_driven"), data.get("inner_num"),
            data.get("seed"))


def eco_config(data):
    """The fields that select which edit stream replayed: the session
    width, the stream (seed + length) and the local-replace seed. threads
    is deliberately excluded — the replay is pinned bit-identical across
    thread counts, and the cross-thread diff IS that audit."""
    return ("eco-1", data.get("w"), data.get("edits"),
            data.get("edit_seed"), data.get("seed"))


def serve_config(data):
    """The fields that select which job mix ran: the circuit, the job
    count, the width, the timing mode, the seed base and the cache
    budget (evictions depend on it). threads is deliberately excluded —
    the scheduler is pinned bit-identical at any worker count, and the
    cross-thread diff IS that audit; wall comparisons are refused across
    thread counts instead."""
    return ("serve-1", data.get("benchmark"), data.get("jobs"),
            data.get("w"), data.get("timing"), data.get("seed0"),
            data.get("cache_mb"))


def arch_config(data):
    """The fields that select which exploration ran: the circuit, the
    channel width and the downsizing factor offered to backends that
    support it. The backend/pattern/fabric axes are deliberately NOT
    part of the configuration — they key the per-cell rows, and a
    candidate sweeping a superset of cells still compares the shared
    ones."""
    return ("arch-1", data.get("benchmark"), data.get("w"),
            data.get("downsize"))


def router_config(data):
    """The fields that select which router ran. Schema 1 predates the
    A*/parallel router, so it is its own configuration; the schema tag is
    part of the key, so cross-schema runs never compare correctness or
    counters (a schema bump changes what the harness measures)."""
    schema = data.get("schema")
    if schema == "nemfpga-route-bench-1":
        return ("bench-1",)
    if schema == "nemfpga-route-bench-2":
        return ("bench-2", data.get("astar_factor"),
                data.get("net_parallel"))
    if schema == "nemfpga-route-bench-3":
        return ("bench-3", data.get("astar_factor"),
                data.get("net_parallel"), data.get("timing_driven"),
                data.get("crit_exp"))
    # Schema 4: the RR backend does not select the routing (bit-identical
    # by design — cross-backend runs must agree on correctness fields,
    # which is how the claim is audited).
    return ("bench-4", data.get("astar_factor"), data.get("net_parallel"),
            data.get("timing_driven"), data.get("crit_exp"))


def compare(base, cand, max_regress_pct):
    """Return a list of human-readable failure strings (empty = pass)."""
    if family(base) != family(cand):
        # Unlike a schema bump (which waives down to circuit coverage), a
        # route file and a place file describe different programs; a diff
        # request across families is operator error and must be loud.
        return [f"cannot compare a {family(base)} bench "
                f"({base.get('schema')}) against a {family(cand)} bench "
                f"({cand.get('schema')}): different benchmark families"]
    if family(base) == "place":
        return compare_place(base, cand, max_regress_pct)
    if family(base) == "eco":
        return compare_eco(base, cand, max_regress_pct)
    if family(base) == "serve":
        return compare_serve(base, cand, max_regress_pct)
    if family(base) == "arch":
        return compare_arch(base, cand, max_regress_pct)
    return compare_route(base, cand, max_regress_pct)


def compare_arch(base, cand, max_regress_pct):
    failures = []
    notes = []
    same_config = arch_config(base) == arch_config(cand)
    if not same_config:
        notes.append(
            "arch exploration configuration differs "
            f"({arch_config(base)} vs {arch_config(cand)}): different "
            "studies ran; only checking cell coverage")
    wall_comparable = (
        base.get("schema") == cand.get("schema") and same_config)
    if not wall_comparable:
        notes.append("runs are not wall-comparable: wall budget waived")
    budget = 1.0 + max_regress_pct / 100.0
    base_by_name = {c["name"]: c for c in base["circuits"]}
    for c in cand["circuits"]:
        b = base_by_name.get(c["name"])
        if b is None:
            # Candidate may sweep a superset of cells; that is fine.
            continue
        if not same_config:
            continue
        for fld in ARCH_EXACT_FIELDS:
            if b.get(fld) != c.get(fld):
                failures.append(
                    f"{c['name']}: {fld} changed "
                    f"{b.get(fld)!r} -> {c.get(fld)!r} (the electrical "
                    "evaluation is a pure function of the mapped design; "
                    "any drift is a correctness bug)")
        if wall_comparable:
            bl, cl = b.get("wall_s"), c.get("wall_s")
            if isinstance(bl, (int, float)) and \
                    isinstance(cl, (int, float)) and \
                    bl > 0 and cl > bl * budget:
                failures.append(
                    f"{c['name']}: wall_s regressed "
                    f"{bl:.2f}s -> {cl:.2f}s "
                    f"(> {max_regress_pct:.0f}% budget)")
    missing = [n for n in base_by_name
               if n not in {c["name"] for c in cand["circuits"]}]
    if missing:
        failures.append(f"candidate dropped cells: {', '.join(missing)}")
    if same_config:
        bs, cs = base.get("paper_slice"), cand.get("paper_slice")
        if (bs is None) != (cs is None):
            failures.append(
                "paper_slice coverage changed "
                f"({'present' if bs else 'absent'} -> "
                f"{'present' if cs else 'absent'})")
        elif bs is not None:
            for fld in ARCH_SLICE_FIELDS:
                if bs.get(fld) != cs.get(fld):
                    failures.append(
                        f"paper_slice: {fld} changed "
                        f"{bs.get(fld)!r} -> {cs.get(fld)!r} (the "
                        "NEM-vs-CMOS reduction column is deterministic)")
    bw, cw = base["total_wall_s"], cand["total_wall_s"]
    if wall_comparable and bw > 0 and cw > bw * budget:
        failures.append(
            f"total_wall_s regressed {bw:.2f}s -> {cw:.2f}s "
            f"(> {max_regress_pct:.0f}% budget)")
    for n in notes:
        print(f"bench_check: note: {n}", file=sys.stderr)
    return failures


def compare_serve(base, cand, max_regress_pct):
    failures = []
    notes = []
    same_config = serve_config(base) == serve_config(cand)
    if not same_config:
        notes.append(
            "serve job-mix configuration differs "
            f"({serve_config(base)} vs {serve_config(cand)}): different "
            "flows ran; only checking mode coverage")
    # Wall comparisons are refused across thread counts: an 8-worker
    # batch and a 1-worker batch measure different machines. The pinned
    # counters below are still fully compared — the scheduler and the
    # cache's single-flight protocol are required to be worker-count
    # invariant, and that diff is the audit.
    wall_comparable = (
        base.get("schema") == cand.get("schema")
        and base.get("threads") == cand.get("threads")
        and same_config)
    if not wall_comparable:
        if base.get("threads") != cand.get("threads"):
            notes.append(
                "refusing wall comparison across thread counts "
                f"({base.get('threads')} vs {cand.get('threads')}): wall "
                "budget waived, deterministic counters still pinned")
        else:
            notes.append("runs are not wall-comparable: wall budget waived")
    budget = 1.0 + max_regress_pct / 100.0
    base_by_name = {c["name"]: c for c in base["circuits"]}
    for c in cand["circuits"]:
        b = base_by_name.get(c["name"])
        if b is None:
            continue
        if not same_config:
            continue
        for fld in SERVE_EXACT_FIELDS:
            if b.get(fld) != c.get(fld):
                failures.append(
                    f"{c['name']}: {fld} changed "
                    f"{b.get(fld)!r} -> {c.get(fld)!r} (the job mix is "
                    "pinned bit-identical at any worker count and "
                    "single-flight makes the build count exact; any "
                    "drift is a correctness bug)")
        if wall_comparable:
            bl, cl = b.get("wall_s"), c.get("wall_s")
            if isinstance(bl, (int, float)) and \
                    isinstance(cl, (int, float)) and \
                    bl > 0 and cl > bl * budget:
                failures.append(
                    f"{c['name']}: wall_s regressed "
                    f"{bl:.2f}s -> {cl:.2f}s "
                    f"(> {max_regress_pct:.0f}% budget)")
    missing = [n for n in base_by_name
               if n not in {c["name"] for c in cand["circuits"]}]
    if missing:
        failures.append(f"candidate dropped modes: {', '.join(missing)}")
    bw, cw = base["total_wall_s"], cand["total_wall_s"]
    if wall_comparable and bw > 0 and cw > bw * budget:
        failures.append(
            f"total_wall_s regressed {bw:.2f}s -> {cw:.2f}s "
            f"(> {max_regress_pct:.0f}% budget)")
    for n in notes:
        print(f"bench_check: note: {n}", file=sys.stderr)
    return failures


def compare_eco(base, cand, max_regress_pct):
    failures = []
    notes = []
    same_config = eco_config(base) == eco_config(cand)
    if not same_config:
        notes.append(
            "eco configuration differs "
            f"({eco_config(base)} vs {eco_config(cand)}): a different "
            "edit stream applies different edits; only checking circuit "
            "coverage")
    base_by_name = {c["name"]: c for c in base["circuits"]}
    # Latency percentiles compare only between identical edit streams on
    # like-for-like machines: same schema + threads + configuration.
    wall_comparable = (
        base.get("schema") == cand.get("schema")
        and base.get("threads") == cand.get("threads")
        and same_config)
    if not wall_comparable:
        notes.append(
            "runs are not wall-comparable "
            f"(threads {base.get('threads')} vs {cand.get('threads')}): "
            "wall budget and latency percentiles waived")
    budget = 1.0 + max_regress_pct / 100.0
    for c in cand["circuits"]:
        b = base_by_name.get(c["name"])
        if b is None:
            continue
        if not same_config:
            continue
        for fld in ECO_EXACT_FIELDS:
            if b.get(fld) != c.get(fld):
                failures.append(
                    f"{c['name']}: {fld} changed "
                    f"{b.get(fld)!r} -> {c.get(fld)!r} (the edit-stream "
                    "replay is pinned bit-identical at any thread count; "
                    "any drift is a correctness bug)")
        if wall_comparable:
            for fld in ECO_LATENCY_FIELDS:
                bl, cl = b.get(fld), c.get(fld)
                if isinstance(bl, (int, float)) and \
                        isinstance(cl, (int, float)) and \
                        bl > 0 and cl > bl * budget:
                    failures.append(
                        f"{c['name']}: {fld} regressed "
                        f"{bl * 1e3:.2f}ms -> {cl * 1e3:.2f}ms "
                        f"(> {max_regress_pct:.0f}% budget)")
    missing = [n for n in base_by_name
               if n not in {c["name"] for c in cand["circuits"]}]
    if missing:
        failures.append(f"candidate dropped circuits: {', '.join(missing)}")
    bw, cw = base["total_wall_s"], cand["total_wall_s"]
    if wall_comparable and bw > 0 and cw > bw * budget:
        failures.append(
            f"total_wall_s regressed {bw:.2f}s -> {cw:.2f}s "
            f"(> {max_regress_pct:.0f}% budget)")
    for n in notes:
        print(f"bench_check: note: {n}", file=sys.stderr)
    return failures


def compare_place(base, cand, max_regress_pct):
    failures = []
    notes = []
    same_config = place_config(base) == place_config(cand)
    if not same_config:
        notes.append(
            "placer configuration differs "
            f"({place_config(base)} vs {place_config(cand)}): "
            "correctness fields are not comparable; only checking "
            "circuit coverage")
    base_by_name = {c["name"]: c for c in base["circuits"]}
    for c in cand["circuits"]:
        b = base_by_name.get(c["name"])
        if b is None:
            continue
        if not same_config:
            continue
        for fld in PLACE_EXACT_FIELDS:
            if b.get(fld) != c.get(fld):
                failures.append(
                    f"{c['name']}: {fld} changed "
                    f"{b.get(fld)!r} -> {c.get(fld)!r} (the annealing "
                    "trajectory is pinned bit-identical across threads; "
                    "any drift is a correctness bug)")
    missing = [n for n in base_by_name
               if n not in {c["name"] for c in cand["circuits"]}]
    if missing:
        failures.append(f"candidate dropped circuits: {', '.join(missing)}")

    # Wall times compare only between like-for-like machines: the same
    # thread count.
    wall_comparable = (
        base.get("schema") == cand.get("schema")
        and base.get("threads") == cand.get("threads")
        and same_config)
    if not wall_comparable:
        notes.append(
            "runs are not wall-comparable "
            f"(threads {base.get('threads')} vs {cand.get('threads')}): "
            "wall budget waived")
    bw, cw = base["total_wall_s"], cand["total_wall_s"]
    if wall_comparable and bw > 0 and \
            cw > bw * (1.0 + max_regress_pct / 100.0):
        failures.append(
            f"total_wall_s regressed {bw:.2f}s -> {cw:.2f}s "
            f"(> {max_regress_pct:.0f}% budget)")
    for n in notes:
        print(f"bench_check: note: {n}", file=sys.stderr)
    return failures


def compare_route(base, cand, max_regress_pct):
    failures = []
    notes = []
    same_config = router_config(base) == router_config(cand)
    if not same_config:
        notes.append(
            "router configuration differs "
            f"({router_config(base)} vs {router_config(cand)}): "
            "correctness and counter fields are not comparable; only "
            "checking circuit coverage")
    base_by_name = {c["name"]: c for c in base["circuits"]}
    for c in cand["circuits"]:
        b = base_by_name.get(c["name"])
        if b is None:
            # Candidate may run a superset of circuits; that is fine.
            continue
        if not same_config:
            continue
        for field in EXACT_FIELDS:
            if b[field] != c[field]:
                failures.append(
                    f"{c['name']}: {field} changed "
                    f"{b[field]!r} -> {c[field]!r} (routing is pinned "
                    "bit-identical; any drift is a correctness bug)")
        for field in EXACT_OPTIONAL_FIELDS:
            if b.get(field) != c.get(field):
                failures.append(
                    f"{c['name']}: {field} changed "
                    f"{b.get(field)!r} -> {c.get(field)!r} (the "
                    "timing-driven route is bit-deterministic; any drift "
                    "is a correctness bug)")
        for counter in COUNTER_FIELDS + COUNTER_OPTIONAL_FIELDS:
            bc = b["counters"].get(counter)
            cc = c["counters"].get(counter)
            if bc != cc:
                failures.append(
                    f"{c['name']}: counter {counter} changed {bc} -> {cc} "
                    "(search explored different work for identical input)")
    missing = [n for n in base_by_name
               if n not in {c["name"] for c in cand["circuits"]}]
    if missing:
        failures.append(f"candidate dropped circuits: {', '.join(missing)}")

    # Wall times are only comparable between like-for-like runs: the same
    # schema (a schema bump changes what the harness measures), the same
    # thread count, the same router configuration, and the same
    # NF_CHECK_INVARIANTS setting (legality checking costs wall time but
    # must never change the search — counters above are enforced anyway).
    base_chk = bool(base.get("invariants_checked", False))
    cand_chk = bool(cand.get("invariants_checked", False))
    # Schema 4 additionally requires the same RR backend: the implicit
    # graph trades memory for per-expansion arithmetic, so wall clocks of
    # mixed-backend runs measure different machines. Correctness fields
    # above are still fully compared across backends (absent keys on
    # older schemas compare equal, preserving pre-4 behavior).
    wall_comparable = (
        base.get("schema") == cand.get("schema")
        and base.get("threads") == cand.get("threads")
        and same_config
        and base.get("rr_backend") == cand.get("rr_backend")
        and base_chk == cand_chk)
    if not wall_comparable:
        notes.append(
            "runs are not wall-comparable "
            f"(schema {base.get('schema')} vs {cand.get('schema')}, "
            f"threads {base.get('threads')} vs {cand.get('threads')}, "
            f"backend {base.get('rr_backend')} vs {cand.get('rr_backend')}, "
            f"invariants {base_chk} vs {cand_chk}): wall budget waived")
    bw, cw = base["total_wall_s"], cand["total_wall_s"]
    if wall_comparable and bw > 0 and \
            cw > bw * (1.0 + max_regress_pct / 100.0):
        failures.append(
            f"total_wall_s regressed {bw:.2f}s -> {cw:.2f}s "
            f"(> {max_regress_pct:.0f}% budget)")
    for n in notes:
        print(f"bench_check: note: {n}", file=sys.stderr)
    return failures


def selftest():
    base = {
        "schema": "nemfpga-route-bench-2",
        "threads": 1,
        "astar_factor": 1.0,
        "net_parallel": True,
        "total_wall_s": 10.0,
        "circuits": [{
            "name": "tseng", "wmin": 45, "tree_checksum": "abc",
            "iterations": 11, "fixed_w": 54,
            "counters": {"heap_pushes": 7, "nodes_expanded": 5,
                         "sink_searches": 3},
        }],
    }
    same = json.loads(json.dumps(base))
    assert compare(base, same, 15.0) == [], "identical runs must pass"

    slow = json.loads(json.dumps(base))
    slow["total_wall_s"] = 12.0
    assert compare(base, slow, 15.0), "20% regression must fail"
    assert not compare(base, slow, 25.0), "20% within a 25% budget passes"

    drift = json.loads(json.dumps(base))
    drift["circuits"][0]["tree_checksum"] = "xyz"
    assert compare(base, drift, 15.0), "checksum drift must fail"

    drift = json.loads(json.dumps(base))
    drift["circuits"][0]["wmin"] = 46
    assert compare(base, drift, 15.0), "wmin drift must fail"

    drift = json.loads(json.dumps(base))
    drift["circuits"][0]["counters"]["heap_pushes"] = 8
    assert compare(base, drift, 15.0), "counter drift must fail"

    dropped = json.loads(json.dumps(base))
    dropped["circuits"] = [dict(base["circuits"][0], name="other")]
    assert compare(base, dropped, 15.0), "dropped circuit must fail"

    # Thread-count mismatch: wall budget waived, counters still pinned.
    threads8 = json.loads(json.dumps(base))
    threads8["threads"] = 8
    threads8["total_wall_s"] = 99.0
    assert compare(base, threads8, 15.0) == [], \
        "cross-thread wall time must not trip the budget"
    threads8["circuits"][0]["counters"]["nodes_expanded"] = 6
    assert compare(base, threads8, 15.0), \
        "counter drift across thread counts must still fail " \
        "(counters are thread-invariant by contract)"

    # Schema mismatch: neither wall nor counters comparable; coverage only.
    v1 = json.loads(json.dumps(base))
    v1["schema"] = "nemfpga-route-bench-1"
    del v1["astar_factor"], v1["net_parallel"]
    v1["total_wall_s"] = 99.0
    v1["circuits"][0]["counters"]["heap_pushes"] = 1234
    assert compare(v1, base, 15.0) == [], \
        "schema-1 vs schema-2 must not compare wall or counters"
    dropped_v1 = json.loads(json.dumps(base))
    dropped_v1["circuits"] = [dict(base["circuits"][0], name="other")]
    assert compare(v1, dropped_v1, 15.0), \
        "dropped circuit still fails across schemas"

    # Router-config mismatch within schema 2: same treatment.
    legacy = json.loads(json.dumps(base))
    legacy["astar_factor"] = 0.0
    legacy["net_parallel"] = False
    legacy["circuits"][0]["tree_checksum"] = "legacy-differs"
    legacy["circuits"][0]["counters"]["heap_pushes"] = 999
    assert compare(base, legacy, 15.0) == [], \
        "different astar/parallel config must not diff checksums"

    # NF_CHECK_INVARIANTS runs: the wall budget is waived across a flag
    # mismatch, but counter/correctness drift still fails.
    checked_slow = json.loads(json.dumps(base))
    checked_slow["invariants_checked"] = True
    checked_slow["total_wall_s"] = 20.0
    assert compare(base, checked_slow, 15.0) == [], \
        "slower run under invariant checking must not trip the wall budget"

    checked_drift = json.loads(json.dumps(checked_slow))
    checked_drift["circuits"][0]["counters"]["nodes_expanded"] = 6
    assert compare(base, checked_drift, 15.0), \
        "counter drift must fail even under invariant checking"

    checked_wmin = json.loads(json.dumps(checked_slow))
    checked_wmin["circuits"][0]["wmin"] = 46
    assert compare(base, checked_wmin, 15.0), \
        "wmin drift must fail even under invariant checking"

    both_checked_slow = json.loads(json.dumps(checked_slow))
    both_checked_base = json.loads(json.dumps(base))
    both_checked_base["invariants_checked"] = True
    assert compare(both_checked_base, both_checked_slow, 15.0), \
        "wall budget applies when both runs were checked"

    # Schema 3 (timing-driven router): critical path and STA counters are
    # pinned between same-configuration runs...
    t_base = json.loads(json.dumps(base))
    t_base["schema"] = "nemfpga-route-bench-3"
    t_base["timing_driven"] = True
    t_base["crit_exp"] = 1.0
    t_base["circuits"][0]["critical_path_s"] = 1.5958638765647902e-08
    t_base["circuits"][0]["counters"]["sta_net_evals"] = 42
    t_base["circuits"][0]["counters"]["sta_block_updates"] = 99
    t_same = json.loads(json.dumps(t_base))
    assert compare(t_base, t_same, 15.0) == [], \
        "identical schema-3 runs must pass"

    cp_drift = json.loads(json.dumps(t_base))
    cp_drift["circuits"][0]["critical_path_s"] = 1.6e-08
    assert compare(t_base, cp_drift, 15.0), \
        "critical-path drift must fail (timing routing is deterministic)"

    sta_drift = json.loads(json.dumps(t_base))
    sta_drift["circuits"][0]["counters"]["sta_net_evals"] = 43
    assert compare(t_base, sta_drift, 15.0), "STA counter drift must fail"

    # ...a timing run against a congestion-only run is a different router
    # configuration (correctness/counters waived, coverage still checked)...
    untimed = json.loads(json.dumps(t_base))
    untimed["timing_driven"] = False
    untimed["circuits"][0]["critical_path_s"] = 0.0
    untimed["circuits"][0]["tree_checksum"] = "untimed-differs"
    assert compare(t_base, untimed, 15.0) == [], \
        "timing vs congestion-only must not diff checksums"

    # ...and a schema-2 baseline against a schema-3 candidate is refused
    # beyond coverage, even with identical knob values.
    assert compare(base, t_base, 15.0) == [], \
        "schema-2 vs schema-3 must refuse wall/counter/correctness diffs"
    dropped_t = json.loads(json.dumps(t_base))
    dropped_t["circuits"] = [dict(t_base["circuits"][0], name="other")]
    assert compare(base, dropped_t, 15.0), \
        "dropped circuit still fails across schemas 2 vs 3"

    # Schema 4 (RR backends).
    m_base = json.loads(json.dumps(base))
    m_base["schema"] = "nemfpga-route-bench-4"
    m_base["timing_driven"] = False
    m_base["crit_exp"] = 1.0
    m_base["rr_backend"] = "explicit"
    m_base["peak_rss_bytes"] = 500_000_000
    m_base["circuits"][0]["infeasible"] = False
    m_base["circuits"][0]["rr_nodes"] = 10_000
    m_base["circuits"][0]["rr_bytes"] = 4_000_000
    m_base["circuits"][0]["rr_bytes_per_node"] = 400.0
    m_same = json.loads(json.dumps(m_base))
    assert compare(m_base, m_same, 15.0) == [], \
        "identical schema-4 runs must pass"

    # Cross-backend: correctness fields and counters stay fully pinned
    # (bit-identical by design) while the wall budget and the byte
    # measurements are waived — this diff IS the backend-equivalence
    # audit.
    imp = json.loads(json.dumps(m_base))
    imp["rr_backend"] = "implicit"
    imp["total_wall_s"] = 99.0
    imp["peak_rss_bytes"] = 50_000_000
    imp["circuits"][0]["rr_bytes"] = 40_000
    imp["circuits"][0]["rr_bytes_per_node"] = 4.0
    assert compare(m_base, imp, 15.0) == [], \
        "cross-backend wall/memory deltas must not fail"
    imp_drift = json.loads(json.dumps(imp))
    imp_drift["circuits"][0]["tree_checksum"] = "backend-diverged"
    assert compare(m_base, imp_drift, 15.0), \
        "cross-backend checksum drift must fail (backends are pinned " \
        "bit-identical)"
    imp_counter = json.loads(json.dumps(imp))
    imp_counter["circuits"][0]["counters"]["heap_pushes"] = 8
    assert compare(m_base, imp_counter, 15.0), \
        "cross-backend counter drift must fail"
    imp_nodes = json.loads(json.dumps(imp))
    imp_nodes["circuits"][0]["rr_nodes"] = 10_001
    assert compare(m_base, imp_nodes, 15.0), \
        "rr_nodes drift must fail (node set is backend-invariant)"

    # Infeasibility is a correctness verdict.
    infeas = json.loads(json.dumps(m_base))
    infeas["circuits"][0]["infeasible"] = True
    infeas["circuits"][0]["wmin"] = 0
    assert compare(m_base, infeas, 15.0), \
        "a circuit flipping to infeasible must fail"

    # Schema 3 vs 4: refused beyond coverage, like every schema bump.
    assert compare(t_base, m_base, 15.0) == [], \
        "schema-3 vs schema-4 must refuse wall/counter/correctness diffs"
    dropped_m = json.loads(json.dumps(m_base))
    dropped_m["circuits"] = [dict(m_base["circuits"][0], name="other")]
    assert compare(t_base, dropped_m, 15.0), \
        "dropped circuit still fails across schemas 3 vs 4"

    # Place family (nemfpga-place-bench-1).
    p_base = {
        "schema": "nemfpga-place-bench-1",
        "threads": 1,
        "timing_driven": False,
        "inner_num": 1.0,
        "seed": 1,
        "total_wall_s": 5.0,
        "peak_rss_bytes": 100_000_000,
        "circuits": [{
            "name": "synth-l", "luts": 5760, "blocks": 1500, "nets": 5251,
            "place_wall_s": 0.3, "moves": 1_000_000, "moves_per_s": 3e6,
            "accepted": 400_000, "rescans": 1234,
            "final_cost": 4242.5, "final_weighted_cost": 4242.5,
            "cost_checksum": "a4e8f50864144d31",
            "route_w": 54, "routed": True,
            "critical_path_s": 1.5e-08,
        }],
    }
    p_same = json.loads(json.dumps(p_base))
    assert compare(p_base, p_same, 15.0) == [], \
        "identical place runs must pass"

    p_slow = json.loads(json.dumps(p_base))
    p_slow["total_wall_s"] = 6.0
    assert compare(p_base, p_slow, 15.0), "20% place regression must fail"
    assert not compare(p_base, p_slow, 25.0), \
        "20% place regression within a 25% budget passes"

    p_drift = json.loads(json.dumps(p_base))
    p_drift["circuits"][0]["cost_checksum"] = "deadbeef00000000"
    assert compare(p_base, p_drift, 15.0), \
        "placement checksum drift must fail"

    p_drift = json.loads(json.dumps(p_base))
    p_drift["circuits"][0]["final_cost"] = 4242.6
    assert compare(p_base, p_drift, 15.0), "final_cost drift must fail"

    p_drift = json.loads(json.dumps(p_base))
    p_drift["circuits"][0]["accepted"] = 400_001
    assert compare(p_base, p_drift, 15.0), \
        "accepted-move drift must fail (trajectory is pinned)"

    # Cross-thread: wall budget waived, but the annealer is required to
    # be thread-invariant, so every correctness field holds.
    p_t8 = json.loads(json.dumps(p_base))
    p_t8["threads"] = 8
    p_t8["total_wall_s"] = 99.0
    assert compare(p_base, p_t8, 15.0) == [], \
        "cross-thread place wall time must not trip the budget"
    p_t8["circuits"][0]["cost_checksum"] = "thread-diverged"
    assert compare(p_base, p_t8, 15.0), \
        "cross-thread checksum drift must fail (anneal is deterministic)"

    # rescans is pinned.
    p_rescan = json.loads(json.dumps(p_base))
    p_rescan["circuits"][0]["rescans"] = 1235
    assert compare(p_base, p_rescan, 15.0), "rescan drift must fail"

    # Different placer knobs: a different trajectory; coverage only.
    p_knob = json.loads(json.dumps(p_base))
    p_knob["timing_driven"] = True
    p_knob["circuits"][0]["cost_checksum"] = "timing-differs"
    assert compare(p_base, p_knob, 15.0) == [], \
        "different timing_driven setting is a different config"
    p_knob_drop = json.loads(json.dumps(p_knob))
    p_knob_drop["circuits"] = [dict(p_knob["circuits"][0], name="other")]
    assert compare(p_base, p_knob_drop, 15.0), \
        "dropped circuit still fails across place configs"

    p_dropped = json.loads(json.dumps(p_base))
    p_dropped["circuits"] = [dict(p_base["circuits"][0], name="other")]
    assert compare(p_base, p_dropped, 15.0), \
        "dropped place circuit must fail"

    # Eco family (nemfpga-eco-bench-1).
    e_base = {
        "schema": "nemfpga-eco-bench-1",
        "threads": 1,
        "w": 64,
        "edits": 50,
        "edit_seed": 1,
        "seed": 1,
        "total_wall_s": 3.0,
        "peak_rss_bytes": 50_000_000,
        "circuits": [{
            "name": "tseng", "luts": 1047, "blocks": 316, "nets": 1048,
            "ok": 34, "rejected": 12, "unroutable": 0,
            "full_fallbacks": 1, "nets_invalidated": 210,
            "nets_rerouted": 1900, "blocks_moved": 40,
            "sta_nets_evaluated": 1900,
            "tree_checksum": "4726890cd53303a2",
            "final_cycle": False,
            "critical_path_s": 1.854e-08,
            "base_compile_s": 0.11,
            "apply_p50_s": 0.0014, "apply_p99_s": 0.0066,
            "reroute_p50_s": 0.0009, "reroute_p99_s": 0.0057,
            "scratch_route_s": 0.052, "speedup_p50": 57.9,
        }],
    }
    e_same = json.loads(json.dumps(e_base))
    assert compare(e_base, e_same, 15.0) == [], \
        "identical eco runs must pass"

    e_drift = json.loads(json.dumps(e_base))
    e_drift["circuits"][0]["tree_checksum"] = "deadbeef00000000"
    assert compare(e_base, e_drift, 15.0), \
        "eco tree-checksum drift must fail (replay is deterministic)"

    e_drift = json.loads(json.dumps(e_base))
    e_drift["circuits"][0]["ok"] = 33
    assert compare(e_base, e_drift, 15.0), \
        "status-tally drift must fail (same stream, same verdicts)"

    e_drift = json.loads(json.dumps(e_base))
    e_drift["circuits"][0]["nets_rerouted"] = 1901
    assert compare(e_base, e_drift, 15.0), \
        "reroute-counter drift must fail"

    # Latency percentiles: budget-checked between identical streams...
    e_slow = json.loads(json.dumps(e_base))
    e_slow["circuits"][0]["apply_p50_s"] = 0.0020
    assert compare(e_base, e_slow, 15.0), \
        "a 43% p50 latency regression must fail"
    assert not compare(e_base, e_slow, 50.0), \
        "the same regression passes inside a 50% budget"

    # ...waived (never pinned) across thread counts, while the replay's
    # correctness fields stay fully pinned — that diff is the
    # thread-invariance audit.
    e_t8 = json.loads(json.dumps(e_base))
    e_t8["threads"] = 8
    e_t8["total_wall_s"] = 99.0
    e_t8["circuits"][0]["apply_p50_s"] = 0.5
    assert compare(e_base, e_t8, 15.0) == [], \
        "cross-thread eco latency must not trip any budget"
    e_t8["circuits"][0]["tree_checksum"] = "thread-diverged"
    assert compare(e_base, e_t8, 15.0), \
        "cross-thread eco checksum drift must fail (replay is pinned)"

    # A different edit stream is a different configuration: nothing but
    # circuit coverage is comparable.
    e_seed = json.loads(json.dumps(e_base))
    e_seed["edit_seed"] = 2
    e_seed["circuits"][0]["ok"] = 7
    e_seed["circuits"][0]["tree_checksum"] = "stream-differs"
    e_seed["circuits"][0]["apply_p50_s"] = 0.9
    assert compare(e_base, e_seed, 15.0) == [], \
        "different edit_seed must refuse correctness and latency diffs"
    e_seed_drop = json.loads(json.dumps(e_seed))
    e_seed_drop["circuits"] = [dict(e_seed["circuits"][0], name="other")]
    assert compare(e_base, e_seed_drop, 15.0), \
        "dropped circuit still fails across edit streams"

    e_dropped = json.loads(json.dumps(e_base))
    e_dropped["circuits"] = [dict(e_base["circuits"][0], name="other")]
    assert compare(e_base, e_dropped, 15.0), \
        "dropped eco circuit must fail"

    # Serve family (nemfpga-serve-bench-1).
    s_base = {
        "schema": "nemfpga-serve-bench-1",
        "threads": 8,
        "benchmark": "tseng",
        "jobs": 16,
        "w": 64,
        "timing": False,
        "seed0": 1,
        "cache_mb": 4096,
        "total_wall_s": 14.0,
        "peak_rss_bytes": 90_000_000,
        "artifact_build_s": 0.041,
        "artifact_fetch_s": 1.3e-05,
        "artifact_amortization": 3192.0,
        "cache_resident_bytes": 1_000_000,
        "speedup_warm_vs_cold_seq": 1.22,
        "circuits": [
            {"name": "cold-seq", "ok_jobs": 16,
             "batch_checksum": "67e4e36fd614239f",
             "cache_misses": 0, "cache_evictions": 0, "cache_reuses": 0,
             "lookahead_cached": 0, "t_lookahead_build_s": 0.53,
             "wall_s": 5.4, "jobs_per_s": 2.96},
            {"name": "cold-batch", "ok_jobs": 16,
             "batch_checksum": "67e4e36fd614239f",
             "cache_misses": 2, "cache_evictions": 0, "cache_reuses": 30,
             "lookahead_cached": 15, "t_lookahead_build_s": 0.03,
             "wall_s": 4.6, "jobs_per_s": 3.49},
            {"name": "warm-batch", "ok_jobs": 16,
             "batch_checksum": "67e4e36fd614239f",
             "cache_misses": 0, "cache_evictions": 0, "cache_reuses": 32,
             "lookahead_cached": 16, "t_lookahead_build_s": 0.0,
             "wall_s": 4.4, "jobs_per_s": 3.62},
        ],
    }
    s_same = json.loads(json.dumps(s_base))
    assert compare(s_base, s_same, 15.0) == [], \
        "identical serve runs must pass"

    s_drift = json.loads(json.dumps(s_base))
    s_drift["circuits"][0]["batch_checksum"] = "deadbeef00000000"
    assert compare(s_base, s_drift, 15.0), \
        "serve batch-checksum drift must fail (jobs are bit-identical " \
        "to solo flows)"

    s_drift = json.loads(json.dumps(s_base))
    s_drift["circuits"][1]["cache_misses"] = 3
    assert compare(s_base, s_drift, 15.0), \
        "cache build-count drift must fail (single-flight makes it exact)"

    s_drift = json.loads(json.dumps(s_base))
    s_drift["circuits"][2]["lookahead_cached"] = 15
    assert compare(s_base, s_drift, 15.0), \
        "lookahead_cached drift must fail (warm jobs all hit)"

    s_slow = json.loads(json.dumps(s_base))
    s_slow["circuits"][2]["wall_s"] = 5.5
    assert compare(s_base, s_slow, 15.0), \
        "a 25% warm-batch wall regression must fail"
    assert not compare(s_base, s_slow, 30.0), \
        "the same regression passes inside a 30% budget"

    # Cross-thread: wall comparisons are refused, the deterministic
    # counters stay fully pinned — that diff is the worker-count
    # invariance audit.
    s_t1 = json.loads(json.dumps(s_base))
    s_t1["threads"] = 1
    s_t1["total_wall_s"] = 99.0
    s_t1["circuits"][2]["wall_s"] = 50.0
    assert compare(s_base, s_t1, 15.0) == [], \
        "cross-thread serve wall time must not trip any budget"
    s_t1["circuits"][2]["batch_checksum"] = "thread-diverged"
    assert compare(s_base, s_t1, 15.0), \
        "cross-thread serve checksum drift must fail (scheduler is pinned)"

    # A different job mix is a different configuration: coverage only.
    s_mix = json.loads(json.dumps(s_base))
    s_mix["jobs"] = 32
    s_mix["circuits"][0]["batch_checksum"] = "mix-differs"
    s_mix["circuits"][0]["cache_misses"] = 99
    assert compare(s_base, s_mix, 15.0) == [], \
        "different job count must refuse counter/checksum diffs"
    s_mix_drop = json.loads(json.dumps(s_mix))
    s_mix_drop["circuits"] = s_mix["circuits"][:2]
    assert compare(s_base, s_mix_drop, 15.0), \
        "dropped mode still fails across job mixes"

    s_dropped = json.loads(json.dumps(s_base))
    s_dropped["circuits"] = s_base["circuits"][:2]
    assert compare(s_base, s_dropped, 15.0), \
        "dropped serve mode must fail"

    # Arch family (nemfpga-arch-bench-1).
    a_base = {
        "schema": "nemfpga-arch-bench-1",
        "benchmark": "tseng",
        "w": 118,
        "downsize": 4.0,
        "total_wall_s": 8.0,
        "paper_slice": {
            "downsize": 4.0, "speedup": 1.25, "dynamic_reduction": 2.1,
            "leakage_reduction": 9.7, "area_reduction": 2.1,
        },
        "circuits": [
            {"name": "cmos/wilton/L4/fc0.2", "backend": "cmos",
             "sb_pattern": "wilton", "seg_len": 4, "fc_in": 0.2,
             "downsize": 1.0, "routed": True,
             "tree_checksum": "00deadbeef001234",
             "critical_path_s": 1.6e-08, "dynamic_w": 0.021,
             "leakage_w": 1.9e-05, "area_m2": 4.4e-06, "wall_s": 0.8},
            {"name": "nem-opt/wilton/L4/fc0.2", "backend": "nem-opt",
             "sb_pattern": "wilton", "seg_len": 4, "fc_in": 0.2,
             "downsize": 4.0, "routed": True,
             "tree_checksum": "00deadbeef001234",
             "critical_path_s": 1.2e-08, "dynamic_w": 0.010,
             "leakage_w": 2.0e-06, "area_m2": 2.1e-06, "wall_s": 0.8},
        ],
    }
    a_same = json.loads(json.dumps(a_base))
    assert compare(a_base, a_same, 15.0) == [], \
        "identical arch runs must pass"

    a_drift = json.loads(json.dumps(a_base))
    a_drift["circuits"][0]["leakage_w"] = 2.0e-05
    assert compare(a_base, a_drift, 15.0), \
        "arch metric drift must fail (evaluation is deterministic)"

    a_drift = json.loads(json.dumps(a_base))
    a_drift["circuits"][1]["routed"] = False
    assert compare(a_base, a_drift, 15.0), \
        "a cell flipping routability must fail"

    a_drift = json.loads(json.dumps(a_base))
    a_drift["circuits"][0]["tree_checksum"] = "0000000000000000"
    assert compare(a_base, a_drift, 15.0), \
        "arch mapping checksum drift must fail"

    a_slice = json.loads(json.dumps(a_base))
    a_slice["paper_slice"]["leakage_reduction"] = 9.8
    assert compare(a_base, a_slice, 15.0), \
        "paper-slice drift must fail (the reduction column is pinned)"

    a_slow = json.loads(json.dumps(a_base))
    a_slow["total_wall_s"] = 10.0
    assert compare(a_base, a_slow, 15.0), "25% arch regression must fail"
    assert not compare(a_base, a_slow, 30.0), \
        "the same regression passes inside a 30% budget"

    # A superset candidate (extra cells) is fine; dropped cells are not.
    a_super = json.loads(json.dumps(a_base))
    a_super["circuits"].append(dict(a_base["circuits"][0],
                                    name="rram/subset/L2/fc0.2",
                                    backend="rram", sb_pattern="subset"))
    assert compare(a_base, a_super, 15.0) == [], \
        "a superset arch sweep must pass"
    a_dropped = json.loads(json.dumps(a_base))
    a_dropped["circuits"] = a_base["circuits"][:1]
    assert compare(a_base, a_dropped, 15.0), \
        "dropped arch cell must fail"

    # A different study configuration: coverage only.
    a_wide = json.loads(json.dumps(a_base))
    a_wide["w"] = 64
    a_wide["circuits"][0]["leakage_w"] = 9.9
    a_wide["paper_slice"]["speedup"] = 0.5
    assert compare(a_base, a_wide, 15.0) == [], \
        "different arch configuration must refuse metric diffs"

    # Route vs place vs eco vs serve are hard errors in every direction.
    assert compare(m_base, p_base, 15.0), \
        "route-vs-place comparison must be refused loudly"
    assert compare(p_base, m_base, 15.0), \
        "place-vs-route comparison must be refused loudly"
    assert compare(e_base, m_base, 15.0), \
        "eco-vs-route comparison must be refused loudly"
    assert compare(p_base, e_base, 15.0), \
        "place-vs-eco comparison must be refused loudly"
    assert compare(s_base, m_base, 15.0), \
        "serve-vs-route comparison must be refused loudly"
    assert compare(e_base, s_base, 15.0), \
        "eco-vs-serve comparison must be refused loudly"
    assert compare(a_base, m_base, 15.0), \
        "arch-vs-route comparison must be refused loudly"
    assert compare(s_base, a_base, 15.0), \
        "serve-vs-arch comparison must be refused loudly"
    print("bench_check selftest: OK")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("candidate", nargs="?")
    ap.add_argument("--max-regress", type=float, default=15.0,
                    metavar="PCT",
                    help="wall-time regression budget in percent "
                         "(default 15)")
    ap.add_argument("--selftest", action="store_true",
                    help="run the built-in unit checks and exit")
    args = ap.parse_args()

    if args.selftest:
        selftest()
        return 0
    if not args.baseline or not args.candidate:
        ap.error("baseline and candidate files are required "
                 "(or use --selftest)")

    try:
        base = load(args.baseline)
        cand = load(args.candidate)
    except (OSError, ValueError, KeyError) as e:
        print(f"bench_check: {e}", file=sys.stderr)
        return 1

    failures = compare(base, cand, args.max_regress)
    for f in failures:
        print(f"bench_check: FAIL: {f}", file=sys.stderr)
    if not failures:
        print(f"bench_check: OK ({len(cand['circuits'])} circuits, "
              f"{base['total_wall_s']:.2f}s -> {cand['total_wall_s']:.2f}s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
