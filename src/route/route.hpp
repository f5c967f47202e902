// PathFinder negotiated-congestion routing [McMurchie/Ebeling via VPR]:
// every net is repeatedly ripped up and re-routed by A* over the RR graph;
// nodes start out shareable and grow present- and history-congestion costs
// until every routing resource is used within capacity. This is the router
// the paper's flow runs (VPR 5.0) to determine channel width and net
// topologies.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "arch/lookahead.hpp"
#include "arch/rr_graph.hpp"
#include "place/place.hpp"

namespace nemfpga {

/// Routed tree of one net: directed RR edges from the source out to every
/// sink (parent-before-child order).
struct RouteTree {
  RrNodeId source = kNoRrNode;
  std::vector<std::pair<RrNodeId, RrNodeId>> edges;  ///< (from, to).
  std::vector<RrNodeId> sinks;                       ///< Reached SINK nodes.
};

/// Timing feedback for the timing-driven router. The router sits below
/// the timing layer in the library graph (nf_timing links nf_route), so
/// it talks to STA through this interface: the production implementation
/// is the incremental STA of src/timing/sta.hpp (make_incremental_sta);
/// src/verify/ has a naive full-recompute transcription for differential
/// testing. Lifecycle: route_all calls update() serially at the start of
/// every PathFinder iteration with the nets (re)routed in the previous
/// one; between updates every query method must be a pure const read —
/// worker threads call criticality() concurrently during batched routing.
/// A hook instance is stateful and serves exactly one route_all call.
class RouterTimingHook {
 public:
  virtual ~RouterTimingHook() = default;
  /// Per-RR-node delay [s] of entering each node (node_count entries,
  /// from the unified delay model — timing/delay_model.hpp).
  virtual const double* node_delay() const = 0;
  /// Seconds one unit of router base cost is worth in the blended cost
  /// (the units bridge between congestion cost and delay).
  virtual double sec_per_base() const = 0;
  /// Constants for the delay-annotated lookahead table.
  virtual DelayProfile delay_profile() const = 0;
  /// Re-evaluate timing over `trees`. `dirty` lists the nets (re)routed
  /// since the previous update (their trees changed; every other tree
  /// must be unchanged). iteration 1 precedes any routing: seed the
  /// criticalities from the placement estimate instead.
  virtual void update(const RrGraphView& g,
                      const std::vector<RouteTree>& trees,
                      const std::vector<std::size_t>& dirty,
                      std::size_t iteration) = 0;
  /// Criticality in [0, max_criticality] of the connection from `net`'s
  /// driver to its sink_slot-th sink block (PlacedNet::sinks order).
  virtual double criticality(std::size_t net,
                             std::size_t sink_slot) const = 0;
  virtual double critical_path() const = 0;  ///< [s] after last update.
  virtual double worst_slack() const = 0;    ///< [s] over connections.
  virtual std::uint64_t net_evals() const = 0;      ///< Net delay evals.
  virtual std::uint64_t block_updates() const = 0;  ///< Block recomputes.
};

struct RouteOptions {
  std::size_t max_iterations = 160;
  double first_iter_pres_fac = 0.5;
  double pres_fac_mult = 1.3;
  double pres_fac_max = 1000.0;  ///< Cap so history can still break ties.
  /// Starting present-congestion factor for *seeded* sessions
  /// (route_incremental) only. A from-scratch run wants the classic
  /// near-free first iteration so nets discover their preferred wires
  /// before negotiation begins; a seeded session already holds a
  /// congestion-free routing, and rerouting the handful of cleared nets
  /// congestion-blind tramples the kept trees and drags them into
  /// negotiation for the next ~10 iterations of pres_fac growth.
  /// Starting stiff makes cleared nets respect live occupancy from
  /// their first search. Capped by pres_fac_max.
  double seeded_pres_fac = 8.0;
  double history_fac = 1.0;
  /// Weight on the precomputed geometric lookahead table (A* directed
  /// search, src/arch/lookahead.hpp). 1.0 keeps the heuristic admissible
  /// (every sink still found at Dijkstra-optimal cost — provable via
  /// verify_lookahead); larger values search greedier (weighted A*
  /// without re-expansion, the usual VPR trade). The default 2.0 expands
  /// 3.7x fewer nodes than an undirected Dijkstra over the identical
  /// searches on pdc (route_perf --verify-la) with no loss in minimum
  /// channel width (EXPERIMENTS.md, "Router performance"). Must be finite
  /// and > 0: route_all and find_min_channel_width throw
  /// std::invalid_argument otherwise.
  double astar_factor = 2.0;
  /// Prebuilt lookahead table to use instead of building one inside
  /// route_all (the table depends on the fabric and cost profile, not on
  /// W, so find_min_channel_width builds it once and shares it across
  /// every width probe). Null means build on demand.
  std::shared_ptr<const RouteLookahead> lookahead;
  /// Accounting metadata for a prebuilt `lookahead` (ignored otherwise):
  /// the wall seconds the caller spent building it specifically for this
  /// route — 0 when the table was reused (Wmin probes sharing one table,
  /// artifact-cache hits). route_all copies it into
  /// RouteCounters::t_lookahead_build_s so per-route build accounting
  /// stays honest whether the table was built inside or outside the call.
  double lookahead_build_s = 0.0;
  /// The prebuilt `lookahead` came out of the content-addressed artifact
  /// cache (src/service/artifact_cache.hpp) rather than being built for
  /// this flow; surfaces as RouteCounters::lookahead_cached so cross-job
  /// accounting can distinguish "built here" from "cache hit".
  bool lookahead_from_cache = false;
  std::size_t bb_margin = 3;  ///< Net bounding-box routing constraint.
  /// Deterministic net-level parallelism: partition each iteration's
  /// rip-up set into bounding-box-disjoint batches, route batch members
  /// concurrently on ThreadPool::current() against an immutable cost
  /// snapshot, and commit/replay serially in net-index order. The batch
  /// schedule depends only on (graph, placement, options), never on the
  /// thread count, so trees, iteration counts and checksums stay
  /// bit-identical at any NF_THREADS setting.
  bool net_parallel = true;
  /// Test hook: every k-th member of every parallel batch is treated as
  /// conflicted and re-routed through the serial replay path, exercising
  /// the conflict-resolution machinery on demand. 0 = off.
  std::size_t debug_replay_every = 0;
  /// Timing-driven mode (classic VPR blend): entering a node costs
  /// crit * node_delay + (1 - crit) * congestion_cost * sec_per_base,
  /// with per-connection criticalities fed back by timing_hook's
  /// incremental STA each iteration. Off by default — the default
  /// congestion-only mode stays bit-identical to the golden fixtures.
  /// Requires timing_hook; without one the router runs congestion-only.
  bool timing_driven = false;
  /// Criticality sharpening exponent (VPR's criticality_exp): consumed
  /// by the timing hook when shaping slacks into criticalities.
  double criticality_exp = 1.0;
  /// Criticality clamp < 1 so the congestion term never fully vanishes
  /// and PathFinder negotiation keeps working on critical connections.
  double max_criticality = 0.99;
  /// Timing feedback provider (borrowed, not owned; stateful — one
  /// route_all call per instance). run_flow wires the incremental STA
  /// from src/timing/sta.hpp; find_min_channel_width force-clears it so
  /// Wmin probes stay congestion-only (channel width is a routability
  /// question, and iso-delay comparisons require identical Wmin).
  RouterTimingHook* timing_hook = nullptr;
  /// Test hook: precede every A* sink search with a zero-heuristic
  /// Dijkstra on the identical cost state and count sinks the directed
  /// search found at worse cost (RouteCounters::lookahead_suboptimal —
  /// stays 0 while astar_factor <= 1, the admissibility proof). Expensive;
  /// off outside tests.
  bool verify_lookahead = false;
  /// Which RR graph representation the graph-building entry points
  /// (find_min_channel_width's probes, run_flow, route_perf) construct.
  /// route_all itself is backend-agnostic — it consumes an RrGraphView —
  /// and both backends are node/edge-order identical by construction, so
  /// the choice never changes the routing, only memory and per-edge cost.
  RrBackend rr_backend = kDefaultRrBackend;
  /// Upper bound on the channel-width grow phase: find_min_channel_width
  /// reports infeasible (ChannelWidthResult::feasible == false) instead
  /// of probing beyond this.
  std::size_t max_channel_width = 1024;
  /// Cooperative stop token (borrowed; null = never stop). route_all and
  /// route_incremental read it at the top of every PathFinder iteration;
  /// once it is raised they return at once with success == false and
  /// RoutingResult::stopped == true — an abandoned run, not a verdict on
  /// routability. find_min_channel_width ignores the caller's token and
  /// gives each width probe its own, which it raises to cancel the probes
  /// its search no longer needs.
  const std::atomic<bool>* stop = nullptr;
};

/// Always-on router work counters (see bench/route_perf.cpp and the
/// "Router performance" section of EXPERIMENTS.md). Everything except the
/// wall times and scratch_grows is bit-deterministic for a given (graph,
/// placement, options) at any thread count.
struct RouteCounters {
  std::uint64_t heap_pushes = 0;    ///< Priority-queue insertions.
  std::uint64_t heap_pops = 0;      ///< Priority-queue removals.
  std::uint64_t nodes_expanded = 0; ///< Pops surviving the stale check.
  std::uint64_t sink_searches = 0;  ///< A* runs (excl. shared-sink hits).
  std::uint64_t nets_routed = 0;    ///< route_net calls, all iterations.
  std::uint64_t nets_rerouted = 0;  ///< Nets ripped up after iteration 1.
  /// Nets whose routing grew any scratch buffer. Stays O(log net size)
  /// for the whole run — the steady-state per-net search loop performs
  /// zero heap allocations (asserted by tests/test_route_golden.cpp).
  /// Each worker thread owns a scratch arena that warms up separately, so
  /// this counter (alone) varies with the thread count in net_parallel
  /// mode; it is excluded from the bit-determinism contract.
  std::uint64_t scratch_grows = 0;
  /// Heuristic evaluations served from the geometric lookahead table.
  std::uint64_t lookahead_hits = 0;
  /// Parallel batch dispatches (0 when net_parallel == false).
  std::uint64_t batches = 0;
  /// Batch members re-routed serially after a conflict, a bounding-box
  /// escape, or the debug_replay_every hook.
  std::uint64_t conflict_replays = 0;
  /// Sinks an A* search found at worse cost than the Dijkstra reference
  /// (only counted under RouteOptions::verify_lookahead; 0 proves the
  /// lookahead admissible on this run).
  std::uint64_t lookahead_suboptimal = 0;
  /// verify_lookahead only: total expansions the zero-heuristic reference
  /// Dijkstras performed vs what the directed searches performed on the
  /// identical cost states — the apples-to-apples measure of the table's
  /// pruning power (route_perf --verify-la prints the ratio). The
  /// reference work is excluded from nodes_expanded/heap_* above.
  std::uint64_t verify_dijkstra_expanded = 0;
  std::uint64_t verify_astar_expanded = 0;
  /// Timing-driven mode only: net delay evaluations the incremental STA
  /// performed (== total dirty-net count over all updates; a full
  /// recompute per iteration would cost nets * iterations) and STA block
  /// recomputes across the levelized forward/backward passes.
  std::uint64_t sta_net_evals = 0;
  std::uint64_t sta_block_updates = 0;
  /// 1 when the lookahead table was served by the content-addressed
  /// artifact cache instead of built for this route (set from
  /// RouteOptions::lookahead_from_cache). Distinguishes a genuine cache
  /// hit (t_lookahead_build_s == 0 because someone else paid) from a
  /// degenerate build (t_lookahead_build_s ~ 0 because the fabric is
  /// tiny) in cross-job accounting.
  std::uint64_t lookahead_cached = 0;
  double t_search_s = 0.0;   ///< Wall time in the per-net search loop.
  double t_bookkeep_s = 0.0; ///< Cost-cache rebuild + history updates.
  /// Lookahead table construction charged to this route: the in-call
  /// build when route_all built the table itself, or the caller-reported
  /// RouteOptions::lookahead_build_s for a prebuilt table (0 on reuse).
  double t_lookahead_build_s = 0.0;
  double t_sta_s = 0.0;      ///< Incremental STA updates (timing mode).
};

struct RoutingResult {
  bool success = false;
  /// The run saw RouteOptions::stop raised and gave up (success is false
  /// then). Says nothing about whether the design routes.
  bool stopped = false;
  std::size_t iterations = 0;
  std::vector<RouteTree> trees;  ///< Parallel to Placement::nets.
  std::size_t overused_nodes = 0;
  RouteCounters counters;
  /// Per-net "this session (re)routed it" flag, parallel to trees: 1 if
  /// any iteration committed a new tree for the net, 0 if the tree is
  /// untouched (possible only under route_incremental, whose kept seed
  /// trees survive unless congestion reaches them). Downstream delay
  /// caches are invalidated exactly for the flagged nets.
  std::vector<std::uint8_t> routed_nets;

  /// Wire statistics for the power/area models.
  std::size_t wire_segments_used = 0;
  double total_wire_tiles = 0.0;

  /// Timing-driven mode only (0 otherwise): post-route critical path and
  /// worst connection slack from the timing hook's final update over the
  /// successful trees.
  double critical_path_s = 0.0;
  double worst_slack_s = 0.0;
};

/// Route all placed nets over either RR backend (pass an RrGraph or an
/// ImplicitRrGraph; both convert to the view). Returns success=false if
/// congestion persists after max_iterations (caller widens W and retries).
/// Throws std::invalid_argument when opt.astar_factor is not a finite
/// positive number.
RoutingResult route_all(const RrGraphView& g, const Placement& pl,
                        const RouteOptions& opt = {});

/// Seeded (ECO) routing: `base_trees` is a live legal routing aligned
/// with pl.nets in which the caller cleared the trees of invalidated
/// nets (RouteTree{} — source == kNoRrNode). Their occupancy is charged
/// up front, the first iteration routes only the cleared nets against
/// that live state, and later iterations run the normal incremental
/// negotiation, so kept trees are re-routed only if congestion reaches
/// them. Counters and history restart fresh — a seeded call is a new
/// negotiation session over old wires, not a continuation of the one that
/// built them — but the session starts at opt.seeded_pres_fac rather than
/// first_iter_pres_fac, so the cleared nets route around the live
/// occupancy instead of through it. Throws if base_trees.size() !=
/// pl.nets.size().
RoutingResult route_incremental(const RrGraphView& g, const Placement& pl,
                                std::vector<RouteTree> base_trees,
                                const RouteOptions& opt = {});

/// Validation: every tree is connected, within capacity, and reaches every
/// sink of its net. Throws std::logic_error on violation.
void check_routing(const RrGraphView& g, const Placement& pl,
                   const RoutingResult& r);

/// Search the minimum channel width Wmin for which routing succeeds, then
/// report W = ceil(1.2 * Wmin) rounded up to even ("low-stress routing"
/// [Betz 99b], Sec 3.3 of the paper). The k-ary search rule and its
/// probe scheduler live in route/width_search.hpp: every thread of
/// ThreadPool::current() probes a width the rule needs now or may need
/// within three rounds (each probe owns its RR graph + router state), and
/// probes the rule no longer needs are stopped. The rule consumes the
/// same widths whichever probes finish first, so Wmin is identical at any
/// NF_THREADS setting.
struct ChannelWidthResult {
  std::size_t w_min = 0;
  std::size_t w_low_stress = 0;  ///< 1.2 x Wmin, even.
  /// False when the grow phase hit RouteOptions::max_channel_width without
  /// ever routing: the design is unroutable at any modeled width. w_min
  /// and w_low_stress are 0 then, and w_cap records the cap that was hit —
  /// callers must check this instead of consuming a garbage width.
  bool feasible = true;
  std::size_t w_cap = 0;
};

ChannelWidthResult find_min_channel_width(const ArchParams& arch,
                                          const Placement& pl,
                                          std::size_t w_hint = 32,
                                          const RouteOptions& opt = {});

}  // namespace nemfpga
