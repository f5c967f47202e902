// Minimum-channel-width search (Sec 3.3 of the paper, VPR's binary search
// widened to k-ary): the decision rule as a pure step function, and the
// probe scheduler that evaluates it on ThreadPool::current().
//
// The rule only ever asks "does the design route at width W?", and a
// width probe is a deterministic function of W, so the rule's verdict is
// fixed by the widths it consumes — never by the order in which their
// probes ran or finished. The scheduler exploits that: it keeps every
// worker busy on the widths the rule will ask about next, and Wmin stays
// bit-identical at any thread count.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace nemfpga {

/// One width's routability as far as the search knows it.
enum class WidthVerdict : std::uint8_t { kUnknown, kRoutes, kFails };

/// The k-ary decision rule. Invariant: every width below lo() fails and
/// hi() routes (hi() == 0 until a grow round finds a routable width).
/// Rounds, in the order the search meets them:
///  - grow: {w, 2w} from max(4, w_hint), doubling until a width routes;
///    the pair stops short at w_cap (the hint itself is always probed);
///  - shrink, span = hi - lo <= 4: every width in [lo, hi);
///  - shrink, otherwise: lo + span * (j + 1) / 5 for j = 0..3.
/// A round is consumed in order up to and including its first routable
/// width; the widths after it are never looked at.
class WidthSearch {
 public:
  WidthSearch(std::size_t w_hint, std::size_t w_cap);

  /// Widths of the current round in decision order; empty once done().
  const std::vector<std::size_t>& round() const { return round_; }
  bool growing() const { return growing_; }
  bool done() const { return round_.empty(); }
  /// When done(): false if the grow phase passed w_cap without a route.
  bool feasible() const { return hi_ != 0; }
  std::size_t lo() const { return lo_; }
  std::size_t hi() const { return hi_; }

  /// Consume the current round when `verdict` knows each of its widths up
  /// to and including the first that routes (or all of them), appending
  /// the consumed widths to `*used` if given. Returns false, leaving the
  /// state unchanged, while any width of that prefix is still kUnknown.
  bool advance(const std::function<WidthVerdict(std::size_t)>& verdict,
               std::vector<std::size_t>* used = nullptr);

 private:
  void fill_grow_round();

  std::size_t lo_ = 2;
  std::size_t hi_ = 0;
  std::size_t grow_w_;  ///< First width of the next grow round.
  std::size_t w_cap_;
  bool growing_ = true;
  std::vector<std::size_t> round_;
};

/// Route the design at `w`. Returns kUnknown only when it saw `stop`
/// raised and gave up; that result is thrown away.
using WidthProbe =
    std::function<WidthVerdict(std::size_t w, const std::atomic<bool>& stop)>;

struct WidthSearchOutcome {
  bool feasible = false;
  std::size_t w_min = 0;  ///< hi() when feasible.
  std::size_t lo = 0;     ///< Last lower bound (the infeasible report).
  /// Every width whose verdict the rule consumed, in consumption order —
  /// the same list at any thread count.
  std::vector<std::size_t> used;
};

/// Run the WidthSearch rule to completion with one worker per thread of
/// ThreadPool::current() (at most 16, the most widths it can want at
/// once), sharing a memo of width verdicts. A worker
/// takes, in order: the current round's undecided prefix, then widths
/// the rule would ask for next if every undecided probe failed, up to
/// three rounds ahead (never into another grow round, whose graphs are
/// twice the size). A running probe that no such branch wants any more
/// has its stop token raised; its width goes back to undecided. With one
/// worker (a serial pool, or a call nested inside a parallel_for body)
/// this is exactly the lazy order: each round in turn, up to its first
/// routable width. If a probe throws, every other probe is stopped and
/// the exception is rethrown here.
WidthSearchOutcome run_width_search(std::size_t w_hint, std::size_t w_cap,
                                    const WidthProbe& probe);

}  // namespace nemfpga
