#include "route/width_search.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <map>
#include <mutex>

#include "util/thread_pool.hpp"

namespace nemfpga {

namespace {

/// Probes per shrink round: the k of the k-ary search.
constexpr std::size_t kFanout = 4;

/// How many rounds past the current one the scheduler speculates into.
constexpr std::size_t kLookaheadRounds = 3;

/// The most widths the scheduler ever wants at once, so the most workers
/// that can be busy; a larger pool lends it no more threads than this.
constexpr std::size_t kMaxWorkers = kFanout * (1 + kLookaheadRounds);

}  // namespace

WidthSearch::WidthSearch(std::size_t w_hint, std::size_t w_cap)
    : grow_w_(std::max<std::size_t>(4, w_hint)), w_cap_(w_cap) {
  fill_grow_round();
}

void WidthSearch::fill_grow_round() {
  // Rounds are pairs, not kFanout-wide: a doubled width quadruples the
  // routing graph's memory footprint, so speculating on 4w/8w builds
  // enormous graphs whose construction cost and cache pressure dwarf the
  // round-trips a wider round would save (measured on pdc: a 4-wide grow
  // round made the 8-thread search slower than the serial one). The hint
  // is always probed, even when it exceeds the growth cap.
  for (std::size_t j = 0; j < 2 && (round_.empty() || grow_w_ <= w_cap_);
       ++j, grow_w_ *= 2) {
    round_.push_back(grow_w_);
  }
}

bool WidthSearch::advance(
    const std::function<WidthVerdict(std::size_t)>& verdict,
    std::vector<std::size_t>* used) {
  if (round_.empty()) return false;
  std::size_t k = 0;
  bool routed = false;
  for (; k < round_.size(); ++k) {
    const WidthVerdict v = verdict(round_[k]);
    if (v == WidthVerdict::kUnknown) return false;
    if (v == WidthVerdict::kRoutes) {
      routed = true;
      break;
    }
  }
  // Failed widths below the first success tighten the lower bound.
  for (std::size_t i = 0; i < k; ++i) lo_ = round_[i] + 1;
  if (routed) hi_ = round_[k];
  if (used) used->insert(used->end(), round_.begin(),
                         round_.begin() + k + (routed ? 1 : 0));
  round_.clear();
  if (growing_) {
    if (hi_ == 0) {
      // Saturated when no width up to the cap routed: done, infeasible.
      if (grow_w_ <= w_cap_) fill_grow_round();
      return true;
    }
    growing_ = false;
  }
  if (lo_ >= hi_) return true;  // done: hi_ is Wmin
  const std::size_t span = hi_ - lo_;
  if (span <= kFanout) {
    for (std::size_t w = lo_; w < hi_; ++w) round_.push_back(w);
  } else {
    for (std::size_t j = 0; j < kFanout; ++j) {
      round_.push_back(lo_ + span * (j + 1) / (kFanout + 1));
    }
  }
  return true;
}

namespace {

/// Shared state of one run_width_search call. Every member is guarded by
/// `mu` except each slot's stop token, which its probe polls unlocked.
class ProbeScheduler {
 public:
  ProbeScheduler(std::size_t w_hint, std::size_t w_cap,
                 const WidthProbe& probe)
      : probe_(probe), search_(w_hint, w_cap) {
    plan();
  }

  /// One worker. A throw anywhere (a probe, or the bookkeeping) stops
  /// every running probe and ends every worker; finish() rethrows it.
  void work() {
    try {
      work_loop();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_) error_ = std::current_exception();
      for (auto& [w, s] : memo_) {
        (void)w;
        if (s.running) s.stop.store(true);
      }
      cv_.notify_all();
    }
  }

  WidthSearchOutcome finish() {
    if (error_) std::rethrow_exception(error_);
    WidthSearchOutcome out;
    out.feasible = search_.feasible();
    out.w_min = search_.hi();
    out.lo = search_.lo();
    out.used = std::move(used_);
    return out;
  }

 private:
  struct Slot {
    WidthVerdict verdict = WidthVerdict::kUnknown;
    bool running = false;
    std::atomic<bool> stop{false};
  };

  /// Claim the most wanted idle width, probe it unlocked, record the
  /// verdict and re-plan; wait while every wanted width is already
  /// running elsewhere. Returns once the search is decided or failed.
  void work_loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (search_.done() || error_) return;
      const auto it =
          std::find_if(wanted_.begin(), wanted_.end(), [&](std::size_t w) {
            return !memo_[w].running;
          });
      if (it == wanted_.end()) {
        // The current round has an undecided width until the search is
        // done, and it is not idle, so another worker is probing it and
        // its verdict will wake this one.
        cv_.wait(lock);
        continue;
      }
      const std::size_t w = *it;
      Slot& slot = memo_[w];
      slot.running = true;
      slot.stop.store(false);
      lock.unlock();
      const WidthVerdict v = probe_(w, slot.stop);
      lock.lock();
      slot.running = false;
      slot.verdict = v;  // kUnknown when stopped: the result is thrown away
      if (v != WidthVerdict::kUnknown) {
        while (search_.advance([&](std::size_t x) { return known(x); },
                               &used_)) {
        }
        plan();
      }
      cv_.notify_all();
    }
  }

  WidthVerdict known(std::size_t w) const {
    const auto it = memo_.find(w);
    return it == memo_.end() ? WidthVerdict::kUnknown : it->second.verdict;
  }

  /// Rebuild `wanted_` in priority order: the current round's undecided
  /// prefix, then the rounds that follow if every undecided width fails.
  /// Running probes outside it are told to stop.
  void plan() {
    wanted_.clear();
    auto want_prefix = [&](const WidthSearch& s) {
      for (std::size_t w : s.round()) {
        const WidthVerdict v = known(w);
        if (v == WidthVerdict::kRoutes) break;
        if (v == WidthVerdict::kUnknown) wanted_.push_back(w);
      }
    };
    want_prefix(search_);
    WidthSearch next = search_;
    const auto fails_unless_known = [&](std::size_t w) {
      const WidthVerdict v = known(w);
      return v == WidthVerdict::kUnknown ? WidthVerdict::kFails : v;
    };
    for (std::size_t r = 0; r < kLookaheadRounds; ++r) {
      if (!next.advance(fails_unless_known) || next.done() ||
          next.growing()) {
        break;
      }
      want_prefix(next);
    }
    for (auto& [w, s] : memo_) {
      if (s.running &&
          std::find(wanted_.begin(), wanted_.end(), w) == wanted_.end()) {
        s.stop.store(true);
      }
    }
  }

  const WidthProbe& probe_;
  std::mutex mu_;
  std::condition_variable cv_;
  WidthSearch search_;
  /// Node-based so a running probe's stop token never moves.
  std::map<std::size_t, Slot> memo_;
  std::vector<std::size_t> wanted_;
  std::vector<std::size_t> used_;
  std::exception_ptr error_;
};

}  // namespace

WidthSearchOutcome run_width_search(std::size_t w_hint, std::size_t w_cap,
                                    const WidthProbe& probe) {
  ProbeScheduler sched(w_hint, w_cap, probe);
  // Nested inside another parallel_for body, the pool runs these bodies
  // one after another on this thread: the first decides the search alone
  // (it never waits, nothing else is running) and the rest return at once.
  parallel_for(std::min(ThreadPool::current().thread_count(), kMaxWorkers),
               [&](std::size_t) { sched.work(); });
  return sched.finish();
}

}  // namespace nemfpga
