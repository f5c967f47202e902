// Deterministic parallel execution for the embarrassingly parallel hot
// paths: Monte-Carlo yield trials (Sec 2.3), population sampling (Fig 6),
// channel-width probes (Sec 3.3), and the buffer-downsizing study sweep
// (Sec 3.4). Determinism is the design constraint — every parallel loop
// in this codebase must produce bit-identical results at any thread
// count, which callers achieve by (a) deriving one independent Rng stream
// per task index (Rng::fork / Rng::from_stream) instead of sharing a
// sequential generator, and (b) reducing per-task partial results in
// task-index order. The pool itself guarantees only that each index runs
// exactly once; it makes no ordering promise.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

namespace nemfpga {

/// Upper bound on a requested worker-thread count: NF_THREADS is clamped
/// to it (with one warning on stderr) and `nemfpga serve --threads` above
/// it is a usage error. Far above any core count the flow can use, and
/// low enough that a typo cannot exhaust the process's thread budget.
inline constexpr std::size_t kMaxThreads = 256;

/// Decode an NF_THREADS value: a decimal integer >= 1, clamped to
/// kMaxThreads (*clamped reports whether it was). Null, malformed or
/// < 1 values yield nullopt — the caller falls back to the hardware
/// concurrency.
std::optional<std::size_t> threads_from_env(const char* env, bool* clamped);

/// Fixed-size worker pool with a blocking fork-join parallel_for. The
/// calling thread always participates in the loop, so a 1-thread pool is
/// an inline serial loop with zero synchronisation.
class ThreadPool {
 public:
  /// `threads` is the total worker count including the caller; 0 and 1
  /// both mean "serial".
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads that execute loop bodies (spawned workers + caller).
  std::size_t thread_count() const { return workers_.size() + 1; }

  /// Run body(i) for every i in [0, n), blocking until all complete.
  /// Indices are claimed dynamically in chunks, so the execution order is
  /// unspecified — bodies must be index-deterministic and share-nothing
  /// (or synchronise their shared writes). The first exception thrown by
  /// any body is rethrown here; remaining indices may be skipped. Nested
  /// calls (from inside a body) run serially on the calling thread, so
  /// composed parallel layers cannot deadlock.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

  /// Process-wide pool used by the free parallel_for/parallel_map:
  /// NF_THREADS if set (>= 1, clamped to kMaxThreads), otherwise
  /// std::thread::hardware_concurrency.
  /// Constructed once on first use; NF_THREADS is read at that point.
  static ThreadPool& global();

  /// The pool the free functions on this thread route through: the
  /// innermost active ScopedUse override, or global().
  static ThreadPool& current();

  /// RAII override of current() for the enclosing scope (this thread
  /// only). Lets tests compare NF_THREADS=1 vs NF_THREADS=8 behaviour in
  /// one process without re-reading the environment.
  class ScopedUse {
   public:
    explicit ScopedUse(ThreadPool& pool);
    ~ScopedUse();
    ScopedUse(const ScopedUse&) = delete;
    ScopedUse& operator=(const ScopedUse&) = delete;

   private:
    ThreadPool* prev_;
  };

 private:
  struct Job;

  void worker_loop();
  static void drain(Job& job);

  std::vector<std::thread> workers_;
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::vector<std::shared_ptr<Job>> queue_;
  bool stop_ = false;
};

/// parallel_for over ThreadPool::current().
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

/// Evaluate fn(i) for i in [0, n) on ThreadPool::current() and return the
/// results in index order (the deterministic-reduction building block).
/// fn must be safe to invoke concurrently from multiple threads.
template <typename F>
auto parallel_map(std::size_t n, F&& fn)
    -> std::vector<std::decay_t<std::invoke_result_t<F&, std::size_t>>> {
  using T = std::decay_t<std::invoke_result_t<F&, std::size_t>>;
  std::vector<std::optional<T>> slots(n);
  parallel_for(n, [&](std::size_t i) { slots[i].emplace(fn(i)); });
  std::vector<T> out;
  out.reserve(n);
  for (auto& s : slots) out.push_back(std::move(*s));
  return out;
}

}  // namespace nemfpga
