#include "util/thread_pool.hpp"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace nemfpga {
namespace {

/// True while this thread is executing a parallel_for body; nested
/// parallel calls then run inline (serial) instead of re-entering the
/// pool, which keeps composed layers (e.g. per-circuit loop around the
/// channel-width probe loop) deadlock-free.
thread_local bool t_in_parallel_region = false;

/// Innermost ScopedUse override for this thread.
thread_local ThreadPool* t_current_pool = nullptr;

std::size_t default_thread_count() {
  bool clamped = false;
  if (const auto n = threads_from_env(std::getenv("NF_THREADS"), &clamped)) {
    if (clamped) {
      std::fprintf(stderr,
                   "warning: NF_THREADS=%s exceeds the cap; using %zu "
                   "threads\n",
                   std::getenv("NF_THREADS"), kMaxThreads);
    }
    return *n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

}  // namespace

std::optional<std::size_t> threads_from_env(const char* env, bool* clamped) {
  *clamped = false;
  if (env == nullptr) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(env, &end, 10);
  if (end == env || *end != '\0' || v < 1) return std::nullopt;
  if (errno == ERANGE || static_cast<unsigned long long>(v) > kMaxThreads) {
    *clamped = true;
    return kMaxThreads;
  }
  return static_cast<std::size_t>(v);
}

/// One fork-join loop. Workers and the caller claim index chunks from
/// `next`; `pending` counts participants that have not yet finished their
/// claim loop, and the last one out wakes the caller.
struct ThreadPool::Job {
  std::size_t n = 0;
  std::size_t chunk = 1;
  const std::function<void(std::size_t)>* body = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> pending{0};
  std::mutex mutex;
  std::condition_variable done_cv;
  std::exception_ptr error;
};

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t spawn = threads > 1 ? threads - 1 : 0;
  workers_.reserve(spawn);
  for (std::size_t i = 0; i < spawn; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  t_in_parallel_region = true;  // bodies running here must not re-enter
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and nothing left to finish
      job = std::move(queue_.back());
      queue_.pop_back();
    }
    drain(*job);
    std::lock_guard<std::mutex> lock(job->mutex);
    if (job->pending.fetch_sub(1) == 1) job->done_cv.notify_all();
  }
}

void ThreadPool::drain(Job& job) {
  for (;;) {
    const std::size_t begin = job.next.fetch_add(job.chunk);
    if (begin >= job.n) return;
    const std::size_t end = std::min(begin + job.chunk, job.n);
    for (std::size_t i = begin; i < end; ++i) {
      try {
        (*job.body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(job.mutex);
        if (!job.error) job.error = std::current_exception();
        // Cancel the remaining indices; in-flight bodies finish normally.
        job.next.store(std::numeric_limits<std::size_t>::max() / 2);
        return;
      }
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (workers_.empty() || n == 1 || t_in_parallel_region) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  auto job = std::make_shared<Job>();
  job->n = n;
  job->body = &body;
  // Chunked dynamic claiming: big enough to amortise the atomic, small
  // enough to balance uneven task costs (routings at different widths).
  job->chunk = std::max<std::size_t>(1, n / (thread_count() * 4));
  const std::size_t tickets = std::min(workers_.size(), n - 1);
  job->pending.store(tickets + 1);
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    for (std::size_t i = 0; i < tickets; ++i) queue_.push_back(job);
  }
  queue_cv_.notify_all();

  t_in_parallel_region = true;
  drain(*job);
  t_in_parallel_region = false;

  std::unique_lock<std::mutex> lock(job->mutex);
  job->pending.fetch_sub(1);
  job->done_cv.wait(lock, [&] { return job->pending.load() == 0; });
  if (job->error) std::rethrow_exception(job->error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(default_thread_count());
  return pool;
}

ThreadPool& ThreadPool::current() {
  return t_current_pool ? *t_current_pool : global();
}

ThreadPool::ScopedUse::ScopedUse(ThreadPool& pool) : prev_(t_current_pool) {
  t_current_pool = &pool;
}

ThreadPool::ScopedUse::~ScopedUse() { t_current_pool = prev_; }

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  ThreadPool::current().parallel_for(n, body);
}

}  // namespace nemfpga
