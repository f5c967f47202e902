#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace nemfpga {
namespace {

/// True while this thread is executing a parallel_for body (or idles as a
/// worker); nested parallel calls then run inline (serial) instead of
/// re-entering the pool, which keeps composed layers (e.g. per-circuit
/// loop around the channel-width probe loop) deadlock-free. A run_beside
/// side stage clears it for its duration.
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
/// `next`; `pending` counts the tickets queued for workers that have been
/// neither released by the worker that took them nor revoked, and the
/// last release wakes the caller.
struct ThreadPool::Job {
  std::size_t n = 0;
  std::size_t chunk = 1;
  const std::function<void(std::size_t)>* body = nullptr;
  /// A run_beside side stage: its caller waits on queue_cv_ (helping with
  /// queued tickets meanwhile), so its release wakes that instead.
  bool side = false;
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
    release(*job);
  }
}

void ThreadPool::revoke(const std::shared_ptr<Job>& job) {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  const auto kept = std::remove(queue_.begin(), queue_.end(), job);
  job->pending.fetch_sub(static_cast<std::size_t>(queue_.end() - kept));
  queue_.erase(kept, queue_.end());
}

void ThreadPool::release(Job& job) {
  if (job.side) {
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      job.pending.fetch_sub(1);
    }
    queue_cv_.notify_all();
    return;
  }
  std::lock_guard<std::mutex> lock(job.mutex);
  if (job.pending.fetch_sub(1) == 1) job.done_cv.notify_all();
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
  job->pending.store(tickets);
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    for (std::size_t i = 0; i < tickets; ++i) queue_.push_back(job);
  }
  queue_cv_.notify_all();

  t_in_parallel_region = true;
  drain(*job);
  t_in_parallel_region = false;
  // Every index is claimed now. A ticket still queued would only wait for
  // a worker that is busy elsewhere — maybe this very thread, when the
  // loop runs in a run_beside side stage.
  revoke(job);

  std::unique_lock<std::mutex> lock(job->mutex);
  job->done_cv.wait(lock, [&] { return job->pending.load() == 0; });
  if (job->error) std::rethrow_exception(job->error);
}

void ThreadPool::run_beside(const std::function<void()>& side,
                            const std::function<void()>& main) {
  std::exception_ptr side_error, main_error;
  const auto run = [](const std::function<void()>& stage,
                      std::exception_ptr& error) {
    try {
      stage();
    } catch (...) {
      error = std::current_exception();
    }
  };
  if (workers_.empty() || t_in_parallel_region) {
    run(side, side_error);
    run(main, main_error);
  } else {
    // side() is a one-index job: a worker claims it, or the caller does
    // once main() is done. Wherever it runs, its loops use this pool.
    const std::function<void(std::size_t)> body = [&](std::size_t) {
      const bool in_region = t_in_parallel_region;
      t_in_parallel_region = false;
      {
        ScopedUse use(*this);
        run(side, side_error);
      }
      t_in_parallel_region = in_region;
    };
    auto job = std::make_shared<Job>();
    job->n = 1;
    job->body = &body;
    job->side = true;
    job->pending.store(1);
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      queue_.push_back(job);
    }
    queue_cv_.notify_one();

    run(main, main_error);
    drain(*job);
    revoke(job);
    // Until the worker running side() releases it, take queued tickets
    // (side()'s own loops among them) like any worker would.
    std::unique_lock<std::mutex> lock(queue_mutex_);
    while (job->pending.load() != 0) {
      if (queue_.empty()) {
        queue_cv_.wait(lock);
        continue;
      }
      const std::shared_ptr<Job> other = std::move(queue_.back());
      queue_.pop_back();
      lock.unlock();
      t_in_parallel_region = true;
      drain(*other);
      t_in_parallel_region = false;
      release(*other);
      lock.lock();
    }
  }
  if (side_error) std::rethrow_exception(side_error);
  if (main_error) std::rethrow_exception(main_error);
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
