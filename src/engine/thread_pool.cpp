#include "tmwia/engine/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "tmwia/bits/kernels.hpp"
#include "tmwia/obs/profile.hpp"

namespace tmwia::engine {
namespace {

// tmwia-lint: allow(nonconst-global) registered singleton: global pool config
std::atomic<std::size_t> g_desired_threads{0};
// tmwia-lint: allow(nonconst-global) registered singleton: global pool latch
std::atomic<bool> g_global_started{false};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lk(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    MutexLock lk(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  MutexLock lk(mu_);
  while (in_flight_ != 0) cv_idle_.wait(lk);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(g_desired_threads.load(std::memory_order_relaxed));
  g_global_started.store(true, std::memory_order_release);
  return pool;
}

bool ThreadPool::global_started() {
  return g_global_started.load(std::memory_order_acquire);
}

bool set_global_threads(std::size_t threads) {
  if (ThreadPool::global_started()) return false;
  g_desired_threads.store(threads, std::memory_order_relaxed);
  return true;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lk(mu_);
      while (!stop_ && tasks_.empty()) cv_task_.wait(lk);
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      MutexLock lk(mu_);
      if (--in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

namespace {

/// One parallel_for call's shared state. The caller and at most
/// thread_count() pool tasks claim chunk indices from `next_` until it
/// passes `chunks_`; the caller returns once every claimed chunk is
/// done. A task the pool starts after that finds the cursor exhausted
/// and touches nothing but this block, so the block is shared-owned by
/// the caller and its tasks rather than living on the caller's stack.
class Fork {
 public:
  Fork(std::size_t begin, std::size_t end, std::size_t grain, std::size_t chunks,
       const std::function<void(std::size_t)>& body)
      : begin_(begin), end_(end), grain_(grain), chunks_(chunks), body_(&body) {}
  Fork(const Fork&) = delete;
  Fork& operator=(const Fork&) = delete;

  /// Claim and run chunks until none are left. After the first error
  /// the remaining chunks are claimed and counted but not run.
  void work() {
    for (;;) {
      const std::size_t c = next_.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks_) return;
      if (!failed_.load(std::memory_order_relaxed)) {
        const std::size_t lo = begin_ + c * grain_;
        const std::size_t hi = std::min(end_, lo + grain_);
        try {
          for (std::size_t i = lo; i < hi; ++i) (*body_)(i);
        } catch (...) {
          failed_.store(true, std::memory_order_relaxed);
          const MutexLock lk(mu_);
          if (!first_error_) first_error_ = std::current_exception();
        }
      }
      // acq_rel: the chunk's writes happen-before the caller's return.
      if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks_) {
        const MutexLock lk(mu_);
        finished_ = true;
        cv_.notify_all();
      }
    }
  }

  /// Caller side: block until every chunk is done; the first error
  /// any chunk threw (first one wins), or null.
  std::exception_ptr join() {
    if (done_.load(std::memory_order_acquire) != chunks_) {
      MutexLock lk(mu_);
      while (!finished_) cv_.wait(lk);
    }
    if (!failed_.load(std::memory_order_relaxed)) return nullptr;
    const MutexLock lk(mu_);
    return first_error_;
  }

 private:
  const std::size_t begin_;
  const std::size_t end_;
  const std::size_t grain_;
  const std::size_t chunks_;
  /// Dereferenced only for a claimed chunk, and the caller (who owns
  /// the body) outlives every claimed chunk.
  const std::function<void(std::size_t)>* body_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> done_{0};
  std::atomic<bool> failed_{false};
  Mutex mu_;
  CondVar cv_;
  bool finished_ TMWIA_GUARDED_BY(mu_) = false;
  std::exception_ptr first_error_ TMWIA_GUARDED_BY(mu_);
};

}  // namespace

void detail::parallel_for_chunks(std::size_t begin, std::size_t end,
                                 const std::function<void(std::size_t)>& body,
                                 std::size_t grain) {
  auto& pool = ThreadPool::global();
  // Backend reselection during a phase would hand different workers
  // different kernel vtables; the gate turns that misuse into a loud
  // error at the set_backend call site.
  const bits::kernels::ParallelPhaseGuard kernel_gate;

  // The caller runs chunks too, so one fewer task than chunks is
  // enough help, and more than one per worker would only queue.
  const std::size_t chunks = (end - begin + grain - 1) / grain;
  const std::size_t helpers = std::min(pool.thread_count(), chunks - 1);
  const auto fork = std::make_shared<Fork>(begin, end, grain, chunks, body);

  // Ambient profile zone: costs deposited inside parallelized player
  // loops attribute to the phase that spawned them, not to an
  // anonymous worker root. Workers swap the caller's zone in for their
  // share and restore their own afterwards; the caller's chunks land
  // there already.
  const obs::Profiler::ZoneId ambient_zone = obs::Profiler::current_zone();
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.submit([fork, ambient_zone] {
      const obs::Profiler::ZoneId prev_zone = obs::Profiler::swap_current_zone(ambient_zone);
      fork->work();
      obs::Profiler::swap_current_zone(prev_zone);
    });
  }

  fork->work();
  if (const std::exception_ptr err = fork->join()) std::rethrow_exception(err);
}

}  // namespace tmwia::engine
