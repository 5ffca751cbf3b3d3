// Execution engine for the synchronous-rounds simulation.
//
// The paper's model is n players acting in lockstep rounds. Inside one
// logical phase the players' computations are independent (they read
// the billboard snapshot from the previous phase, probe, and post), so
// we execute per-player work with a chunked parallel_for over a shared
// thread pool. The range is cut into fixed chunks of `grain` indices;
// the calling thread and at most thread_count() pool tasks claim chunk
// indices from one shared atomic cursor until none are left, so the
// caller works beside the pool instead of parking, and a call costs at
// most thread_count() task submissions however many chunks it has. The
// caller returns once every claimed chunk has finished. Determinism:
// the work function receives the player index and must draw randomness
// only from streams split by that index, so results are independent of
// which thread runs which chunk.
#pragma once

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "tmwia/support/thread_annotations.hpp"

namespace tmwia::engine {

using support::CondVar;
using support::Mutex;
using support::MutexLock;

/// A fixed-size pool of worker threads executing submitted tasks.
class ThreadPool {
 public:
  /// `threads == 0` selects std::thread::hardware_concurrency() (>= 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

  /// Submit a task; tasks may not submit nested parallel_for on the
  /// same pool (no re-entrancy needed in this codebase).
  void submit(std::function<void()> task);

  /// Block until all submitted tasks have finished.
  void wait_idle();

  /// Process-wide shared pool (lazily constructed).
  static ThreadPool& global();

  /// Has the global pool been constructed yet?
  static bool global_started();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;  ///< written once in the ctor, then join-only
  Mutex mu_;
  CondVar cv_task_;
  CondVar cv_idle_;
  std::queue<std::function<void()>> tasks_ TMWIA_GUARDED_BY(mu_);
  std::size_t in_flight_ TMWIA_GUARDED_BY(mu_) = 0;
  bool stop_ TMWIA_GUARDED_BY(mu_) = false;
};

/// Request a size for the process-global pool (0 = hardware
/// concurrency). Takes effect only if the pool has not been
/// constructed yet — call it before the first parallel_for (e.g. from
/// a --threads= CLI flag). Returns false (and changes nothing) if the
/// pool already exists.
bool set_global_threads(std::size_t threads);

namespace detail {

/// Chunked pool dispatch behind parallel_for: the caller and up to
/// min(thread_count(), chunks - 1) pool tasks drain a shared chunk
/// cursor. The type-erased body is constructed once per parallel_for
/// call (not per element), and no task is allocated per chunk.
void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t)>& body, std::size_t grain);

}  // namespace detail

/// Run body(i) for i in [begin, end) across the pool and the calling
/// thread in fixed chunks. Blocks until complete. Exceptions in body
/// are rethrown (first one wins; chunks not yet started are skipped).
/// Falls back to serial execution for tiny ranges and single-thread
/// pools — inlined here so the per-element calls carry no type-erasure
/// cost on that path (per-player loops run tens of millions of
/// elements).
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, const Body& body,
                  std::size_t grain = 64) {
  if (end <= begin) return;
  if (end - begin <= grain || ThreadPool::global().thread_count() == 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  detail::parallel_for_chunks(begin, end, body, grain);
}

}  // namespace tmwia::engine
