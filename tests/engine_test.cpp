// Tests for the execution engine: thread pool lifecycle, parallel_for
// coverage, exception propagation, determinism of result placement,
// and the fork/join in which the calling thread takes chunks beside
// the pool's workers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "tmwia/bits/kernels.hpp"
#include "tmwia/engine/thread_pool.hpp"
#include "tmwia/obs/profile.hpp"

namespace tmwia::engine {
namespace {

TEST(ThreadPool, ConstructsWithRequestedThreads) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, WaitIdleOnFreshPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, 1000, [&](std::size_t i) { hits[i].fetch_add(1); }, 16);
  for (std::size_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, EmptyAndSingleton) {
  int calls = 0;
  parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, OffsetRange) {
  std::atomic<std::size_t> sum{0};
  parallel_for(100, 200, [&](std::size_t i) { sum.fetch_add(i); }, 8);
  EXPECT_EQ(sum.load(), (100u + 199u) * 100u / 2u);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(0, 500,
                   [](std::size_t i) {
                     if (i == 250) throw std::runtime_error("boom");
                   },
                   4),
      std::runtime_error);
}

TEST(ParallelFor, ResultsIndependentOfGrain) {
  std::vector<int> a(512), b(512);
  parallel_for(0, 512, [&](std::size_t i) { a[i] = static_cast<int>(i * i % 97); }, 1);
  parallel_for(0, 512, [&](std::size_t i) { b[i] = static_cast<int>(i * i % 97); }, 200);
  EXPECT_EQ(a, b);
}

TEST(ParallelFor, SmallRangeRunsSerial) {
  // Under the grain threshold the body runs on the calling thread, so
  // thread-unsafe captures are fine.
  std::vector<int> order;
  parallel_for(0, 10, [&](std::size_t i) { order.push_back(static_cast<int>(i)); }, 64);
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

// ---- fork/join: the caller and at most thread_count() pool tasks
// take chunks from one cursor. These call the chunked dispatch
// directly, so a single chunk goes through it too (parallel_for runs
// ranges within one grain serially before reaching it).

constexpr std::size_t kGrain = 8;

/// Run detail::parallel_for_chunks over `chunks` full grains and
/// return how often each index ran.
std::vector<int> hits_for_chunks(std::size_t chunks) {
  const std::size_t n = chunks * kGrain;
  std::vector<std::atomic<int>> hits(n);
  const std::function<void(std::size_t)> body = [&](std::size_t i) { hits[i].fetch_add(1); };
  detail::parallel_for_chunks(0, n, body, kGrain);
  std::vector<int> out;
  out.reserve(n);
  for (const auto& h : hits) out.push_back(h.load());
  return out;
}

TEST(ParallelForChunks, EveryIndexOnceAtAnyChunkCount) {
  const std::size_t threads = ThreadPool::global().thread_count();
  // One chunk; fewer chunks than workers; as many; more.
  const std::vector<std::size_t> counts = {1, std::max<std::size_t>(1, threads - 1), threads,
                                           threads + 1, 4 * threads + 3};
  for (const std::size_t chunks : counts) {
    const auto hits = hits_for_chunks(chunks);
    ASSERT_EQ(hits.size(), chunks * kGrain);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i], 1) << "chunks " << chunks << " index " << i;
    }
  }
}

/// Wait until `flag` is set, so one side of the fork provably runs a
/// chunk of its own; gives up after a generous bound so a broken
/// fork/join fails the expectations instead of hanging the suite.
void await(const std::atomic<bool>& flag) {
  for (int k = 0; k < 100000 && !flag.load(); ++k) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

/// Two chunks, so one pool task: each side waits in its first index
/// until the other side has started, so the caller and the worker run
/// exactly one chunk each. `throw_on_caller` picks the side whose
/// chunk throws.
void throw_on_one_side(bool throw_on_caller) {
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> caller_ran{false};
  std::atomic<bool> worker_ran{false};
  const std::function<void(std::size_t)> body = [&](std::size_t i) {
    const bool on_caller = std::this_thread::get_id() == caller;
    (on_caller ? caller_ran : worker_ran).store(true);
    await(on_caller ? worker_ran : caller_ran);
    if (on_caller == throw_on_caller && i % kGrain == 0) {
      throw std::runtime_error(on_caller ? "caller" : "worker");
    }
  };
  try {
    detail::parallel_for_chunks(0, 2 * kGrain, body, kGrain);
    ADD_FAILURE() << "no exception rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), throw_on_caller ? "caller" : "worker");
  }
  EXPECT_TRUE(caller_ran.load());
  EXPECT_TRUE(worker_ran.load());
}

TEST(ParallelForChunks, RethrowsFromCallerChunk) { throw_on_one_side(true); }

TEST(ParallelForChunks, RethrowsFromWorkerChunk) { throw_on_one_side(false); }

TEST(ParallelForChunks, CallerChunksLandInAmbientZone) {
  obs::Profiler prof(true);
  const auto caller = std::this_thread::get_id();
  std::atomic<std::uint64_t> on_caller{0};
  const std::size_t n = 40 * kGrain;
  {
    obs::ProfileZone phase("phase", prof);
    const std::function<void(std::size_t)> body = [&](std::size_t) {
      const auto zone = obs::Profiler::current_zone();
      prof.add(zone, obs::Cost::kProbes, 1);
      if (std::this_thread::get_id() == caller) {
        prof.add(zone, obs::Cost::kRankQueries, 1);
        on_caller.fetch_add(1);
      }
    };
    detail::parallel_for_chunks(0, n, body, kGrain);       // many chunks
    detail::parallel_for_chunks(0, kGrain, body, kGrain);  // the caller's alone
  }
  const auto rep = prof.report();
  ASSERT_EQ(rep.root.children.size(), 1u);
  const auto& phase = rep.root.children[0];
  EXPECT_EQ(phase.name, "phase");
  EXPECT_EQ(phase.cost(obs::Cost::kProbes), n + kGrain);
  EXPECT_GE(on_caller.load(), kGrain);
  EXPECT_EQ(phase.cost(obs::Cost::kRankQueries), on_caller.load());
  EXPECT_EQ(rep.root.cost(obs::Cost::kProbes), 0u);
}

TEST(ParallelForChunks, SetBackendThrowsMidPhase) {
  namespace kernels = bits::kernels;
  const auto backend = kernels::requested_backend();
  std::atomic<int> refused{0};
  const std::size_t n = 6 * kGrain;
  const std::function<void(std::size_t)> body = [&](std::size_t) {
    try {
      kernels::set_backend(backend);
    } catch (const std::logic_error&) {
      refused.fetch_add(1);
    }
  };
  detail::parallel_for_chunks(0, n, body, kGrain);
  EXPECT_EQ(refused.load(), static_cast<int>(n));
  EXPECT_EQ(kernels::parallel_phases_active(), 0u);
  EXPECT_NO_THROW(kernels::set_backend(backend));
}

}  // namespace
}  // namespace tmwia::engine
