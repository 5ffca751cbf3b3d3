// Shared plumbing of the benchmark program: options, clocks, order
// statistics, the in-memory span log of traced runs, and the one-line
// JSON result a run hands back to perfbench/run.py.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "tmwia/bits/bitvector.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measuring budget of this process
  bool trace = false;     ///< traced run: per-layer numbers instead of end-to-end
  std::size_t threads = 1;  ///< global engine pool size
  std::string trace_out;    ///< where a traced run writes its span log (optional)
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

/// Median (mean of the two middle values for an even count); 0 for none.
double median(std::vector<double> v);

/// Nearest-rank order statistic: the smallest sample with at least a
/// share q of the samples at or below it. Exact, never interpolated.
double quantile(std::vector<double> v, double q);

/// FNV-1a over every word of every vector, in order.
std::uint64_t digest(const std::vector<tmwia::bits::BitVector>& rows);

std::string hex64(std::uint64_t v);

/// One timed operation.
struct Timed {
  double seconds = 0.0;
  bool calm = true;  ///< see StealWatch
};

/// Timed operations as a comma-separated list of seconds, a disturbed
/// one marked with a trailing "!" (kept in a process's JSON so every
/// timed operation of a run can be inspected).
std::string join(const std::vector<Timed>& ops);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// CPU time the host has taken from this machine so far: the "steal"
/// column of /proc/stat, summed over CPUs, in seconds. 0 where the
/// kernel reports none (bare metal, non-Linux).
double steal_s();

/// Watches one timed operation for host interference. On a shared
/// virtual machine the hypervisor now and then runs other guests on
/// this machine's CPUs. An operation that loses more than kMaxSteal of
/// the machine's CPU time to that is marked "disturbed". This is a
/// diagnostic only: every reported timing is taken over all operations.
class StealWatch {
 public:
  static constexpr double kMaxSteal = 0.05;
  StealWatch() : t0_(now_ns()), steal0_(steal_s()) {}
  /// True when the host took at most kMaxSteal of the CPU time since
  /// construction.
  [[nodiscard]] bool calm() const;

 private:
  std::int64_t t0_;
  double steal0_;
};

/// Seconds of every operation, or of the calm ones only (diagnostic).
std::vector<double> seconds_of(const std::vector<Timed>& ops, bool calm_only = false);

/// Operations the host disturbed.
inline std::size_t disturbed(const std::vector<Timed>& ops) {
  return static_cast<std::size_t>(
      std::count_if(ops.begin(), ops.end(), [](const Timed& op) { return !op.calm; }));
}

/// Call `op` until `budget_s` seconds have passed and it has run at
/// least `min_runs` times.
void repeat_for(double budget_s, std::size_t min_runs, const std::function<void()>& op);

/// Spans of a traced run, kept in memory and written out at the end.
/// Each span is a call the benchmark made into one layer's public
/// function: its name is "<layer>.<call>", `parent` indexes the span
/// that was open when it started (-1 for none). Very frequent calls
/// (per probe, per strategy step) are aggregated per name instead of
/// stored one by one.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };
  struct Total {
    std::uint64_t count = 0;
    std::int64_t ns = 0;
  };

  int open(std::string name);
  void close(int id);
  void add(const std::string& name, std::int64_t ns, std::uint64_t count = 1);

  /// Duration of a span minus the parts of it its child spans cover.
  [[nodiscard]] std::int64_t self_ns(int id) const;

  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::map<std::string, Total> totals_;
};

/// RAII span on a SpanLog; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name)
      : log_(log), id_(log != nullptr ? log->open(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

/// What one process of the benchmark measured. Every operation the
/// run attempts is checked; a failed check names the operation.
class Result {
 public:
  void value(const std::string& name, double v) { values_[name] = v; }
  void text(const std::string& name, const std::string& v) { texts_[name] = v; }
  /// Count one checked operation; `what` explains a failure.
  void op(bool ok, const std::string& what) { ops(1, ok ? 0 : 1, what); }
  /// Count `attempted` checked operations of which `failed` failed.
  void ops(std::uint64_t attempted, std::uint64_t failed, const std::string& what);
  /// A fatal check outside the counted operations (set-up, final audit).
  void check(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }

  [[nodiscard]] bool ok() const { return failures_.empty(); }
  [[nodiscard]] std::string to_json() const;

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::string> texts_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Times the workload's set-up ("setup_s"). One set-up takes well under
/// a millisecond, and a single burst of them sits wholly inside one
/// state of a shared host, so a run sets up in short bursts spread over
/// its whole length: once before its first timed operation and again
/// between operations. "setup_s" is the median of the bursts' medians.
class SetupTimer {
 public:
  static constexpr std::size_t kMinReps = 5;
  static constexpr double kBurstS = 0.02;

  /// Set up at least kMinReps times and for kBurstS seconds; keep the
  /// last instance (tearing the others down is not set-up).
  template <typename Make>
  auto burst(Make make) {
    std::vector<double> times;
    auto t0 = now_ns();
    auto state = make();
    times.push_back(seconds_since(t0));
    double spent = times.back();
    while (times.size() < kMinReps || spent < kBurstS) {
      t0 = now_ns();
      auto next = make();
      times.push_back(seconds_since(t0));
      spent += times.back();
      state = std::move(next);
    }
    bursts_.push_back(median(times));
    return state;
  }

  /// "setup_s", plus every burst's median as "setup_bursts" so run.py
  /// can pool the bursts of both its processes.
  void report(Result& out) const;

 private:
  std::vector<double> bursts_;
};

void run_protocol(const Options& opt, Result& out);
void run_serve(const Options& opt, Result& out);

}  // namespace perfbench
