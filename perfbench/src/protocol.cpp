// protocol_zero_radius: the paper's peer-to-peer execution. 2048
// core::ZeroRadiusStrategy peers (one planted alpha = 1/2, D = 0
// community) driven through billboard::RoundScheduler::run with a
// ProtocolAuditor and a binary FlightRecorder writing to memory
// attached. Posts, posters/popular reads, the scheduler, auditor and
// recorder hooks and per-peer set-up do the work; kernels and the
// engine pool do almost none.
#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>

#include "common.hpp"
#include "layers.hpp"
#include "tmwia/billboard/protocol_auditor.hpp"
#include "tmwia/billboard/round_scheduler.hpp"
#include "tmwia/core/bit_space.hpp"
#include "tmwia/core/zero_radius_strategy.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/obs/flight_recorder.hpp"

namespace perfbench {
namespace {

using namespace tmwia;

constexpr std::size_t kPeers = 2048;
constexpr std::size_t kObjects = 2048;
constexpr double kAlpha = 0.5;

/// Benchmark-side wrapper around one peer: notes when the peer is
/// first seen done (its estimate is ready) and, in traced solves, times
/// the strategy callbacks.
class TimedPeer final : public billboard::PlayerStrategy {
 public:
  struct Clock {
    bool time_steps = false;
    std::int64_t step_ns = 0;
  };

  TimedPeer(core::ZeroRadiusStrategy inner, Clock* clock)
      : inner_(std::move(inner)), clock_(clock) {}

  std::optional<billboard::ObjectId> next_probe(const billboard::RoundView& view) override {
    if (!clock_->time_steps) return inner_.next_probe(view);
    const auto t0 = now_ns();
    auto r = inner_.next_probe(view);
    clock_->step_ns += now_ns() - t0;
    return r;
  }
  void on_result(billboard::ObjectId o, bool value) override {
    if (!clock_->time_steps) return inner_.on_result(o, value);
    const auto t0 = now_ns();
    inner_.on_result(o, value);
    clock_->step_ns += now_ns() - t0;
  }
  std::vector<billboard::PendingPost> posts() override {
    if (!clock_->time_steps) return inner_.posts();
    const auto t0 = now_ns();
    auto r = inner_.posts();
    clock_->step_ns += now_ns() - t0;
    return r;
  }
  [[nodiscard]] bool done() const override {
    const bool d = inner_.done();
    if (d && finished_ns_ == 0) finished_ns_ = now_ns();
    return d;
  }

  [[nodiscard]] bits::BitVector output() const { return inner_.output(); }
  [[nodiscard]] std::int64_t finished_ns() const { return finished_ns_; }

 private:
  core::ZeroRadiusStrategy inner_;
  Clock* clock_;
  mutable std::int64_t finished_ns_ = 0;
};

enum class Mode { kPlain, kTraced, kDetached };

/// Installs a recorder in the process-global slot for one scope.
class RecorderSlot {
 public:
  explicit RecorderSlot(obs::FlightRecorder* r) { obs::set_recorder(r); }
  ~RecorderSlot() { obs::set_recorder(nullptr); }
  RecorderSlot(const RecorderSlot&) = delete;
  RecorderSlot& operator=(const RecorderSlot&) = delete;
};

struct Solve {
  bool calm = true;            ///< see StealWatch
  double seconds = 0.0;        ///< peer build + run + collecting outputs
  double build_s = 0.0;        ///< constructing the peers
  double run_s = 0.0;          ///< RoundScheduler::run
  double step_s = 0.0;         ///< strategy callbacks (traced solves)
  std::vector<double> wait_s;  ///< per peer: run() start to estimate ready
  std::vector<bits::BitVector> outputs;
  std::vector<std::uint64_t> probes;  ///< per-peer invocations
  billboard::ScheduleResult schedule;
  std::size_t posts = 0;
  std::size_t record_bytes = 0;
  bool audit_clean = true;
  std::vector<billboard::Billboard::ChannelDump> channels;  ///< traced solves only
};

/// One full execution. A traced solve also records spans around the
/// peer construction and the scheduler run, aggregates the strategy
/// callbacks into one total, and keeps the final board.
Solve solve(const matrix::Instance& inst, const rng::Rng& coins, Mode mode, SpanLog* log) {
  const std::size_t n = inst.matrix.players();
  const std::size_t m = inst.matrix.objects();
  billboard::ProbeOracle oracle(inst.matrix);
  billboard::ProtocolAuditor auditor(n, m);
  std::ostringstream stream;
  obs::FlightRecorder recorder(stream, obs::RecordFormat::kBinary);
#if TMWIA_AUDIT
  if (mode != Mode::kDetached) oracle.set_auditor(&auditor);
#endif
  std::vector<matrix::PlayerId> players(n);
  std::iota(players.begin(), players.end(), 0u);
  std::vector<std::uint32_t> objects(m);
  std::iota(objects.begin(), objects.end(), 0u);
  TimedPeer::Clock clock;
  clock.time_steps = mode == Mode::kTraced;

  if (mode != Mode::kTraced) log = nullptr;

  Solve s;
  std::optional<RecorderSlot> slot;
  if (mode != Mode::kDetached) slot.emplace(&recorder);
  const StealWatch watch;
  const auto t0 = now_ns();
  std::vector<std::unique_ptr<billboard::PlayerStrategy>> peers;
  peers.reserve(n);
  {
    ScopedSpan span(log, "core.ZeroRadiusStrategy");
    for (matrix::PlayerId p = 0; p < n; ++p) {
      peers.push_back(std::make_unique<TimedPeer>(
          core::ZeroRadiusStrategy(p, players, objects, kAlpha, core::Params::practical(),
                                   coins),
          &clock));
    }
  }
  const auto t1 = now_ns();
  billboard::RoundScheduler sched(oracle);
  {
    ScopedSpan span(log, "billboard.RoundScheduler::run");
    s.schedule = sched.run(peers, 8 * (n + m) + 64);
  }
  const auto t2 = now_ns();
  if (log != nullptr) log->add("core.strategy_step", clock.step_ns);
  s.outputs.reserve(n);
  for (const auto& peer : peers) s.outputs.push_back(static_cast<TimedPeer&>(*peer).output());
  s.seconds = seconds_since(t0);
  s.calm = watch.calm();
  slot.reset();
  recorder.flush();

  s.build_s = static_cast<double>(t1 - t0) * 1e-9;
  s.run_s = static_cast<double>(t2 - t1) * 1e-9;
  s.step_s = static_cast<double>(clock.step_ns) * 1e-9;
  for (const auto& peer : peers) {
    s.wait_s.push_back(static_cast<double>(static_cast<TimedPeer&>(*peer).finished_ns() - t1) *
                       1e-9);
  }
  s.probes = oracle.snapshot();
  s.posts = sched.board().total_posts();
  s.record_bytes = stream.str().size();
  if (mode != Mode::kDetached) {
    auditor.verify_invocations(s.probes);
    s.audit_clean = auditor.report().clean();
  }
  if (log != nullptr) s.channels = sched.board().export_posts();
  return s;
}

}  // namespace

void run_protocol(const Options& opt, Result& out) {
  const auto make_instance = [&] {
    rng::Rng gen = rng::Rng(opt.seed).split(0x9e35);
    return matrix::planted_community(kPeers, kObjects, {kAlpha, 0}, gen);
  };
  SetupTimer setup;
  const auto inst = setup.burst(make_instance);
  const rng::Rng coins = rng::Rng(opt.seed).split(0xc015);

  // Reference (untimed): the centralized engine on the same coins. The
  // distributed execution must match it bit for bit, probe for probe.
  std::vector<matrix::PlayerId> players(kPeers);
  std::iota(players.begin(), players.end(), 0u);
  std::vector<std::uint32_t> objects(kObjects);
  std::iota(objects.begin(), objects.end(), 0u);
  billboard::ProbeOracle ref_oracle(inst.matrix);
  const auto ref = core::zero_radius_bits(ref_oracle, nullptr, players, objects, kAlpha,
                                          core::Params::practical(), coins);
  const auto ref_digest = digest(ref);
  const auto ref_probes = ref_oracle.snapshot();

  // What the metrics need of one solve, kept for every solve of a mode.
  struct Op {
    bool calm = true;
    double seconds = 0.0;
    double run_s = 0.0;
    double build_s = 0.0;
    double step_s = 0.0;
    double round_s = 0.0;  ///< run time over rounds
    std::vector<double> wait_s;
  };
  std::vector<Op> plain_ops, traced_ops, detached_ops;
  Solve last;  // the latest untraced solve
  std::vector<billboard::Billboard::ChannelDump> board;  // of a traced solve
  SpanLog log;
  std::size_t i = 0;
  const auto check = [&](const Solve& s) {
    const bool ok = s.schedule.all_done && s.schedule.failed_strategies.empty() &&
                    digest(s.outputs) == ref_digest && s.probes == ref_probes && s.audit_clean;
    const char* why = !s.schedule.all_done ? "not every peer finished"
                      : !s.audit_clean       ? "audit not clean"
                                             : "differs from zero_radius_bits";
    out.op(ok, std::string("protocol solve: ") + why);
  };
  repeat_for(opt.seconds, opt.trace ? 6 : 3, [&] {
    if (i > 0) setup.burst(make_instance);
    const Mode mode = !opt.trace ? Mode::kPlain : static_cast<Mode>(i % 3);
    ++i;
    auto s = solve(inst, coins, mode, &log);
    check(s);
    const Op op{s.calm,   s.seconds, s.run_s, s.build_s,
                s.step_s, s.run_s / static_cast<double>(s.schedule.rounds), s.wait_s};
    switch (mode) {
      case Mode::kPlain:
        plain_ops.push_back(op);
        last = std::move(s);
        break;
      case Mode::kTraced:
        traced_ops.push_back(op);
        board = std::move(s.channels);
        break;
      case Mode::kDetached:
        detached_ops.push_back(op);
        break;
    }
  });
  const auto pick = [](const std::vector<Op>& ops, double Op::*field) {
    std::vector<double> v;
    for (const auto& op : ops) v.push_back(op.*field);
    return v;
  };
  const auto plain = pick(plain_ops, &Op::seconds);
  // Peer-wait percentiles per solve, then their median over solves: a
  // p99 pooled over all solves would be the tail of the slowest one.
  std::vector<double> wait_p50, wait_p99;
  for (const auto& op : plain_ops) {
    wait_p50.push_back(quantile(op.wait_s, 0.50));
    wait_p99.push_back(quantile(op.wait_s, 0.99));
  }

  const auto probes = std::accumulate(ref_probes.begin(), ref_probes.end(), std::uint64_t{0});
  setup.report(out);
  out.value("solve_s", median(plain));
  out.value("solves", static_cast<double>(plain_ops.size()));
  std::vector<Timed> all;
  for (const auto& op : plain_ops) all.push_back({op.seconds, op.calm});
  out.value("disturbed", static_cast<double>(disturbed(all)));
  out.value("calm_solve_s", median(seconds_of(all, true)));
  out.text("solve_samples", join(all));
  out.value("rounds", static_cast<double>(last.schedule.rounds));
  out.value("total_probes", static_cast<double>(probes));
  // Thm 3.1 reconstructs the D = 0 community exactly, so its Delta is 0;
  // Delta over all players is what the noise players end with.
  out.value("discrepancy",
            static_cast<double>(inst.matrix.discrepancy(last.outputs, players)));
  out.value("community_discrepancy",
            static_cast<double>(inst.matrix.discrepancy(last.outputs, inst.communities[0])));
  out.text("digest", hex64(ref_digest));
  out.value("request_p50_us", median(wait_p50) * 1e6);
  out.value("request_p99_us", median(wait_p99) * 1e6);
  out.value("request_samples", static_cast<double>(kPeers * plain_ops.size()));
  out.value("requests_per_s", static_cast<double>(kPeers) / median(plain));
  // Peers publish at the end of every lockstep round: an epoch is one
  // round, taken per solve as run() time over rounds.
  out.value("epoch_s", median(pick(plain_ops, &Op::round_s)));

  if (!opt.trace) return;

  std::vector<double> sched;
  for (const auto& op : traced_ops) sched.push_back(op.run_s - op.step_s);
  out.value("core.strategy_build_s", median(pick(plain_ops, &Op::build_s)));
  out.value("core.strategy_step_s", median(pick(traced_ops, &Op::step_s)));
  out.value("billboard.scheduler_s", median(sched));
  out.value("billboard.hooks_s",
            median(pick(plain_ops, &Op::run_s)) - median(pick(detached_ops, &Op::run_s)));
  out.value("billboard.posts", static_cast<double>(last.posts));
  out.value("billboard.idle_waits", static_cast<double>(last.schedule.idle_probes));
  out.value("billboard.useful_probe_ratio",
            static_cast<double>(probes) /
                static_cast<double>(probes + last.schedule.idle_probes));
  out.value("obs.record_bytes", static_cast<double>(last.record_bytes));
  out.value("obs.trace_overhead_pct",
            (median(pick(traced_ops, &Op::seconds)) / median(plain) - 1.0) * 100.0);

  bits_layer(inst.matrix, log, out);
  billboard_layer(board, log, out);
  {
    // The workload's own hook set: auditor attached, recorder staging.
    billboard::ProbeOracle oracle(inst.matrix);
    billboard::ProtocolAuditor auditor(kPeers, kObjects);
#if TMWIA_AUDIT
    oracle.set_auditor(&auditor);
#endif
    std::ostringstream sink;
    obs::FlightRecorder recorder(sink, obs::RecordFormat::kBinary);
    recorder.run_begin("perfbench.probe", kAlpha, kPeers, kObjects);
    {
      RecorderSlot slot(&recorder);
      probe_layer(oracle, opt.seed, log, out);
    }
    recorder.flush();
  }
  write_trace(opt, log);
}

}  // namespace perfbench
