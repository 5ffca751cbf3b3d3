// serve_mixed: reads beside refinement. A RecommendationService with 4
// planted tenants at n = m = 256. This thread is the one writer: it
// calls refine() round-robin and times each epoch. One reader thread
// at a time (a fresh one per refine() call) sends closed-loop JSONL
// lines (recommend:estimate = 3:1) through serve::parse_request ->
// handle -> Response::to_json, the `tmwia_cli serve` path. Engine pool
// + reader + writer <= nproc is run.py's choice of --threads.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <thread>
#include <tuple>

#include "common.hpp"
#include "layers.hpp"
#include "tmwia/billboard/protocol_auditor.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/obs/metrics.hpp"
#include "tmwia/obs/profile.hpp"
#include "tmwia/serve/protocol.hpp"
#include "tmwia/serve/service.hpp"

namespace perfbench {
namespace {

using namespace tmwia;

constexpr std::size_t kTenants = 4;
constexpr std::size_t kN = 256;  // players = objects per tenant
constexpr double kAlpha = 0.5;
constexpr std::size_t kRadius = 2;
constexpr std::size_t kLines = 4096;
constexpr std::size_t kTopK = 8;
// Tenant state (and refine time) grows with every epoch, so a run is a
// series of cycles of a fixed number of passes over the tenants, each
// on a freshly built service: every run then measures the same epochs.
constexpr std::size_t kPassesPerCycle = 3;

struct World {
  std::unique_ptr<serve::RecommendationService> service;
  std::vector<std::string> names;
  std::vector<matrix::Instance> truth;  // kept to score estimates
  std::vector<std::string> lines;       // the request stream, cycled
};

World make_world(std::uint64_t seed) {
  World w;
  w.service = std::make_unique<serve::RecommendationService>();
  for (std::size_t t = 0; t < kTenants; ++t) {
    serve::TenantConfig cfg;
    cfg.name = "t";  // (operator+ on a literal trips a GCC 12 -Wrestrict false positive)
    cfg.name += std::to_string(t);
    cfg.alpha = kAlpha;
    cfg.seed = rng::Rng(seed).split(0x5e7e, t).next();
    rng::Rng gen = rng::Rng(cfg.seed).split(0x6e57);
    auto inst = matrix::planted_community(kN, kN, {kAlpha, kRadius}, gen);
    w.names.push_back(cfg.name);
    w.truth.push_back(inst);
    w.service->add_tenant(std::move(cfg), std::move(inst));
  }
  rng::Rng gen = rng::Rng(seed).split(0x11e5);
  for (std::size_t i = 0; i < kLines; ++i) {
    const auto& tenant = w.names[gen.uniform(kTenants)];
    const auto player = std::to_string(gen.uniform(kN));
    w.lines.push_back(
        i % 4 == 3 ? R"({"op":"estimate","tenant":")" + tenant + R"(","player":)" + player + "}"
                   : R"({"op":"recommend","tenant":")" + tenant + R"(","player":)" + player +
                         R"(,"k":)" + std::to_string(kTopK) + "}");
  }
  return w;
}

/// Exact distribution of non-negative integer samples (nanosecond
/// durations, staleness) in fixed memory: one counter per value below
/// 2^17, the rare larger ones kept verbatim. Order statistics are exact
/// (nearest rank), so the request percentiles never depend on bucket
/// interpolation, and the footprint does not grow with the request count.
class ExactHistogram {
 public:
  ExactHistogram() : counts_(kSpan, 0) {}
  void add(std::int64_t v) {
    ++n_;
    sum_ += static_cast<double>(v);
    if (v >= 0 && v < static_cast<std::int64_t>(kSpan)) {
      ++counts_[static_cast<std::size_t>(v)];
    } else {
      tail_.push_back(static_cast<double>(v));
    }
  }
  void merge(const ExactHistogram& o) {
    for (std::size_t v = 0; v < kSpan; ++v) counts_[v] += o.counts_[v];
    tail_.insert(tail_.end(), o.tail_.begin(), o.tail_.end());
    n_ += o.n_;
    sum_ += o.sum_;
  }
  void clear() { *this = ExactHistogram(); }
  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double sum() const { return sum_; }
  /// Nearest-rank quantile; 0 when empty.
  [[nodiscard]] double quantile(double q) const {
    if (n_ == 0) return 0.0;
    const auto rank = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n_))), 1, n_);
    std::uint64_t seen = 0;
    for (std::size_t v = 0; v < counts_.size(); ++v) {
      seen += counts_[v];
      if (seen >= rank) return static_cast<double>(v);
    }
    std::vector<double> tail = tail_;
    std::sort(tail.begin(), tail.end());
    return tail[rank - seen - 1];
  }

 private:
  static constexpr std::size_t kSpan = std::size_t{1} << 17;
  std::vector<std::uint32_t> counts_;
  std::vector<double> tail_;
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
};

/// Request timings of some set of passes. Latencies are split by
/// whether the request ran in a traced pass; per-stage times are taken
/// in traced passes only.
struct RequestStats {
  ExactHistogram plain, traced, parse, handle, encode;
  ExactHistogram staleness;  // epochs behind
  void merge(const RequestStats& o) {
    plain.merge(o.plain);
    traced.merge(o.traced);
    parse.merge(o.parse);
    handle.merge(o.handle);
    encode.merge(o.encode);
    staleness.merge(o.staleness);
  }
};

/// What the writer tells the running reader.
enum ReaderMode : int { kPlain = 0, kTraced = 1, kStop = 2 };

/// Requests a fresh reader thread answers (and checks) before it starts
/// timing them: its first ones pay for a cold stack and caches.
constexpr std::size_t kWarmupRequests = 256;

/// What the readers saw, over every cycle. Each reader files into
/// `current`; the writer moves that into `all` when the pass ends and no
/// reader runs, and keeps the pass's own latency percentiles and request
/// rate. The run reports the median over passes of each: a percentile
/// pooled over the run would be the tail of its slowest pass.
struct ReaderLog {
  RequestStats current;
  RequestStats all;
  std::vector<double> pass_p50_ns, pass_p99_ns;  ///< untraced requests of a pass
  std::vector<double> pass_rate;                 ///< requests per second of a pass
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
  // Distinct (tenant, epoch, hash) views of the current cycle, checked
  // against the publish ledger when the cycle ends.
  std::set<std::tuple<std::string, std::uint64_t, std::uint64_t>> views;

  /// Forget the latencies and rates seen so far (the warm-up cycle's).
  void drop_timings() {
    all = RequestStats();
    pass_p50_ns.clear();
    pass_p99_ns.clear();
    pass_rate.clear();
  }

  void close_pass(double pass_s) {
    if (current.plain.count() > 0) {
      pass_p50_ns.push_back(current.plain.quantile(0.50));
      pass_p99_ns.push_back(current.plain.quantile(0.99));
    }
    pass_rate.push_back(static_cast<double>(current.plain.count() + current.traced.count()) /
                        pass_s);
    all.merge(current);
    current = RequestStats();
  }
};

/// Closed loop: send the next line as soon as the previous answer is
/// encoded, until the writer says stop.
void reader_loop(const World& w, const std::atomic<int>& mode, ReaderLog& log) {
  serve::RecommendationService& svc = *w.service;
  // Per tenant, the hash seen for each epoch; a second hash for one
  // epoch would be a torn or mixed read.
  std::vector<std::vector<std::uint64_t>> seen(kTenants);
  for (std::size_t i = 0;; ++i) {
    const int m = mode.load(std::memory_order_acquire);
    if (m == kStop) break;
    const std::string& line = w.lines[i % kLines];
    const bool traced = m == kTraced;
    const auto t0 = now_ns();
    const serve::Request req = serve::parse_request(line);
    const auto t1 = traced ? now_ns() : 0;
    const serve::Response r = svc.handle(req);
    const auto t2 = traced ? now_ns() : 0;
    const std::string json = r.to_json();
    const auto t3 = now_ns();
    if (i >= kWarmupRequests) {
      RequestStats& stats = log.current;
      (traced ? stats.traced : stats.plain).add(t3 - t0);
      if (traced) {
        stats.parse.add(t1 - t0);
        stats.handle.add(t2 - t1);
        stats.encode.add(t3 - t2);
      }
      stats.staleness.add(static_cast<std::int64_t>(r.staleness));
    }
    ++log.attempted;
    bool ok = r.ok && r.has_view && !r.degraded && r.cache_hash != 0 && !json.empty() &&
              (req.op == "estimate" ? r.has_estimate && r.estimate.size() == kN
                                    : r.has_items && r.items.size() <= kTopK);
    if (ok) {
      auto& hashes = seen[static_cast<std::size_t>(req.tenant[1] - '0')];
      if (hashes.size() <= r.epoch) hashes.resize(r.epoch + 1, 0);
      if (hashes[r.epoch] == 0) {
        hashes[r.epoch] = r.cache_hash;
        log.views.emplace(req.tenant, r.epoch, r.cache_hash);
      }
      ok = hashes[r.epoch] == r.cache_hash;
    }
    if (!ok) {
      ++log.failed;
      if (log.first_failure.empty()) log.first_failure = line + " -> " + json;
    }
  }
}

void reader(const World& w, const std::atomic<int>& mode, ReaderLog& log) {
  try {
    reader_loop(w, mode, log);
  } catch (const std::exception& e) {
    ++log.failed;
    log.first_failure = std::string("reader threw: ") + e.what();
  }
}

/// A reader thread for one refine() call. Request latency depends on
/// which CPU the reader lands on and what shares that CPU's host core,
/// so each epoch gets a fresh thread and a run averages over many
/// placements instead of betting on one.
class ReaderThread {
 public:
  ReaderThread(const World& w, bool traced, ReaderLog& log)
      : mode_(traced ? kTraced : kPlain),
        thread_(reader, std::cref(w), std::cref(mode_), std::ref(log)) {}
  ~ReaderThread() {
    mode_.store(kStop, std::memory_order_release);
    thread_.join();
  }
  ReaderThread(const ReaderThread&) = delete;
  ReaderThread& operator=(const ReaderThread&) = delete;

 private:
  std::atomic<int> mode_;
  std::thread thread_;  // declared after mode_, which it reads
};

/// The paper's costs of a cycle's first pass (every tenant's first
/// epoch): they must repeat exactly in every cycle.
struct FirstPass {
  std::uint64_t probes = 0;
  std::uint64_t rounds = 0;  ///< max over tenants
  std::uint64_t digest = 0;  ///< all tenants' estimates, in tenant order
  std::size_t discrepancy = 0;
  std::size_t community_discrepancy = 0;
  bool operator==(const FirstPass& o) const {
    return probes == o.probes && rounds == o.rounds && digest == o.digest;
  }
};

struct Timings {
  std::vector<Timed> epochs;  ///< untraced refine() calls
  std::vector<Timed> passes;  ///< untraced passes over all tenants
  std::size_t traced_passes = 0;
  std::size_t pass_no = 0;  ///< passes run so far (alternates tracing)
};

class TracingSwitch {
 public:
  explicit TracingSwitch(bool on) { set(on); }
  ~TracingSwitch() { set(false); }
  TracingSwitch(const TracingSwitch&) = delete;
  TracingSwitch& operator=(const TracingSwitch&) = delete;

 private:
  static void set(bool on) {
    obs::Profiler::global().set_wall_sampling(on);
    obs::Profiler::global().set_enabled(on);
    obs::MetricsRegistry::global().set_enabled(on);
  }
};

/// One cycle: this thread refines every tenant kPassesPerCycle times
/// while a reader runs against `w`.
FirstPass run_cycle(const Options& opt, World& w, ReaderLog& rlog, Timings& tm,
                    Result& out) {
  serve::RecommendationService& svc = *w.service;
  std::vector<std::shared_ptr<const serve::CacheVersion>> first;
  FirstPass fp;
  for (std::size_t pass = 0; pass < kPassesPerCycle; ++pass, ++tm.pass_no) {
    const bool traced = opt.trace && tm.pass_no % 2 == 1;
    TracingSwitch tracing(traced);
    const StealWatch pass_watch;
    const auto p0 = now_ns();
    for (std::size_t t = 0; t < kTenants; ++t) {
      const ReaderThread reading(w, traced, rlog);
      const auto e0 = now_ns();
      const auto v = svc.refine(w.names[t]);
      if (!traced) tm.epochs.push_back({seconds_since(e0)});
      serve::Tenant* tenant = svc.tenant(w.names[t]);
      out.op(v->epoch == pass + 1 && !tenant->degraded() &&
                 svc.published_hash(w.names[t], v->epoch) == v->content_hash,
             "serve refine: tenant " + w.names[t] + " did not publish epoch " +
                 std::to_string(pass + 1));
      if (pass == 0) {
        fp.probes += tenant->total_probes();
        fp.rounds = std::max<std::uint64_t>(fp.rounds, tenant->rounds());
        first.push_back(v);
      }
    }
    const auto p1 = now_ns();
    const bool calm = pass_watch.calm();
    rlog.close_pass(static_cast<double>(p1 - p0) * 1e-9);
    if (traced) {
      ++tm.traced_passes;
    } else {
      tm.passes.push_back({static_cast<double>(p1 - p0) * 1e-9, calm});
    }
  }

  // Every response was checked as it came back; each distinct view it
  // carried must also be in the service's publish ledger.
  for (const auto& [tenant, epoch, hash] : rlog.views) {
    out.check(svc.published_hash(tenant, epoch) == hash,
              "serve view not in the publish ledger: " + tenant + " epoch " +
                  std::to_string(epoch));
  }
  rlog.views.clear();
  for (const auto& name : w.names) {
    out.check(svc.tenant(name)->audit().clean(), "serve: tenant " + name + " audit not clean");
  }

  // Delta over all players of every tenant after its first epoch (the
  // planted community's own Delta is reported apart).
  std::vector<matrix::PlayerId> everyone(kN);
  std::iota(everyone.begin(), everyone.end(), 0u);
  std::vector<bits::BitVector> estimates;
  for (std::size_t t = 0; t < first.size(); ++t) {
    const auto& est = first[t]->estimates;
    const auto& truth = w.truth[t];
    fp.discrepancy = std::max(fp.discrepancy, truth.matrix.discrepancy(est, everyone));
    fp.community_discrepancy = std::max(
        fp.community_discrepancy, truth.matrix.discrepancy(est, truth.communities[0]));
    estimates.insert(estimates.end(), est.begin(), est.end());
  }
  fp.digest = digest(estimates);
  return fp;
}

}  // namespace

void run_serve(const Options& opt, Result& out) {
  const auto make = [&] { return make_world(opt.seed); };
  SetupTimer setup;
  World w = setup.burst(make);
  ReaderLog rlog;
  Timings tm;
  std::optional<FirstPass> reference;
  const auto t0 = now_ns();
  // Cycle 0 warms the process up (allocator, caches, the pool's threads):
  // the first cycle of a run was often its slowest. Its operations are
  // checked like any other; only its timings are dropped. It counts
  // against the budget, and at least two timed cycles follow it.
  for (std::size_t cycle = 0;; ++cycle) {
    if (cycle >= 3 && seconds_since(t0) >= opt.seconds) break;
    if (cycle > 0) w = setup.burst(make);
    const FirstPass fp = run_cycle(opt, w, rlog, tm, out);
    if (!reference) reference = fp;
    out.op(fp == *reference, "serve: a cycle's first pass differs from the first cycle's");
    if (cycle == 0) {
      rlog.drop_timings();
      tm.epochs.clear();
      tm.passes.clear();
    }
  }
  out.ops(rlog.attempted, rlog.failed, "serve request: " + rlog.first_failure);
  out.check(rlog.attempted > 0, "serve: no request completed");

  const RequestStats& req = rlog.all;
  setup.report(out);
  out.value("solve_s", median(seconds_of(tm.passes)));
  out.value("solves", static_cast<double>(tm.passes.size()));
  out.value("disturbed", static_cast<double>(disturbed(tm.passes)));
  out.value("calm_solve_s", median(seconds_of(tm.passes, true)));
  out.text("solve_samples", join(tm.passes));
  out.value("epoch_s", median(seconds_of(tm.epochs)));
  out.value("rounds", static_cast<double>(reference->rounds));
  out.value("total_probes", static_cast<double>(reference->probes));
  out.value("discrepancy", static_cast<double>(reference->discrepancy));
  out.value("community_discrepancy", static_cast<double>(reference->community_discrepancy));
  out.text("digest", hex64(reference->digest));
  out.value("request_p50_us", median(rlog.pass_p50_ns) * 1e-3);
  out.value("request_p99_us", median(rlog.pass_p99_ns) * 1e-3);
  out.value("request_samples", static_cast<double>(req.plain.count()));
  out.value("requests_per_s", median(rlog.pass_rate));

  if (!opt.trace) return;

  SpanLog log;
  const auto per_pass = [&](double total) {
    return total / static_cast<double>(std::max<std::size_t>(tm.traced_passes, 1));
  };
  const auto tree = obs::Profiler::global().report().root;
  out.value("core.fp_zero_s", per_pass(zone_self_s(tree, "fp:zero")));
  out.value("core.fp_small_s", per_pass(zone_self_s(tree, "fp:small")));
  out.value("core.fp_large_s", per_pass(zone_self_s(tree, "fp:large")));
  out.value("core.select_s", per_pass(zone_self_s(tree, "select")));
  out.value("core.keep_better_s", per_pass(zone_self_s(tree, "keep_better")));
  out.value("bits.kernel_bytes",
            per_pass(static_cast<double>(tree.total(obs::Cost::kKernelBytes))));
  const auto snap = obs::MetricsRegistry::global().snapshot();
  const auto posts = snap.counters.find("billboard.posts");
  out.value("billboard.posts",
            per_pass(posts == snap.counters.end() ? 0.0 : static_cast<double>(posts->second)));
  out.value("serve.parse_ns", req.parse.quantile(0.5));
  out.value("serve.handle_ns", req.handle.quantile(0.5));
  out.value("serve.encode_ns", req.encode.quantile(0.5));
  out.value("serve.epochs", static_cast<double>(tm.pass_no * kTenants));
  out.value("serve.staleness_p99", req.staleness.quantile(0.99));
  out.value("obs.trace_overhead_pct",
            (req.traced.quantile(0.5) / req.plain.quantile(0.5) - 1.0) * 100.0);
  log.add("serve.request", static_cast<std::int64_t>(req.traced.sum()), req.traced.count());
  log.add("serve.parse_request", static_cast<std::int64_t>(req.parse.sum()), req.parse.count());
  log.add("serve.handle", static_cast<std::int64_t>(req.handle.sum()), req.handle.count());
  log.add("serve.Response::to_json", static_cast<std::int64_t>(req.encode.sum()),
          req.encode.count());

  bits_layer(w.truth[0].matrix, log, out);
  {
    // The tenants' hook set: an auditor attached, no recorder.
    billboard::ProbeOracle oracle(w.truth[0].matrix);
    billboard::ProtocolAuditor auditor(kN, kN);
#if TMWIA_AUDIT
    oracle.set_auditor(&auditor);
#endif
    probe_layer(oracle, opt.seed, log, out);
  }
  engine_layer(kN, log, out);
  write_trace(opt, log);
}

}  // namespace perfbench
