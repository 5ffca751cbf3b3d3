#include "layers.hpp"

#include <fstream>
#include <span>
#include <stdexcept>
#include <vector>

#include "tmwia/bits/kernels.hpp"
#include "tmwia/engine/thread_pool.hpp"
#include "tmwia/obs/flight_recorder.hpp"
#include "tmwia/rng/rng.hpp"

namespace perfbench {
namespace {

using namespace tmwia;

constexpr double kLayerBudgetS = 0.25;  // per timed call kind

/// Time `batch` (which performs `per_batch` operations) repeatedly for
/// the layer budget; median ns per operation over the batches.
template <typename Batch>
double ns_per_op(std::size_t per_batch, Batch batch) {
  std::vector<double> ns;
  repeat_for(kLayerBudgetS, 5, [&] {
    const auto t0 = now_ns();
    batch();
    ns.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(per_batch));
  });
  return median(ns);
}

}  // namespace

double zone_self_s(const obs::ProfileNode& node, const std::string& name) {
  double s = node.name == name ? static_cast<double>(node.cost(obs::Cost::kWallUs)) * 1e-6 : 0;
  for (const auto& c : node.children) s += zone_self_s(c, name);
  return s;
}

void bits_layer(const matrix::PreferenceMatrix& m, SpanLog& log, Result& out) {
  ScopedSpan span(&log, "bits.dist_many");
  const auto rows = m.rows();
  std::vector<std::uint32_t> dist(rows.size());
  std::size_t target = 0;
  std::uint64_t sink = 0;
  constexpr std::size_t kCalls = 8;
  const double ns = ns_per_op(kCalls, [&] {
    for (std::size_t c = 0; c < kCalls; ++c) {
      bits::kernels::dist_many(rows[target], rows, dist);
      sink += dist[target ^ 1];
      target = (target + 1) % rows.size();
    }
  });
  const double bytes = static_cast<double>(rows.size() * rows[0].words().size() * 8);
  out.value("bits.dist_many_gbps", bytes / ns);
  out.check(sink != ~std::uint64_t{0}, "dist_many sink");
}

void probe_layer(billboard::ProbeOracle& oracle, std::uint64_t seed, SpanLog& log,
                 Result& out) {
  ScopedSpan span(&log, "billboard.probe");
  const auto n = static_cast<std::uint32_t>(oracle.players());
  const auto m = static_cast<std::uint32_t>(oracle.objects());
  rng::Rng gen = rng::Rng(seed).split(0x9e0be);
  constexpr std::size_t kBatch = 4096;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs(kBatch);
  for (auto& [p, o] : pairs) {
    p = static_cast<std::uint32_t>(gen.uniform(n));
    o = static_cast<std::uint32_t>(gen.uniform(m));
  }
  // A serial recorder emission drains the per-player staging buffers,
  // as the scheduler's round boundaries do.
  auto* rec = obs::recorder();
  std::uint64_t ones = 0;
  const double probe_ns = ns_per_op(kBatch, [&] {
    for (const auto& [p, o] : pairs) ones += oracle.probe(p, o) ? 1 : 0;
    if (rec != nullptr) rec->note("perfbench.probe", 0, 0);
  });

  constexpr std::size_t kBlock = 64;
  constexpr std::size_t kBlocks = 64;
  std::vector<std::uint32_t> objs(kBlock);
  for (auto& o : objs) o = static_cast<std::uint32_t>(gen.uniform(m));
  bits::BitVector block(kBlock);
  std::uint32_t player = 0;
  const double block_ns = ns_per_op(kBlock * kBlocks, [&] {
    for (std::size_t b = 0; b < kBlocks; ++b) {
      oracle.probe_block(player, objs, block);
      ones += block.count_ones();
      player = (player + 1) % n;
    }
    if (rec != nullptr) rec->note("perfbench.probe_block", 0, 0);
  });
  out.value("billboard.probe_ns", probe_ns);
  out.value("billboard.probe_block_ns", block_ns);
  out.check(ones > 0, "probe layer read no 1s");
}

void billboard_layer(const std::vector<billboard::Billboard::ChannelDump>& channels,
                     SpanLog& log, Result& out) {
  ScopedSpan span(&log, "billboard.board");
  std::vector<double> post_ns, posters_ns, popular_ns;
  std::size_t reads = 0;
  repeat_for(kLayerBudgetS * 2, 3, [&] {
    billboard::Billboard fresh;
    for (const auto& ch : channels) {
      auto t0 = now_ns();
      for (const auto& [p, v] : ch.posts) fresh.post(ch.channel, p, v);
      post_ns.push_back(static_cast<double>(now_ns() - t0) /
                        static_cast<double>(std::max<std::size_t>(ch.posts.size(), 1)));
      t0 = now_ns();
      reads += fresh.posters(ch.channel);
      posters_ns.push_back(static_cast<double>(now_ns() - t0));
      const auto min_votes = static_cast<std::uint32_t>(std::max<std::size_t>(
          1, ch.posts.size() / 4));
      t0 = now_ns();
      reads += fresh.popular(ch.channel, min_votes).size();
      popular_ns.push_back(static_cast<double>(now_ns() - t0));
    }
  });
  out.value("billboard.post_ns", median(post_ns));
  out.value("billboard.posters_ns", median(posters_ns));
  out.value("billboard.popular_ns", median(popular_ns));
  out.check(reads > 0, "billboard layer read nothing back");
}

void engine_layer(std::size_t trips, SpanLog& log, Result& out) {
  ScopedSpan span(&log, "engine.parallel_for");
  constexpr std::size_t kCalls = 16;
  const double ns = ns_per_op(kCalls, [&] {
    for (std::size_t c = 0; c < kCalls; ++c) engine::parallel_for(0, trips, [](std::size_t) {});
  });
  out.value("engine.fork_join_us", ns * 1e-3);
}

void write_trace(const Options& opt, const SpanLog& log) {
  if (opt.trace_out.empty()) return;
  std::ofstream f(opt.trace_out);
  f << log.to_json() << "\n";
  if (!f) throw std::runtime_error("cannot write trace file " + opt.trace_out);
}

}  // namespace perfbench
