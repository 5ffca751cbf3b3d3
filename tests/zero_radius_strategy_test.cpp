// tmwia-lint: allow-file(sink-registration) the pinned flight-log test records a distributed run into its own sink.
// Tests for the distributed per-player Zero Radius (state machines
// under the lockstep RoundScheduler), including the
// simulation-faithfulness theorem of this codebase: from the same
// shared coins, the distributed execution and the centralized engine
// produce BIT-IDENTICAL outputs and identical per-player probe counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>

#include "tmwia/core/bit_space.hpp"
#include "tmwia/core/zero_radius_strategy.hpp"
#include "tmwia/matrix/generators.hpp"
#include "tmwia/obs/flight_recorder.hpp"

namespace tmwia::core {
namespace {

struct EqCase {
  std::size_t n;
  double alpha;
  std::uint64_t seed;
};

class DistributedEquivalence : public ::testing::TestWithParam<EqCase> {};

TEST_P(DistributedEquivalence, MatchesCentralizedBitForBit) {
  const auto [n, alpha, seed] = GetParam();
  rng::Rng gen(seed);
  auto inst = matrix::planted_community(n, n, {alpha, 0}, gen);

  const rng::Rng shared_coins(seed ^ 0xD15C0);

  // Centralized engine.
  billboard::ProbeOracle central_oracle(inst.matrix);
  std::vector<PlayerId> players(n);
  std::iota(players.begin(), players.end(), 0u);
  std::vector<std::uint32_t> objects(n);
  std::iota(objects.begin(), objects.end(), 0u);
  const auto central = zero_radius_bits(central_oracle, nullptr, players, objects, alpha,
                                        Params::practical(), shared_coins);

  // Distributed execution.
  billboard::ProbeOracle dist_oracle(inst.matrix);
  const auto dist =
      zero_radius_distributed(dist_oracle, alpha, Params::practical(), shared_coins);

  ASSERT_TRUE(dist.schedule.all_done);
  ASSERT_EQ(dist.outputs.size(), central.size());
  for (PlayerId p = 0; p < n; ++p) {
    EXPECT_EQ(dist.outputs[p], central[p]) << "output mismatch, player " << p;
    EXPECT_EQ(dist_oracle.invocations(p), central_oracle.invocations(p))
        << "probe count mismatch, player " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DistributedEquivalence,
                         ::testing::Values(EqCase{64, 1.0, 1}, EqCase{128, 0.5, 2},
                                           EqCase{256, 0.5, 3}, EqCase{256, 0.25, 4},
                                           EqCase{100, 0.5, 5}  // non-power-of-two
                                           ));

TEST(DistributedZeroRadius, CommunityReconstructionCorrect) {
  const std::size_t n = 256;
  rng::Rng gen(11);
  auto inst = matrix::planted_community(n, n, {0.5, 0}, gen);
  billboard::ProbeOracle oracle(inst.matrix);
  const auto res =
      zero_radius_distributed(oracle, 0.5, Params::practical(), rng::Rng(12));
  ASSERT_TRUE(res.schedule.all_done);
  for (auto p : inst.communities[0]) {
    EXPECT_EQ(res.outputs[p], inst.centers[0]);
  }
}

TEST(DistributedZeroRadius, OneProbePerRoundInvariant) {
  // The scheduler enforces it structurally; verify via accounting:
  // probes per player <= rounds executed.
  const std::size_t n = 128;
  rng::Rng gen(13);
  auto inst = matrix::planted_community(n, n, {1.0, 0}, gen);
  billboard::ProbeOracle oracle(inst.matrix);
  const auto res =
      zero_radius_distributed(oracle, 1.0, Params::practical(), rng::Rng(14));
  for (PlayerId p = 0; p < n; ++p) {
    EXPECT_LE(oracle.invocations(p), res.schedule.rounds);
  }
}

TEST(DistributedZeroRadius, WallClockRoundsStayLogarithmicish) {
  // Including the await-idling, the lockstep schedule should still be
  // far below the m rounds of solo probing (the halves work in
  // parallel; awaits cost what the slowest sibling costs).
  const std::size_t n = 1024;
  rng::Rng gen(15);
  auto inst = matrix::planted_community(n, n, {0.5, 0}, gen);
  billboard::ProbeOracle oracle(inst.matrix);
  const auto res =
      zero_radius_distributed(oracle, 0.5, Params::practical(), rng::Rng(16));
  ASSERT_TRUE(res.schedule.all_done);
  EXPECT_LT(res.schedule.rounds, n / 4);
}

TEST(DistributedZeroRadius, StrategyRejectsUnknownSelf) {
  std::vector<PlayerId> players{0, 1, 2};
  std::vector<std::uint32_t> objects{0, 1, 2};
  EXPECT_THROW(ZeroRadiusStrategy(7, players, objects, 1.0, Params::practical(),
                                  rng::Rng(1)),
               std::invalid_argument);
}

TEST(DistributedZeroRadius, TinyInstanceIsAllLeaf) {
  // Below the leaf threshold there is no recursion: every player just
  // probes everything and the schedule ends after m rounds.
  const std::size_t n = 8;
  rng::Rng gen(17);
  auto inst = matrix::uniform_random(n, n, gen);
  billboard::ProbeOracle oracle(inst.matrix);
  const auto res = zero_radius_distributed(oracle, 1.0, Params::practical(), rng::Rng(18));
  ASSERT_TRUE(res.schedule.all_done);
  EXPECT_EQ(res.schedule.rounds, n);  // exactly the m leaf probes
  for (PlayerId p = 0; p < n; ++p) {
    EXPECT_EQ(res.outputs[p], inst.matrix.row(p));
  }
}

TEST(DistributedZeroRadius, StrategyRejectsUnsortedObjects) {
  std::vector<PlayerId> players{0, 1, 2};
  std::vector<std::uint32_t> objects{0, 2, 1};
  EXPECT_THROW(ZeroRadiusStrategy(0, players, objects, 1.0, Params::practical(),
                                  rng::Rng(1)),
               std::invalid_argument);
}

TEST(DistributedZeroRadius, OutputCoversEveryObjectBeforeDone) {
  // Before any round the estimate is still empty, but it already spans
  // the root object list: the open levels' sibling lists fill it out.
  const std::size_t n = 256;
  std::vector<PlayerId> players(n);
  std::iota(players.begin(), players.end(), 0u);
  std::vector<std::uint32_t> objects(n);
  std::iota(objects.begin(), objects.end(), 0u);
  const ZeroRadiusStrategy s(5, players, objects, 0.5, Params::practical(), rng::Rng(2));
  ASSERT_FALSE(s.done());
  EXPECT_EQ(s.output(), bits::BitVector(n));
}

TEST(ForgingStrategy, RejectsEmptyForgedVector) {
  std::vector<PlayerId> players{0, 1, 2};
  std::vector<std::uint32_t> objects{0, 1, 2};
  ZeroRadiusStrategy inner(0, players, objects, 1.0, Params::practical(), rng::Rng(1));
  EXPECT_THROW(ForgingZeroRadiusStrategy(std::move(inner), bits::BitVector()),
               std::invalid_argument);
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The flight log of a recorded distributed run is pinned byte for
/// byte: size and FNV-1a hash of the JSONL stream. Any change to the
/// recursion tree, the channel names, the post order or the recorder's
/// drain points shows up here. The values come from a build whose
/// half split sorted and whose recorder walked every stage at every
/// serial event, so a match shows the cheaper code writes the same
/// bytes.
constexpr std::size_t kPinnedLogBytes = 900087;
constexpr std::uint64_t kPinnedLogHash = 0x04188441f0fd9bb9ULL;

TEST(DistributedZeroRadius, RecordedFlightLogIsPinned) {
  const std::size_t n = 256;
  rng::Rng gen(21);
  auto inst = matrix::planted_community(n, n, {0.5, 0}, gen);
  billboard::ProbeOracle oracle(inst.matrix);
  std::ostringstream out;
  obs::FlightRecorder rec(out);
  obs::set_recorder(&rec);
  const auto res = zero_radius_distributed(oracle, 0.5, Params::practical(), rng::Rng(22));
  obs::set_recorder(nullptr);
  rec.flush();
  ASSERT_TRUE(res.schedule.all_done);
  const std::string log = out.str();
  EXPECT_EQ(log.size(), kPinnedLogBytes);
  EXPECT_EQ(fnv1a(log), kPinnedLogHash);
}

}  // namespace
}  // namespace tmwia::core
