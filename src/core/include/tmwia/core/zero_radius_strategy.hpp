// ZeroRadiusStrategy: Algorithm Zero Radius (Fig. 2) as a *genuinely
// distributed* per-player state machine under the synchronous
// RoundScheduler — each player independently derives the shared
// recursion tree from the common coins, probes its own leaf, publishes
// its vectors on the billboard, awaits its sibling half's posts, and
// adopts by vote + Select with bound 0, exactly as the paper describes
// a player executing the algorithm.
//
// The centralized engine in zero_radius.hpp is the fast simulation; it
// shares the tree derivation (zero_radius_node_split) and the vote
// semantics with this class, and the test suite checks the two produce
// BIT-IDENTICAL outputs and probe counts from the same seed — the
// simulation-faithfulness argument for every experiment built on the
// centralized path.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "tmwia/billboard/round_scheduler.hpp"
#include "tmwia/core/params.hpp"
#include "tmwia/core/zero_radius.hpp"
#include "tmwia/rng/rng.hpp"

namespace tmwia::core {

class ZeroRadiusStrategy final : public billboard::PlayerStrategy {
 public:
  /// `self` must appear in `players`; `objects` must be ascending, so
  /// that every node's object list is the merge of its two children's.
  /// `shared_rng` is the common-coins stream (same value for every
  /// player and for the centralized run being compared against).
  /// `channel_prefix` namespaces the billboard channels of this
  /// execution.
  ZeroRadiusStrategy(PlayerId self, const std::vector<PlayerId>& players,
                     const std::vector<std::uint32_t>& objects, double alpha,
                     const Params& params, const rng::Rng& shared_rng,
                     std::string channel_prefix = "dzr");

  std::optional<billboard::ObjectId> next_probe(const billboard::RoundView& view) override;
  void on_result(billboard::ObjectId o, bool value) override;
  std::vector<billboard::PendingPost> posts() override;
  [[nodiscard]] bool done() const override { return state_ == State::kDone; }

  /// The player's output for the full object list (valid once done()).
  [[nodiscard]] bits::BitVector output() const;

 private:
  /// One recursion node on the player's root-to-leaf path. Its own
  /// object list is not stored: it is the merge of its two children's.
  struct Frame {
    std::vector<std::uint32_t> sibling_objects;  ///< sibling child's global ids
    std::string sibling_channel;  ///< where the sibling half posts
    std::string node_channel;     ///< where this node's vector is posted
    std::size_t sibling_player_count = 0;
    std::size_t min_votes = 1;
  };

  enum class State : std::uint8_t { kLeafProbe, kPostChild, kAwait, kSelect, kDone };

  PlayerId self_;
  double alpha_;

  // Root-to-leaf path, processed deepest node first: frames_[0] is the
  // leaf's parent, frames_.back() the root.
  std::vector<Frame> frames_;
  std::string leaf_channel_;

  // Object list of the highest completed node: the leaf's list at
  // first, merged with each completed level's sibling list on the way
  // up, so it is the root list once done.
  std::vector<std::uint32_t> objects_;
  // Accumulated estimate over the global object space.
  bits::BitVector values_;

  State state_ = State::kLeafProbe;
  std::size_t leaf_pos_ = 0;
  std::size_t level_ = 0;  // completed levels, counting from the leaf upward
  bool have_pending_post_ = false;

  // Select-with-bound-0 working state for the current level.
  std::vector<bits::BitVector> candidates_;  // over sibling_objects order
  std::vector<bool> alive_;
  std::vector<std::size_t> mismatches_;
  std::size_t select_cursor_ = 0;
  std::optional<std::size_t> probing_candidate_coord_;
};

/// A Byzantine wrapper for the distributed execution: runs the inner
/// ZeroRadiusStrategy honestly (probes, awaits, adopts) but swaps every
/// billboard post for the projection of a forged vector — the
/// coordinated fake-candidate attack of bench e14, now at the protocol
/// level. Honest peers defend themselves with Select's probing.
class ForgingZeroRadiusStrategy final : public billboard::PlayerStrategy {
 public:
  /// Throws std::invalid_argument for an empty `forged` vector: there
  /// would be no bit to forge with.
  ForgingZeroRadiusStrategy(ZeroRadiusStrategy inner, bits::BitVector forged)
      : inner_(std::move(inner)), forged_(std::move(forged)) {
    if (forged_.empty()) {
      throw std::invalid_argument("ForgingZeroRadiusStrategy: forged vector is empty");
    }
  }

  std::optional<billboard::ObjectId> next_probe(const billboard::RoundView& view) override {
    return inner_.next_probe(view);
  }
  void on_result(billboard::ObjectId o, bool value) override { inner_.on_result(o, value); }
  std::vector<billboard::PendingPost> posts() override {
    auto out = inner_.posts();
    for (auto& post : out) {
      // Same channel, same length, forged content: the lie must still
      // look like a vector over the node's object set to count as a
      // vote there.
      bits::BitVector lie(post.vec.size());
      for (std::size_t j = 0; j < post.vec.size(); ++j) {
        // Forge per position using the forged vector cyclically; the
        // coalition posts identical vectors, which is all that matters
        // for crossing the popularity threshold.
        lie.set(j, forged_.get(j % forged_.size()));
      }
      post.vec = std::move(lie);
    }
    return out;
  }
  [[nodiscard]] bool done() const override { return inner_.done(); }

  [[nodiscard]] bits::BitVector output() const { return inner_.output(); }

 private:
  ZeroRadiusStrategy inner_;
  bits::BitVector forged_;
};

/// Convenience driver: run the distributed Zero Radius for all players
/// of the oracle under a RoundScheduler; returns per-player outputs and
/// the schedule stats.
struct DistributedZeroRadiusResult {
  std::vector<bits::BitVector> outputs;
  billboard::ScheduleResult schedule;
};

DistributedZeroRadiusResult zero_radius_distributed(billboard::ProbeOracle& oracle,
                                                    double alpha, const Params& params,
                                                    const rng::Rng& shared_rng,
                                                    std::size_t max_rounds = 0);

}  // namespace tmwia::core
