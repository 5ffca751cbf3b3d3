#include "tmwia/core/zero_radius_strategy.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace tmwia::core {
namespace {

template <typename T>
std::vector<T> gather(const std::vector<T>& src, const std::vector<std::uint32_t>& idx) {
  std::vector<T> out;
  out.reserve(idx.size());
  for (std::uint32_t i : idx) out.push_back(src[i]);
  return out;
}

// acc := the ascending merge of acc and add (both ascending).
void merge_into(std::vector<std::uint32_t>& acc, const std::vector<std::uint32_t>& add) {
  const auto mid = static_cast<std::ptrdiff_t>(acc.size());
  acc.insert(acc.end(), add.begin(), add.end());
  std::inplace_merge(acc.begin(), acc.begin() + mid, acc.end());
}

}  // namespace

ZeroRadiusStrategy::ZeroRadiusStrategy(PlayerId self, const std::vector<PlayerId>& players,
                                       const std::vector<std::uint32_t>& objects, double alpha,
                                       const Params& params, const rng::Rng& shared_rng,
                                       std::string channel_prefix)
    : self_(self), alpha_(alpha) {
  const std::size_t n_total = players.size();
  const std::size_t threshold = zero_radius_leaf_threshold(n_total, alpha, params);
  if (std::find(players.begin(), players.end(), self_) == players.end()) {
    throw std::invalid_argument("ZeroRadiusStrategy: self not among players");
  }
  if (!std::is_sorted(objects.begin(), objects.end())) {
    throw std::invalid_argument("ZeroRadiusStrategy: objects not ascending");
  }
  const auto channel = [&channel_prefix](std::uint64_t tag) {
    return channel_prefix + "/" + std::to_string(tag);
  };

  // Pre-size the global estimate: object ids address the oracle's
  // space, so size it to the max id + 1.
  values_ = bits::BitVector(objects.empty() ? 1 : objects.back() + 1);

  // Walk down the shared recursion tree, keeping the half containing
  // self at every node (Fig. 2: "Let P' be the half that contains p").
  // The node's lists are the caller's at the root, then own_players /
  // own_objects.
  const std::vector<PlayerId>* node_players = &players;
  const std::vector<std::uint32_t>* node_objects = &objects;
  std::vector<PlayerId> own_players;
  std::vector<std::uint32_t> own_objects;
  std::uint64_t tag = 1;
  while (std::min(node_players->size(), node_objects->size()) >= threshold &&
         !node_players->empty() && !node_objects->empty()) {
    const auto split =
        zero_radius_node_split(node_players->size(), node_objects->size(), shared_rng, tag);

    const auto self_pos = static_cast<std::uint32_t>(
        std::find(node_players->begin(), node_players->end(), self_) - node_players->begin());
    if (self_pos >= node_players->size()) {
      throw std::invalid_argument("ZeroRadiusStrategy: self not among players");
    }
    const bool in_first = std::binary_search(split.p1.begin(), split.p1.end(), self_pos);

    Frame f;
    const auto& own_p = in_first ? split.p1 : split.p2;
    const auto& sib_p = in_first ? split.p2 : split.p1;
    const auto& own_o = in_first ? split.o1 : split.o2;
    const auto& sib_o = in_first ? split.o2 : split.o1;
    f.sibling_objects = gather(*node_objects, sib_o);
    f.sibling_channel = channel(tag * 2 + (in_first ? 2 : 1));
    f.node_channel = channel(tag);
    f.sibling_player_count = sib_p.size();
    f.min_votes = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(params.zr_vote_frac * alpha_ *
                                              static_cast<double>(sib_p.size()))));
    frames_.push_back(std::move(f));

    own_players = gather(*node_players, own_p);
    own_objects = gather(*node_objects, own_o);
    node_players = &own_players;
    node_objects = &own_objects;
    tag = tag * 2 + (in_first ? 1 : 2);
  }
  objects_ = frames_.empty() ? objects : std::move(own_objects);
  leaf_channel_ = channel(tag);

  // Process deepest node first on the way back up.
  std::reverse(frames_.begin(), frames_.end());
  state_ = State::kLeafProbe;
}

std::optional<billboard::ObjectId> ZeroRadiusStrategy::next_probe(
    const billboard::RoundView& view) {
  switch (state_) {
    case State::kLeafProbe:
      if (leaf_pos_ < objects_.size()) {
        return objects_[leaf_pos_];
      }
      // Leaf complete (empty-leaf corner case): fall through to posting.
      have_pending_post_ = true;
      state_ = frames_.empty() ? State::kDone : State::kAwait;
      return std::nullopt;

    case State::kAwait: {
      const Frame& f = frames_[level_];
      const std::string& ch = f.sibling_channel;
      if (view.board().posters(ch) < f.sibling_player_count) {
        return std::nullopt;  // sibling half still working
      }
      // All sibling posts in: tally and set up Select with bound 0.
      const auto voted = view.board().popular(ch, static_cast<std::uint32_t>(f.min_votes));
      candidates_.clear();
      for (const auto& vv : voted) candidates_.push_back(vv.vec);
      alive_.assign(candidates_.size(), true);
      mismatches_.assign(candidates_.size(), 0);
      select_cursor_ = 0;
      state_ = State::kSelect;
      [[fallthrough]];
    }

    case State::kSelect: {
      const Frame& f = frames_[level_];
      std::size_t alive_count = 0;
      for (bool a : alive_) alive_count += a ? 1 : 0;

      if (candidates_.size() > 1 && alive_count > 1) {
        // Next coordinate where two alive candidates disagree.
        for (; select_cursor_ < f.sibling_objects.size(); ++select_cursor_) {
          bool saw0 = false, saw1 = false;
          for (std::size_t i = 0; i < candidates_.size(); ++i) {
            if (!alive_[i]) continue;
            (candidates_[i].get(select_cursor_) ? saw1 : saw0) = true;
          }
          if (saw0 && saw1) {
            probing_candidate_coord_ = select_cursor_;
            return f.sibling_objects[select_cursor_];
          }
        }
      }

      // Selection finished for this level: adopt the winner.
      if (!candidates_.empty()) {
        std::size_t best = 0;
        for (std::size_t i = 1; i < candidates_.size(); ++i) {
          const bool better_liveness = alive_[i] && !alive_[best];
          const bool same_liveness = alive_[i] == alive_[best];
          if (better_liveness ||
              (same_liveness &&
               (mismatches_[i] < mismatches_[best] ||
                (mismatches_[i] == mismatches_[best] &&
                 candidates_[i].lex_compare(candidates_[best]) < 0)))) {
            best = i;
          }
        }
        values_.scatter(candidates_[best], f.sibling_objects);
      }

      // The node is complete: its object list is the merge of its
      // children's. Publish its vector for the parent level's sibling
      // players (the root's vector needs no audience).
      merge_into(objects_, f.sibling_objects);
      have_pending_post_ = level_ + 1 < frames_.size();
      ++level_;
      state_ = level_ < frames_.size() ? State::kAwait : State::kDone;
      return std::nullopt;
    }

    case State::kPostChild:
    case State::kDone:
      return std::nullopt;
  }
  return std::nullopt;
}

void ZeroRadiusStrategy::on_result(billboard::ObjectId o, bool value) {
  if (state_ == State::kLeafProbe) {
    values_.set(o, value);
    ++leaf_pos_;
    if (leaf_pos_ == objects_.size()) {
      have_pending_post_ = true;
      state_ = frames_.empty() ? State::kDone : State::kAwait;
    }
    return;
  }
  if (state_ == State::kSelect && probing_candidate_coord_.has_value()) {
    const std::size_t j = *probing_candidate_coord_;
    probing_candidate_coord_.reset();
    for (std::size_t i = 0; i < candidates_.size(); ++i) {
      if (alive_[i] && candidates_[i].get(j) != value) {
        ++mismatches_[i];
        alive_[i] = false;
      }
    }
    ++select_cursor_;  // this coordinate is settled
    return;
  }
  throw std::logic_error("ZeroRadiusStrategy::on_result: unexpected result");
}

std::vector<billboard::PendingPost> ZeroRadiusStrategy::posts() {
  if (!have_pending_post_) return {};
  have_pending_post_ = false;
  // The vector of the highest completed node: the leaf, or the frame
  // just completed.
  const std::string& ch = level_ == 0 ? leaf_channel_ : frames_[level_ - 1].node_channel;
  return {billboard::PendingPost{ch, values_.project(objects_)}};
}

bits::BitVector ZeroRadiusStrategy::output() const {
  if (level_ == frames_.size()) return values_.project(objects_);
  // Not done: the levels still open add their sibling lists.
  auto root = objects_;
  for (std::size_t k = level_; k < frames_.size(); ++k) {
    merge_into(root, frames_[k].sibling_objects);
  }
  return values_.project(root);
}

DistributedZeroRadiusResult zero_radius_distributed(billboard::ProbeOracle& oracle,
                                                    double alpha, const Params& params,
                                                    const rng::Rng& shared_rng,
                                                    std::size_t max_rounds) {
  const std::size_t n = oracle.players();
  const std::size_t m = oracle.objects();
  if (max_rounds == 0) max_rounds = 8 * (n + m) + 64;

  std::vector<PlayerId> players(n);
  std::iota(players.begin(), players.end(), 0u);
  std::vector<std::uint32_t> objects(m);
  std::iota(objects.begin(), objects.end(), 0u);

  std::vector<std::unique_ptr<billboard::PlayerStrategy>> strategies;
  std::vector<ZeroRadiusStrategy*> raw;
  strategies.reserve(n);
  for (PlayerId p = 0; p < n; ++p) {
    auto s = std::make_unique<ZeroRadiusStrategy>(p, players, objects, alpha, params,
                                                  shared_rng);
    raw.push_back(s.get());
    strategies.push_back(std::move(s));
  }

  billboard::RoundScheduler sched(oracle);
  DistributedZeroRadiusResult res;
  res.schedule = sched.run(strategies, max_rounds);
  res.outputs.reserve(n);
  for (auto* s : raw) res.outputs.push_back(s->output());
  return res;
}

}  // namespace tmwia::core
