#include "tmwia/rng/partition.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace tmwia::rng {

Partition random_partition(const std::vector<std::uint32_t>& ids, std::size_t s, Rng& rng) {
  if (s == 0) throw std::invalid_argument("random_partition: s must be >= 1");
  Partition p;
  p.parts.resize(s);
  for (std::uint32_t id : ids) {
    p.parts[rng.uniform(s)].push_back(id);
  }
  return p;
}

Partition random_partition(std::size_t n, std::size_t s, Rng& rng) {
  std::vector<std::uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  return random_partition(ids, s, rng);
}

namespace {

// Zero Radius step 2 in O(n): the Fisher–Yates draws of shuffle() on an
// n-element list decide which positions land in the first half (that
// depends only on the draws, not on the values shuffled); one ascending
// pass then emits both halves, each in input order.
template <typename IdAt>
std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>> half_split(std::size_t n,
                                                                           Rng& rng,
                                                                           IdAt id_at) {
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  shuffle(perm, rng);
  std::vector<std::uint8_t> in_first(n, 0);
  for (std::size_t k = 0; k < n / 2; ++k) in_first[perm[k]] = 1;
  std::vector<std::uint32_t> a, b;
  a.reserve(n / 2);
  b.reserve(n - n / 2);
  for (std::size_t i = 0; i < n; ++i) (in_first[i] != 0 ? a : b).push_back(id_at(i));
  return {std::move(a), std::move(b)};
}

}  // namespace

std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>> random_half_split(
    const std::vector<std::uint32_t>& ids, Rng& rng) {
  return half_split(ids.size(), rng, [&ids](std::size_t i) { return ids[i]; });
}

std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>> random_half_split(
    std::size_t n, Rng& rng) {
  return half_split(n, rng, [](std::size_t i) { return static_cast<std::uint32_t>(i); });
}

Partition assign_to_parts(const std::vector<std::uint32_t>& ids, std::size_t s,
                          std::size_t copies, Rng& rng) {
  if (s == 0) throw std::invalid_argument("assign_to_parts: s must be >= 1");
  if (copies > s) copies = s;
  Partition p;
  p.parts.resize(s);
  std::vector<std::uint32_t> chosen;
  for (std::uint32_t id : ids) {
    chosen.clear();
    // copies << s in all our uses, so rejection sampling is cheap.
    while (chosen.size() < copies) {
      const auto part = static_cast<std::uint32_t>(rng.uniform(s));
      if (std::find(chosen.begin(), chosen.end(), part) == chosen.end()) {
        chosen.push_back(part);
      }
    }
    for (std::uint32_t part : chosen) p.parts[part].push_back(id);
  }
  return p;
}

std::vector<std::uint32_t> sample_without_replacement(std::size_t n, std::size_t k, Rng& rng) {
  if (k > n) throw std::invalid_argument("sample_without_replacement: k > n");
  // Floyd's algorithm: k uniform draws. Membership is checked against a
  // packed bitmap rather than a linear scan of the output — the draw
  // sequence (and therefore the sample) is unchanged, but the loop is
  // O(k) instead of O(k^2); RSelect calls this once per candidate pair.
  std::vector<std::uint32_t> out;
  out.reserve(k);
  // Generation-stamped membership: stamp[t] == gen means "t already
  // chosen this call", so successive calls share the scratch without
  // clearing it.
  static thread_local std::vector<std::uint32_t> stamp;
  static thread_local std::uint32_t gen = 0;
  if (stamp.size() < n) stamp.resize(n, 0);
  if (++gen == 0) {
    std::fill(stamp.begin(), stamp.end(), 0);
    gen = 1;
  }
  for (std::size_t j = n - k; j < n; ++j) {
    auto t = static_cast<std::uint32_t>(rng.uniform(j + 1));
    if (stamp[t] == gen) t = static_cast<std::uint32_t>(j);
    stamp[t] = gen;
    out.push_back(t);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace tmwia::rng
