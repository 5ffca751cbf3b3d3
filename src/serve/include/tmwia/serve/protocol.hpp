// serve request/response wire protocol: one flat JSON object per line.
//
// Requests are parsed with io::FlatJson (one pass over the line, no
// per-field allocation) and validated against a declarative per-op
// field table (the FlagTable discipline applied to JSONL): a field the
// op does not declare is a parse error naming the lexicographically
// smallest such key, so the accepted grammar cannot drift from what the
// handlers read and the error does not depend on field order. Values
// the tower cannot use fail here too, as typed errors naming the field,
// before any tenant is built. Responses render to one JSON line with a
// fixed key order, appended into one reserved string, so the stream is
// both jq-able and byte-diffable across runs.
//
// Ops:
//   add_tenant  tenant, [in | kind,n,m,radius], alpha, seed, algo,
//               faults, record, toplist_cap, sabotage
//   refine      tenant, epochs
//   recommend   tenant, player, k
//   estimate    tenant, player
//   stats       tenant
//   snapshot    tenant, path
//   restore     tenant, path
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tmwia::serve {

/// One parsed request line. Fields beyond the op's table keep their
/// defaults; parse_request rejects lines that set undeclared fields.
struct Request {
  std::string op;
  std::string tenant;
  std::uint32_t player = 0;
  std::size_t k = 8;             ///< recommend: max items returned
  std::uint64_t epochs = 1;      ///< refine: epochs to run
  std::string path;              ///< snapshot/restore: checkpoint file
  std::string in;                ///< add_tenant: instance file (overrides kind)
  std::string kind = "planted";  ///< add_tenant: generator (planted|uniform)
  std::size_t n = 0;  ///< add_tenant: players, at most 2^32 - 1
  std::size_t m = 0;  ///< add_tenant: objects, at most 2^32 - 1
  std::size_t radius = 0;
  double alpha = 0.5;  ///< add_tenant: in (0, 1]
  std::uint64_t seed = 1;
  std::string algo = "unknown_d";
  std::string faults;
  std::string record;
  std::size_t toplist_cap = 16;
  bool sabotage = false;  ///< test hook: tenant degrades every epoch
};

/// Parse one request line. Throws std::invalid_argument on malformed
/// JSON, an unknown op, an undeclared field, a missing required one, or
/// a value out of range: player, n or m past the 32-bit id range, or
/// alpha outside (0, 1].
Request parse_request(std::string_view line);

/// One response line. `has_*` flags gate the optional blocks so every
/// op renders exactly the fields it answers with.
struct Response {
  std::string op;
  std::string tenant;
  bool ok = true;
  std::string error;  ///< rendered only when !ok

  /// Versioned-view block (recommend/estimate/refine/add_tenant/
  /// restore): which cache version answered, and how stale it is.
  bool has_view = false;
  std::uint64_t epoch = 0;
  std::uint64_t cache_hash = 0;  ///< rendered as "0x%016x" string
  bool degraded = false;
  std::uint64_t staleness = 0;  ///< refinement epochs behind (epochs-behind)

  bool has_items = false;
  std::vector<std::uint32_t> items;  ///< recommend: ranked object ids

  bool has_estimate = false;
  std::string estimate;  ///< estimate: w(p) as a 0/1 string

  std::string path;  ///< snapshot/restore: echoed checkpoint file

  /// stats: ordered (key, value) pairs rendered verbatim.
  std::vector<std::pair<std::string, std::uint64_t>> stats;

  std::uint64_t latency_us = 0;

  /// One JSON line, fixed key order, no trailing newline.
  [[nodiscard]] std::string to_json() const;
};

/// "0x" + 16 lowercase hex digits — cache hashes exceed JSON's exact
/// integer range, so they travel as strings.
std::string hash_to_hex(std::uint64_t h);

}  // namespace tmwia::serve
