#include "tmwia/serve/protocol.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>

#include "tmwia/io/flat_json.hpp"

namespace tmwia::serve {
namespace {

/// Declarative per-op field tables (the FlagTable discipline): the op
/// accepts exactly these fields, "op" included.
struct OpSpec {
  std::string_view op;
  std::span<const std::string_view> fields;
};

constexpr std::string_view kAddTenantFields[] = {
    "op",   "tenant", "in",    "kind",   "n",      "m",          "radius",  "alpha",
    "seed", "algo",   "faults", "record", "toplist_cap", "sabotage"};
constexpr std::string_view kRefineFields[] = {"op", "tenant", "epochs"};
constexpr std::string_view kRecommendFields[] = {"op", "tenant", "player", "k"};
constexpr std::string_view kEstimateFields[] = {"op", "tenant", "player"};
constexpr std::string_view kStatsFields[] = {"op", "tenant"};
constexpr std::string_view kPathFields[] = {"op", "tenant", "path"};

constexpr OpSpec kOps[] = {
    {"add_tenant", kAddTenantFields}, {"refine", kRefineFields},
    {"recommend", kRecommendFields},  {"estimate", kEstimateFields},
    {"stats", kStatsFields},          {"snapshot", kPathFields},
    {"restore", kPathFields},
};

const OpSpec& op_spec(std::string_view op) {
  for (const auto& spec : kOps) {
    if (spec.op == op) return spec;
  }
  throw std::invalid_argument("serve: unknown op '" + std::string(op) + "'");
}

std::string_view require_string(const io::FlatJson& j, std::string_view key,
                                const std::string& op) {
  if (!j.has(key)) {
    throw std::invalid_argument("serve: op '" + op + "' requires field '" + std::string(key) +
                                "'");
  }
  return j.get_string(key, "");
}

[[noreturn]] void out_of_range(std::string_view key, const std::string& value,
                               std::string_view expected = {}) {
  std::string msg = "serve: field '" + std::string(key) + "' is out of range (" + value + ")";
  if (!expected.empty()) msg.append("; expected ").append(expected);
  throw std::invalid_argument(msg);
}

/// A player or object count: ids are 32-bit, so n and m must fit them.
void check_id_count(std::string_view key, std::size_t count) {
  if (count > std::numeric_limits<std::uint32_t>::max()) {
    out_of_range(key, std::to_string(count), "at most 4294967295 (ids are 32-bit)");
  }
}

void append_uint(std::string& out, std::uint64_t v) {
  char buf[20];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

void append_hash_hex(std::string& out, std::uint64_t h) {
  static constexpr char kDigits[] = "0123456789abcdef";
  char buf[18] = {'0', 'x'};
  for (int i = 0; i < 16; ++i) buf[17 - i] = kDigits[(h >> (4 * i)) & 0xf];
  out.append(buf, sizeof buf);
}

void append_bool(std::string& out, bool b) { out += b ? "true" : "false"; }

/// `,"key":"value"` with the value escaped.
void append_string_field(std::string& out, std::string_view key, std::string_view value) {
  out.append(",\"").append(key).append("\":\"");
  io::append_json_escaped(out, value);
  out += '"';
}

}  // namespace

Request parse_request(std::string_view line) {
  const auto j = io::FlatJson::parse(line);
  Request req;
  req.op = j.get_string("op", "");
  if (req.op.empty()) throw std::invalid_argument("serve: request has no \"op\" field");
  const auto& spec = op_spec(req.op);
  // Report the lexicographically smallest undeclared key, so the error
  // names the same field whatever order the line lists its fields in.
  std::optional<std::string_view> undeclared;
  for (std::size_t i = 0; i < j.size(); ++i) {
    const std::string_view key = j.key(i);
    if (std::find(spec.fields.begin(), spec.fields.end(), key) != spec.fields.end()) continue;
    if (!undeclared || key < *undeclared) undeclared = key;
  }
  if (undeclared) {
    throw std::invalid_argument("serve: op '" + req.op + "' does not accept field '" +
                                std::string(*undeclared) + "'");
  }

  req.tenant = require_string(j, "tenant", req.op);
  if (req.op == "add_tenant") {
    req.in = j.get_string("in", "");
    req.kind = j.get_string("kind", req.kind);
    req.n = static_cast<std::size_t>(j.get_u64("n", 0));
    req.m = static_cast<std::size_t>(j.get_u64("m", 0));
    req.radius = static_cast<std::size_t>(j.get_u64("radius", 0));
    req.alpha = j.get_double("alpha", req.alpha);
    req.seed = j.get_u64("seed", req.seed);
    req.algo = j.get_string("algo", req.algo);
    req.faults = j.get_string("faults", "");
    req.record = j.get_string("record", "");
    req.toplist_cap = static_cast<std::size_t>(j.get_u64("toplist_cap", req.toplist_cap));
    req.sabotage = j.get_bool("sabotage", false);
    if (req.in.empty() && (req.n == 0 || req.m == 0)) {
      throw std::invalid_argument(
          "serve: add_tenant needs either \"in\" or nonzero \"n\" and \"m\"");
    }
    check_id_count("n", req.n);
    check_id_count("m", req.m);
    // The tower needs a community that exists (alpha > 0) and fits
    // (alpha <= 1); anything else must not reach the generator.
    if (!(req.alpha > 0.0 && req.alpha <= 1.0)) {
      char buf[32];
      const auto res = std::to_chars(buf, buf + sizeof buf, req.alpha);
      out_of_range("alpha", std::string(buf, res.ptr), "0 < alpha <= 1");
    }
  } else if (req.op == "refine") {
    req.epochs = j.get_u64("epochs", req.epochs);
    if (req.epochs == 0) throw std::invalid_argument("serve: refine needs epochs >= 1");
  } else if (req.op == "recommend" || req.op == "estimate") {
    if (!j.has("player")) {
      throw std::invalid_argument("serve: op '" + req.op + "' requires field 'player'");
    }
    const std::uint64_t player = j.get_u64("player", 0);
    if (player > std::numeric_limits<std::uint32_t>::max()) {
      out_of_range("player", std::to_string(player));
    }
    req.player = static_cast<std::uint32_t>(player);
    if (req.op == "recommend") req.k = static_cast<std::size_t>(j.get_u64("k", req.k));
  } else if (req.op == "snapshot" || req.op == "restore") {
    req.path = require_string(j, "path", req.op);
  }
  return req;
}

std::string hash_to_hex(std::uint64_t h) {
  std::string out;
  append_hash_hex(out, h);
  return out;
}

std::string Response::to_json() const {
  // The fixed keys and widest numbers come to under 224 bytes; add every
  // variable-length field so the line is built in one allocation
  // (escapes aside).
  std::size_t size = 224 + op.size() + tenant.size() + error.size() + estimate.size() +
                     path.size() + 11 * items.size();
  for (const auto& [key, value] : stats) size += key.size() + 24;
  std::string out;
  out.reserve(size);
  out += "{\"op\":\"";
  io::append_json_escaped(out, op);
  out += "\"";
  append_string_field(out, "tenant", tenant);
  out += ",\"ok\":";
  append_bool(out, ok);
  if (!ok) append_string_field(out, "error", error);
  if (has_view) {
    out += ",\"epoch\":";
    append_uint(out, epoch);
    out += ",\"hash\":\"";
    append_hash_hex(out, cache_hash);
    out += "\",\"degraded\":";
    append_bool(out, degraded);
    out += ",\"staleness\":";
    append_uint(out, staleness);
  }
  if (has_items) {
    out += ",\"items\":[";
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i != 0) out += ',';
      append_uint(out, items[i]);
    }
    out += ']';
  }
  if (has_estimate) out.append(",\"estimate\":\"").append(estimate) += '"';
  if (!path.empty()) append_string_field(out, "path", path);
  for (const auto& [key, value] : stats) {
    out += ",\"";
    io::append_json_escaped(out, key);
    out += "\":";
    append_uint(out, value);
  }
  out += ",\"latency_us\":";
  append_uint(out, latency_us);
  out += '}';
  return out;
}

}  // namespace tmwia::serve
