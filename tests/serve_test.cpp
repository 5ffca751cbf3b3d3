// serve:: — the long-lived recommendation service.
//
// Contract coverage:
//   * request codec: parse/render, unknown op/field rejection, defaults;
//     the parser held byte for byte to a reference copy of its previous
//     implementation over a hostile table and seeded mutations of every
//     tools/serve_requests*.jsonl line; pinned response bytes per shape;
//   * cache versions: toplist ranking, content-hash sensitivity;
//   * multi-tenant isolation: a tenant refined inside a two-tenant
//     service (concurrent readers + interleaved epochs) produces
//     byte-identical estimates AND a byte-identical flight log to the
//     same tenant refined solo — no cross-tenant leakage of any kind;
//   * versioned consistency: every response's (epoch, cache_hash) pair
//     matches the publish ledger even while the background refiner is
//     swapping versions (this test is the TSan target for the serve
//     layer);
//   * degradation: a sabotaged epoch publishes nothing, keeps serving
//     the stale version, and marks every response degraded;
//   * observability hooks: degraded responses flow through the
//     service's observe hook into an attached SloWatchdog (the exit-6
//     contract's trigger) and every request into a TelemetryExporter;
//   * snapshot/restore: the restored tenant serves the byte-identical
//     (epoch, hash) version and its post-restore audit stays clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "tmwia/matrix/generators.hpp"
#include "tmwia/obs/metrics.hpp"
#include "tmwia/obs/slo.hpp"
#include "tmwia/obs/telemetry.hpp"
#include "tmwia/rng/rng.hpp"
#include "tmwia/serve/cache.hpp"
#include "tmwia/serve/protocol.hpp"
#include "tmwia/serve/service.hpp"
#include "tmwia/serve/tenant.hpp"

namespace {

using namespace tmwia;

matrix::Instance make_instance(std::uint64_t seed, std::size_t n = 16, std::size_t m = 32) {
  rng::Rng gen = rng::Rng(seed).split(0x6e57, 0);
  return matrix::planted_community(n, m, {0.5, 0}, gen);
}

serve::TenantConfig make_config(const std::string& name, std::uint64_t seed) {
  serve::TenantConfig cfg;
  cfg.name = name;
  cfg.seed = seed;
  return cfg;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string temp_path(const std::string& tag) {
  return testing::TempDir() + "serve_" + tag + "_" +
         std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + ".tmp";
}

// ---- reference codec -------------------------------------------------
//
// The request codec as it stood before the single-pass FlatJson: a
// std::map of owned strings and a sorted keys() list. It lives here
// only, as the oracle the differential tests hold the production codec
// to: same Request fields or the same error text for every input.
namespace reference {

[[noreturn]] void fail(std::size_t pos, const std::string& what) {
  throw std::invalid_argument("flat json: " + what + " at offset " + std::to_string(pos));
}

template <typename T>
T parse_number(const std::string& key, const std::string& text, const char* kind) {
  T value{};
  const char* const first = text.data();
  const char* const last = first + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec == std::errc::result_out_of_range) {
    throw std::invalid_argument("flat json: field \"" + key + "\" is out of range");
  }
  if (ec != std::errc{} || ptr != last) {
    throw std::invalid_argument("flat json: field \"" + key + "\" is not " + kind);
  }
  return value;
}

void skip_ws(std::string_view s, std::size_t& i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\r' || s[i] == '\n')) ++i;
}

std::string parse_string(std::string_view s, std::size_t& i) {
  if (i >= s.size() || s[i] != '"') fail(i, "expected '\"'");
  ++i;
  std::string out;
  while (i < s.size() && s[i] != '"') {
    char c = s[i++];
    if (c == '\\') {
      if (i >= s.size()) fail(i, "truncated escape");
      const char e = s[i++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (i + 4 > s.size()) fail(i, "truncated \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = s[i++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail(i, "bad \\u escape");
          }
          if (code > 0x7f) fail(i, "non-ASCII \\u escape unsupported");
          out.push_back(static_cast<char>(code));
          break;
        }
        default: fail(i, "unknown escape");
      }
    } else {
      out.push_back(c);
    }
  }
  if (i >= s.size()) fail(i, "unterminated string");
  ++i;
  return out;
}

class FlatJson {
 public:
  static FlatJson parse(std::string_view text) {
    FlatJson out;
    std::size_t i = 0;
    skip_ws(text, i);
    if (i >= text.size() || text[i] != '{') fail(i, "expected '{'");
    ++i;
    skip_ws(text, i);
    if (i < text.size() && text[i] == '}') {
      ++i;
    } else {
      for (;;) {
        skip_ws(text, i);
        const std::string key = parse_string(text, i);
        skip_ws(text, i);
        if (i >= text.size() || text[i] != ':') fail(i, "expected ':' after key \"" + key + '"');
        ++i;
        skip_ws(text, i);
        if (i >= text.size()) fail(i, "missing value for key \"" + key + '"');
        Value v;
        const char c = text[i];
        if (c == '"') {
          v = {Kind::kString, parse_string(text, i)};
        } else if (c == '{' || c == '[') {
          fail(i, "nested value for key \"" + key + "\" (flat objects only)");
        } else if (text.substr(i, 4) == "true") {
          v = {Kind::kBool, "true"};
          i += 4;
        } else if (text.substr(i, 5) == "false") {
          v = {Kind::kBool, "false"};
          i += 5;
        } else if (text.substr(i, 4) == "null") {
          v = {Kind::kNull, ""};
          i += 4;
        } else {
          const std::size_t start = i;
          while (i < text.size() &&
                 (std::isdigit(static_cast<unsigned char>(text[i])) != 0 || text[i] == '-' ||
                  text[i] == '+' || text[i] == '.' || text[i] == 'e' || text[i] == 'E')) {
            ++i;
          }
          if (i == start) fail(i, "bad value for key \"" + key + '"');
          v = {Kind::kNumber, std::string(text.substr(start, i - start))};
        }
        if (!out.kv_.emplace(key, std::move(v)).second) {
          throw std::invalid_argument("flat json: duplicate key \"" + key + '"');
        }
        skip_ws(text, i);
        if (i < text.size() && text[i] == ',') {
          ++i;
          continue;
        }
        if (i < text.size() && text[i] == '}') {
          ++i;
          break;
        }
        fail(i, "expected ',' or '}'");
      }
    }
    skip_ws(text, i);
    if (i != text.size()) fail(i, "trailing bytes after object");
    return out;
  }

  bool has(const std::string& key) const { return find(key) != nullptr; }

  std::string get_string(const std::string& key, const std::string& def) const {
    const auto* v = find(key);
    if (v == nullptr || v->kind == Kind::kNull) return def;
    if (v->kind != Kind::kString) {
      throw std::invalid_argument("flat json: field \"" + key + "\" is not a string");
    }
    return v->text;
  }

  std::uint64_t get_u64(const std::string& key, std::uint64_t def) const {
    const auto* v = find(key);
    if (v == nullptr || v->kind == Kind::kNull) return def;
    if (v->kind != Kind::kNumber) {
      throw std::invalid_argument("flat json: field \"" + key + "\" is not a number");
    }
    return parse_number<std::uint64_t>(key, v->text, "an unsigned integer");
  }

  double get_double(const std::string& key, double def) const {
    const auto* v = find(key);
    if (v == nullptr || v->kind == Kind::kNull) return def;
    if (v->kind != Kind::kNumber) {
      throw std::invalid_argument("flat json: field \"" + key + "\" is not a number");
    }
    return parse_number<double>(key, v->text, "a number");
  }

  bool get_bool(const std::string& key, bool def) const {
    const auto* v = find(key);
    if (v == nullptr || v->kind == Kind::kNull) return def;
    if (v->kind != Kind::kBool) {
      throw std::invalid_argument("flat json: field \"" + key + "\" is not a bool");
    }
    return v->text == "true";
  }

  std::vector<std::string> keys() const {
    std::vector<std::string> out;
    for (const auto& [k, v] : kv_) out.push_back(k);
    return out;
  }

 private:
  enum class Kind : std::uint8_t { kString, kNumber, kBool, kNull };
  struct Value {
    Kind kind;
    std::string text;
  };
  const Value* find(const std::string& key) const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? nullptr : &it->second;
  }
  std::map<std::string, Value> kv_;
};

struct OpSpec {
  std::string_view op;
  std::vector<std::string_view> fields;
};

const OpSpec& op_spec(const std::string& op) {
  static const OpSpec kOps[] = {
      {"add_tenant",
       {"op", "tenant", "in", "kind", "n", "m", "radius", "alpha", "seed", "algo", "faults",
        "record", "toplist_cap", "sabotage"}},
      {"refine", {"op", "tenant", "epochs"}},
      {"recommend", {"op", "tenant", "player", "k"}},
      {"estimate", {"op", "tenant", "player"}},
      {"stats", {"op", "tenant"}},
      {"snapshot", {"op", "tenant", "path"}},
      {"restore", {"op", "tenant", "path"}},
  };
  for (const auto& spec : kOps) {
    if (spec.op == op) return spec;
  }
  throw std::invalid_argument("serve: unknown op '" + op + "'");
}

std::string require_string(const FlatJson& j, const char* key, const std::string& op) {
  if (!j.has(key)) {
    throw std::invalid_argument("serve: op '" + op + "' requires field '" + key + "'");
  }
  return j.get_string(key, "");
}

serve::Request parse_request(std::string_view line) {
  const auto j = FlatJson::parse(line);
  serve::Request req;
  req.op = j.get_string("op", "");
  if (req.op.empty()) throw std::invalid_argument("serve: request has no \"op\" field");
  const auto& spec = op_spec(req.op);
  for (const auto& key : j.keys()) {
    if (std::find(spec.fields.begin(), spec.fields.end(), key) == spec.fields.end()) {
      throw std::invalid_argument("serve: op '" + req.op + "' does not accept field '" +
                                  key + "'");
    }
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
  } else if (req.op == "refine") {
    req.epochs = j.get_u64("epochs", req.epochs);
    if (req.epochs == 0) throw std::invalid_argument("serve: refine needs epochs >= 1");
  } else if (req.op == "recommend" || req.op == "estimate") {
    if (!j.has("player")) {
      throw std::invalid_argument("serve: op '" + req.op + "' requires field 'player'");
    }
    const std::uint64_t player = j.get_u64("player", 0);
    if (player > std::numeric_limits<std::uint32_t>::max()) {
      throw std::invalid_argument("serve: field 'player' is out of range (" +
                                  std::to_string(player) + ")");
    }
    req.player = static_cast<std::uint32_t>(player);
    if (req.op == "recommend") req.k = static_cast<std::size_t>(j.get_u64("k", req.k));
  } else if (req.op == "snapshot" || req.op == "restore") {
    req.path = require_string(j, "path", req.op);
  }
  return req;
}

}  // namespace reference

/// Every Request field in one string, doubles by bit pattern, so two
/// parses compare exactly.
std::string describe(const serve::Request& r) {
  std::ostringstream os;
  std::uint64_t alpha_bits = 0;
  std::memcpy(&alpha_bits, &r.alpha, sizeof alpha_bits);
  os << "op=" << r.op << "|tenant=" << r.tenant << "|player=" << r.player << "|k=" << r.k
     << "|epochs=" << r.epochs << "|path=" << r.path << "|in=" << r.in << "|kind=" << r.kind
     << "|n=" << r.n << "|m=" << r.m << "|radius=" << r.radius << "|alpha=" << alpha_bits
     << "|seed=" << r.seed << "|algo=" << r.algo << "|faults=" << r.faults
     << "|record=" << r.record << "|toplist_cap=" << r.toplist_cap
     << "|sabotage=" << r.sabotage;
  return os.str();
}

template <typename Parse>
std::string outcome(Parse parse, std::string_view line) {
  try {
    return "ok " + describe(parse(line));
  } catch (const std::invalid_argument& e) {
    return std::string("error ") + e.what();
  }
}

/// Hold serve::parse_request to the reference on `line`. The one
/// intended difference: add_tenant values the tower cannot use (alpha
/// outside (0, 1], n or m past the 32-bit id range) that the reference
/// accepted are now a typed error naming the field.
void expect_same_parse(std::string_view line) {
  const std::string got = outcome(serve::parse_request, line);
  std::string want = outcome(reference::parse_request, line);
  if (want.rfind("ok ", 0) == 0) {
    const auto req = reference::parse_request(line);
    if (req.op == "add_tenant") {
      const char* field = req.n > 0xffffffffull   ? "'n'"
                          : req.m > 0xffffffffull ? "'m'"
                          : !(req.alpha > 0.0 && req.alpha <= 1.0) ? "'alpha'"
                                                                   : nullptr;
      if (field != nullptr) {
        EXPECT_EQ(got.rfind(std::string("error serve: field ") + field + " is out of range", 0),
                  0u)
            << "line: " << line << "\ngot: " << got;
        return;
      }
    }
  }
  EXPECT_EQ(got, want) << "line: " << line;
}

// ---- protocol codec --------------------------------------------------

TEST(ServeProtocol, ParsesRecommendWithDefaults) {
  const auto req = serve::parse_request(R"({"op":"recommend","tenant":"a","player":3})");
  EXPECT_EQ(req.op, "recommend");
  EXPECT_EQ(req.tenant, "a");
  EXPECT_EQ(req.player, 3u);
  EXPECT_EQ(req.k, 8u);  // default
}

TEST(ServeProtocol, ParsesAddTenantFields) {
  const auto req = serve::parse_request(
      R"({"op":"add_tenant","tenant":"t","n":8,"m":16,"kind":"uniform","seed":9,)"
      R"("alpha":0.25,"algo":"mimic","toplist_cap":4,"sabotage":true})");
  EXPECT_EQ(req.n, 8u);
  EXPECT_EQ(req.m, 16u);
  EXPECT_EQ(req.kind, "uniform");
  EXPECT_EQ(req.seed, 9u);
  EXPECT_DOUBLE_EQ(req.alpha, 0.25);
  EXPECT_EQ(req.algo, "mimic");
  EXPECT_EQ(req.toplist_cap, 4u);
  EXPECT_TRUE(req.sabotage);
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  // Unknown op.
  EXPECT_THROW(serve::parse_request(R"({"op":"frobnicate","tenant":"a"})"),
               std::invalid_argument);
  // Unknown field for the op.
  EXPECT_THROW(serve::parse_request(R"({"op":"recommend","tenant":"a","player":1,"nope":2})"),
               std::invalid_argument);
  // Missing required fields.
  EXPECT_THROW(serve::parse_request(R"({"op":"recommend","tenant":"a"})"),
               std::invalid_argument);
  EXPECT_THROW(serve::parse_request(R"({"op":"recommend","player":1})"),
               std::invalid_argument);
  EXPECT_THROW(serve::parse_request(R"({"op":"add_tenant","tenant":"a"})"),
               std::invalid_argument);
  EXPECT_THROW(serve::parse_request(R"({"op":"snapshot","tenant":"a"})"),
               std::invalid_argument);
  // Not JSON at all.
  EXPECT_THROW(serve::parse_request("recommend a 3"), std::invalid_argument);
}

TEST(ServeProtocol, PlayerBeyondIdRangeIsRejectedNotTruncated) {
  // 4294967299 = 2^32 + 3 once truncated to player 3's answer.
  for (const char* op : {"recommend", "estimate"}) {
    const std::string line = std::string(R"({"op":")") + op +
                             R"(","tenant":"a","player":4294967299})";
    try {
      (void)serve::parse_request(line);
      ADD_FAILURE() << op << ": out-of-range player accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'player'"), std::string::npos) << e.what();
    }
  }
  EXPECT_EQ(serve::parse_request(R"({"op":"estimate","tenant":"a","player":4294967295})").player,
            4294967295u);
}

TEST(ServeProtocol, OutOfRangeNumberNamesTheField) {
  try {
    (void)serve::parse_request(R"({"op":"refine","tenant":"a","epochs":99999999999999999999})");
    ADD_FAILURE() << "out-of-range epochs accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("\"epochs\" is out of range"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("stoull"), std::string::npos) << msg;
  }
}

TEST(ServeProtocol, ResponseJsonCarriesViewAndItems) {
  serve::Response r;
  r.op = "recommend";
  r.tenant = "a";
  r.has_view = true;
  r.epoch = 2;
  r.cache_hash = 0xabcdef;
  r.staleness = 1;
  r.has_items = true;
  r.items = {5, 1, 9};
  r.latency_us = 12;
  const std::string js = r.to_json();
  EXPECT_NE(js.find("\"op\":\"recommend\""), std::string::npos);
  EXPECT_NE(js.find("\"epoch\":2"), std::string::npos);
  EXPECT_NE(js.find(serve::hash_to_hex(0xabcdef)), std::string::npos);
  EXPECT_NE(js.find("\"items\":[5,1,9]"), std::string::npos);
  EXPECT_NE(js.find("\"staleness\":1"), std::string::npos);
}

TEST(ServeProtocol, CodecMatchesReferenceOnHostileTable) {
  std::string wide = R"({"op":"stats","tenant":"c")";
  for (int f = 0; f < 20; ++f) wide += ",\"f" + std::to_string(f) + "\":" + std::to_string(f);
  const std::vector<std::string> table = {
      // Accepted shapes, whitespace and escapes included.
      R"({"op":"recommend","tenant":"a","player":3})",
      " \t{ \"op\" : \"estimate\" ,\r\n\"tenant\" : \"a\" , \"player\" : 0 } \n",
      R"({"op":"stats","tenant":"c\"\\\/\b\f\n\r\t"})",
      R"({"op":"recommend","tenant":"a","player":1,"k":null})",
      R"({"op":"add_tenant","tenant":"t","n":8,"m":16,"alpha":1,"sabotage":false})",
      R"({"op":"add_tenant","tenant":"t","in":"x.tmw","kind":"uniform","alpha":1e-3,)"
      R"("seed":18446744073709551615,"algo":"mimic","faults":"seed=1","record":"r",)"
      R"("toplist_cap":2,"radius":3,"sabotage":true})",
      R"({"op":"snapshot","tenant":"a","path":"p\u0001q"})",
      R"({"op":"refine","tenant":"a","epochs":7})",
      // Duplicate keys, inline, escaped and past the inline table.
      R"({"op":"stats","op":"stats","tenant":"a"})",
      R"({"op":"stats","o\u0070":"stats","tenant":"a"})",
      R"({"op":"stats","tenant":"a","tenant":tru})",
      wide,
      wide + R"(,"f17":1})",
      wide + R"(,"tenant":"b"})",
      wide + "}",
      // Nesting, trailing bytes, truncation.
      R"({"op":"stats","tenant":{"a":1}})",
      R"({"op":"recommend","tenant":"a","player":[1]})",
      R"({"op":"stats","tenant":"a"} x)",
      R"({"op":"stats","tenant":"a"}{})",
      R"({"op":"stats","tenant":"a)",
      R"({"op)",
      "{\"op\":\"stats\",\"tenant\":\"a\\",
      R"({"op":"stats","tenant":"\u00)",
      R"({"op":"stats","tenant":"\u00zz"})",
      R"({"op":"stats","tenant":"é"})",
      R"({"op":"stats","tenant":"\q"})",
      R"({"op":)",
      R"({"op" "stats"})",
      R"({"op":"stats",})",
      R"({"op":"stats","tenant":"a")",
      R"({"op":"stats","tenant":"a",)",
      "", "{", "}", "{}", "[]", "null", "recommend a 3",
      // Literals and numbers.
      R"({"op":"recommend","tenant":"a","player":1,"k":tru})",
      R"({"op":"add_tenant","tenant":"d","n":4,"m":4,"sabotage":truex})",
      R"({"op":"add_tenant","tenant":"d","n":4,"m":4,"sabotage":1})",
      R"({"op":"refine","tenant":"a","epochs":18446744073709551616})",
      R"({"op":"refine","tenant":"a","epochs":0})",
      R"({"op":"recommend","tenant":"a","player":-1})",
      R"({"op":"recommend","tenant":"a","player":1.5})",
      R"({"op":"recommend","tenant":"a","player":1e})",
      R"({"op":"recommend","tenant":"a","player":"1"})",
      R"({"op":"recommend","tenant":"a","player":4294967296})",
      R"({"op":"add_tenant","tenant":"t","n":8,"m":16,"alpha":1e999})",
      R"({"op":"add_tenant","tenant":"t","n":8,"m":16,"alpha":-1})",
      R"({"op":"add_tenant","tenant":"t","n":8,"m":16,"alpha":0})",
      R"({"op":"add_tenant","tenant":"t","n":8,"m":16,"alpha":1.5})",
      R"({"op":"add_tenant","tenant":"t","n":4294967296,"m":16})",
      R"({"op":"add_tenant","tenant":"t","n":8,"m":4294967296})",
      R"({"op":"add_tenant","tenant":"t","n":0,"m":4294967296,"alpha":-1})",
      // Ops and fields.
      R"({"op":"frobnicate","tenant":"a"})",
      R"({"op":1,"tenant":"a"})",
      R"({"op":"","tenant":"a"})",
      R"({"tenant":"a"})",
      R"({"op":"recommend","zz":1})",
      R"({"op":"estimate","tenant":"a","player":0,"zeta":1,"Alpha":2,"_x":3,"":4})",
      "{\"op\":\"stats\",\"tenant\":\"a\",\"\xc3\xa9\":1,\"b\":2}",
      R"({"op":"stats","tenant":"a","x\u0000y":1})",
      R"({"op":"snapshot","tenant":"a"})",
      R"({"op":"restore","tenant":"a","path":null})",
  };
  for (const auto& line : table) expect_same_parse(line);
}

/// Seeded mutations of one line: bit flips, truncation, splices with a
/// donor line, byte insertions and numeric-field inflation, stacked one
/// to three deep.
std::string mutate(std::string s, const std::string& donor, rng::Rng& gen) {
  static constexpr std::string_view kBytes = "{}[],:\"\\ u0123456789e-+.tfnl\x01\xff";
  static constexpr std::string_view kNumbers[] = {"99999999999999999999", "-1", "0", "1e999",
                                                  "4294967296", "0.0", "1.5"};
  const std::size_t rounds = 1 + gen.uniform(3);
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::size_t at = gen.uniform(s.size() + 1);
    switch (gen.uniform(5)) {
      case 0:
        if (!s.empty()) s[at % s.size()] ^= static_cast<char>(1u << gen.uniform(8));
        break;
      case 1: s.resize(at); break;
      case 2: s = s.substr(0, at) + donor.substr(gen.uniform(donor.size() + 1)); break;
      case 3: s.insert(at, 1, kBytes[gen.uniform(kBytes.size())]); break;
      default: {
        const std::size_t digit = s.find_first_of("0123456789", at);
        if (digit == std::string::npos) break;
        const std::size_t end = s.find_first_not_of("0123456789", digit);
        s.replace(digit, (end == std::string::npos ? s.size() : end) - digit,
                  kNumbers[gen.uniform(std::size(kNumbers))]);
      }
    }
  }
  return s;
}

TEST(ServeProtocol, CodecMatchesReferenceOnMutatedRequestStreams) {
  std::vector<std::string> lines;
  for (const auto& entry : std::filesystem::directory_iterator(TMWIA_TOOLS_DIR)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("serve_requests", 0) != 0 || entry.path().extension() != ".jsonl") continue;
    std::ifstream in(entry.path());
    for (std::string line; std::getline(in, line);) {
      if (!line.empty() && line[0] != '#') lines.push_back(line);
    }
  }
  std::sort(lines.begin(), lines.end());  // directory order is not portable
  ASSERT_GE(lines.size(), 50u);
  rng::Rng gen(0xc0dec);
  for (const auto& line : lines) {
    expect_same_parse(line);
    for (int k = 0; k < 100; ++k) {
      expect_same_parse(mutate(line, lines[gen.uniform(lines.size())], gen));
    }
  }
}

TEST(ServeProtocol, AddTenantRejectsAlphaAndSizesTheTowerCannotUse) {
  const std::string head = R"({"op":"add_tenant","tenant":"t",)";
  const std::pair<std::string, std::string> bad[] = {
      {R"("n":8,"m":16,"alpha":-1})", "'alpha' is out of range (-1)"},
      {R"("n":8,"m":16,"alpha":0})", "'alpha' is out of range (0)"},
      {R"("n":8,"m":16,"alpha":1.5})", "'alpha' is out of range (1.5)"},
      {R"("in":"w.tmw","alpha":-0.25})", "'alpha' is out of range (-0.25)"},
      {R"("n":4294967296,"m":16})", "'n' is out of range (4294967296)"},
      {R"("n":8,"m":18446744073709551615})", "'m' is out of range (18446744073709551615)"},
  };
  for (const auto& [fields, what] : bad) {
    try {
      (void)serve::parse_request(head + fields);
      ADD_FAILURE() << fields << ": accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
    }
  }
  // The edges of the accepted range.
  EXPECT_DOUBLE_EQ(serve::parse_request(head + R"("n":8,"m":16,"alpha":1})").alpha, 1.0);
  EXPECT_DOUBLE_EQ(serve::parse_request(head + R"("n":8,"m":16,"alpha":1e-300})").alpha,
                   1e-300);
  const auto widest = serve::parse_request(head + R"("n":4294967295,"m":4294967295})");
  EXPECT_EQ(widest.n, 4294967295u);
  EXPECT_EQ(widest.m, 4294967295u);
}

TEST(ServeProtocol, ResponseJsonBytesArePinned) {
  serve::Response err;
  err.op = "parse";
  err.ok = false;
  static constexpr char kError[] = "bad \"key\" \\ \x01\t\n\r\b\f\x1f \xc3\xa9 \0.";
  err.error.assign(kError, sizeof kError - 1);  // the NUL included
  err.latency_us = 7;
  EXPECT_EQ(err.to_json(),
            "{\"op\":\"parse\",\"tenant\":\"\",\"ok\":false,\"error\":\"bad \\\"key\\\" \\\\ "
            "\\u0001\\t\\n\\r\\u0008\\u000c\\u001f \xc3\xa9 \\u0000.\",\"latency_us\":7}");

  serve::Response items;
  items.op = "recommend";
  items.tenant = "t\"1";
  items.has_view = true;
  items.epoch = 18446744073709551615ull;
  items.cache_hash = 0x0123456789abcdefull;
  items.staleness = 3;
  items.has_items = true;
  items.items = {4294967295u, 0, 12};
  items.latency_us = 0;
  EXPECT_EQ(items.to_json(),
            R"({"op":"recommend","tenant":"t\"1","ok":true,"epoch":18446744073709551615,)"
            R"("hash":"0x0123456789abcdef","degraded":false,"staleness":3,)"
            R"("items":[4294967295,0,12],"latency_us":0})");

  items.items.clear();
  items.degraded = true;
  EXPECT_EQ(items.to_json(),
            R"({"op":"recommend","tenant":"t\"1","ok":true,"epoch":18446744073709551615,)"
            R"("hash":"0x0123456789abcdef","degraded":true,"staleness":3,)"
            R"("items":[],"latency_us":0})");

  serve::Response est;
  est.op = "estimate";
  est.tenant = "a";
  est.has_view = true;
  est.epoch = 2;
  est.has_estimate = true;
  est.estimate = "0110";
  est.latency_us = 1234567;
  EXPECT_EQ(est.to_json(),
            R"({"op":"estimate","tenant":"a","ok":true,"epoch":2,)"
            R"("hash":"0x0000000000000000","degraded":false,"staleness":0,)"
            R"("estimate":"0110","latency_us":1234567})");

  serve::Response stats;
  stats.op = "stats";
  stats.tenant = "a";
  stats.stats = {{"players", 16}, {"odd\"key", 0}, {"rounds", 18446744073709551615ull}};
  stats.latency_us = 5;
  EXPECT_EQ(stats.to_json(),
            R"({"op":"stats","tenant":"a","ok":true,"players":16,"odd\"key":0,)"
            R"("rounds":18446744073709551615,"latency_us":5})");

  serve::Response path;
  path.op = "restore";
  path.tenant = "a";
  path.has_view = true;
  path.epoch = 4;
  path.cache_hash = 0xfedcba9876543210ull;
  path.path = "dir\\snap\n.ck";
  path.latency_us = 9;
  EXPECT_EQ(path.to_json(),
            R"({"op":"restore","tenant":"a","ok":true,"epoch":4,)"
            R"("hash":"0xfedcba9876543210","degraded":false,"staleness":0,)"
            R"("path":"dir\\snap\n.ck","latency_us":9})");

  serve::Response failed_path = path;
  failed_path.ok = false;
  failed_path.has_view = false;
  failed_path.error = "unknown tenant";
  EXPECT_EQ(failed_path.to_json(),
            R"({"op":"restore","tenant":"a","ok":false,"error":"unknown tenant",)"
            R"("path":"dir\\snap\n.ck","latency_us":9})");
}

// ---- cache versions --------------------------------------------------

TEST(ServeCache, ToplistRanksUnprobedLikedBySupport) {
  // One player over 8 objects: likes {1,2,5,6}, already probed {2}.
  std::vector<bits::BitVector> est(1, bits::BitVector(8));
  for (auto o : {1u, 2u, 5u, 6u}) est[0].set(o, true);
  std::vector<bits::BitVector> probed(1, bits::BitVector(8));
  probed[0].set(2, true);
  // Two candidates both carry a known 1 at object 5, one at object 1.
  std::vector<bits::TriVector> cands;
  for (int c = 0; c < 2; ++c) {
    bits::TriVector t(8);
    t.set(5, bits::Tri::kOne);
    if (c == 0) t.set(1, bits::Tri::kOne);
    cands.push_back(t);
  }
  const auto v = serve::build_cache_version(1, est, probed, cands, 16);
  // 5 (support 2) before 1 (support 1) before 6 (support 0); 2 excluded.
  EXPECT_EQ(v->toplists[0], (std::vector<std::uint32_t>{5, 1, 6}));

  // Everything probed -> fall back to all predicted-liked.
  probed[0] = est[0];
  const auto v2 = serve::build_cache_version(1, est, probed, cands, 16);
  EXPECT_EQ(v2->toplists[0], (std::vector<std::uint32_t>{5, 1, 2, 6}));

  // The cap truncates.
  const auto v3 = serve::build_cache_version(1, est, std::vector<bits::BitVector>(), cands, 2);
  EXPECT_EQ(v3->toplists[0].size(), 2u);
}

TEST(ServeCache, ContentHashIsEpochAndPayloadSensitive) {
  std::vector<bits::BitVector> est(2, bits::BitVector(16));
  est[0].set(3, true);
  const auto a = serve::build_cache_version(1, est, {}, {}, 4);
  const auto b = serve::build_cache_version(1, est, {}, {}, 4);
  EXPECT_EQ(a->content_hash, b->content_hash);  // deterministic
  const auto c = serve::build_cache_version(2, est, {}, {}, 4);
  EXPECT_NE(a->content_hash, c->content_hash);  // epoch mixed in
  est[1].set(7, true);
  const auto d = serve::build_cache_version(1, est, {}, {}, 4);
  EXPECT_NE(a->content_hash, d->content_hash);  // payload mixed in
}

// ---- tenant refinement ----------------------------------------------

TEST(ServeTenant, RefineEpochsPublishAndAuditClean) {
  serve::Tenant t(make_config("solo", 11), make_instance(11));
  EXPECT_EQ(t.epochs_published(), 0u);
  EXPECT_EQ(t.cache().current()->epoch, 0u);

  const auto v1 = t.refine_epoch();
  EXPECT_EQ(v1->epoch, 1u);
  EXPECT_EQ(t.epochs_published(), 1u);
  EXPECT_FALSE(t.degraded());

  const auto v2 = t.refine_epoch();
  EXPECT_EQ(v2->epoch, 2u);
  EXPECT_NE(v1->content_hash, v2->content_hash);
  EXPECT_GT(t.total_probes(), 0u);
  EXPECT_TRUE(t.audit().clean());
}

TEST(ServeTenant, MimicEpochsPublishUnderSupervisor) {
  auto cfg = make_config("mimic", 5);
  cfg.algo = "mimic";
  serve::Tenant t(cfg, make_instance(5));
  const auto v = t.refine_epoch();
  EXPECT_EQ(v->epoch, 1u);
  EXPECT_FALSE(t.degraded());
  EXPECT_TRUE(t.audit().clean());
}

TEST(ServeTenant, SabotagedEpochServesStaleAndMarksDegraded) {
  auto cfg = make_config("sab", 3);
  cfg.sabotage_refine = true;
  serve::Tenant t(cfg, make_instance(3));
  const auto v0 = t.cache().current();

  const auto v = t.refine_epoch();
  EXPECT_TRUE(t.degraded());
  EXPECT_EQ(t.epochs_started(), 1u);
  EXPECT_EQ(t.epochs_published(), 0u);
  // The cache still serves the epoch-0 version, byte-identical.
  EXPECT_EQ(v->epoch, 0u);
  EXPECT_EQ(v->content_hash, v0->content_hash);
}

// ---- multi-tenant isolation -----------------------------------------

TEST(ServeIsolation, ServiceTenantsMatchSoloRunsByteForByte) {
  constexpr std::uint64_t kSeedA = 21, kSeedB = 22;
  const std::string log_a = temp_path("iso_a"), log_b = temp_path("iso_b");
  const std::string log_sa = temp_path("iso_sa"), log_sb = temp_path("iso_sb");

  // Two tenants with different hidden matrices share one service; the
  // refiner interleaves their epochs while reader threads hammer both.
  std::vector<bits::BitVector> est_a, est_b;
  {
    obs::MetricsRegistry::global().set_enabled(true);
    serve::RecommendationService service;
    auto cfg_a = make_config("a", kSeedA);
    cfg_a.record_path = log_a;
    auto cfg_b = make_config("b", kSeedB);
    cfg_b.record_path = log_b;
    service.add_tenant(std::move(cfg_a), make_instance(kSeedA));
    service.add_tenant(std::move(cfg_b), make_instance(kSeedB));

    service.start_refiner(2);
    std::vector<std::thread> readers;
    for (int r = 0; r < 2; ++r) {
      readers.emplace_back([&service, r] {
        const std::string tenant = r == 0 ? "a" : "b";
        for (std::uint32_t i = 0; i < 500; ++i) {
          const auto resp = service.recommend(tenant, i % 16, 4);
          ASSERT_TRUE(resp.ok);
          ASSERT_EQ(service.published_hash(tenant, resp.epoch), resp.cache_hash);
        }
      });
    }
    for (auto& th : readers) th.join();
    service.stop_refiner();
    while (service.tenant("a")->epochs_published() < 2) service.refine("a");
    while (service.tenant("b")->epochs_published() < 2) service.refine("b");

    est_a = service.tenant("a")->cache().current()->estimates;
    est_b = service.tenant("b")->cache().current()->estimates;
    EXPECT_TRUE(service.tenant("a")->audit().clean());
    EXPECT_TRUE(service.tenant("b")->audit().clean());
  }

  // Solo reference runs: same config, same seeds, no sibling tenant.
  auto solo = [&](std::uint64_t seed, const std::string& log) {
    auto cfg = make_config("solo", seed);
    cfg.record_path = log;
    serve::Tenant t(cfg, make_instance(seed));
    t.refine_epoch();
    t.refine_epoch();
    return t.cache().current()->estimates;
  };
  const auto solo_a = solo(kSeedA, log_sa);
  const auto solo_b = solo(kSeedB, log_sb);

  // No cross-tenant leakage: estimates byte-identical to the solo runs.
  EXPECT_EQ(est_a, solo_a);
  EXPECT_EQ(est_b, solo_b);
  // Different matrices must not collapse to the same answers.
  EXPECT_NE(est_a, est_b);

  // Per-tenant flight logs byte-identical to the solo logs (tenants'
  // recorders flushed on destruction above).
  const auto shared_log_a = slurp(log_a), shared_log_b = slurp(log_b);
  EXPECT_FALSE(shared_log_a.empty());
  EXPECT_EQ(shared_log_a, slurp(log_sa));
  EXPECT_EQ(shared_log_b, slurp(log_sb));

  for (const auto& p : {log_a, log_b, log_sa, log_sb}) std::remove(p.c_str());
}

// ---- versioned consistency under concurrent refinement ---------------

TEST(ServeConsistency, ResponsesNeverTearAcrossVersionSwaps) {
  serve::RecommendationService service;
  service.add_tenant(make_config("t", 31), make_instance(31));

  service.start_refiner(4);
  std::uint64_t views = 0;
  std::uint64_t distinct_epochs = 0;
  std::uint64_t last_epoch = ~0ull;
  for (std::uint32_t i = 0; i < 4000; ++i) {
    const auto r = (i % 4 == 3) ? service.estimate("t", i % 16)
                                : service.recommend("t", i % 16, 4);
    ASSERT_TRUE(r.ok);
    ASSERT_TRUE(r.has_view);
    // The (epoch, hash) pair must match what was published for that
    // epoch — a torn read mixing two versions could not.
    ASSERT_EQ(service.published_hash("t", r.epoch), r.cache_hash);
    ASSERT_NE(r.cache_hash, 0u);
    ++views;
    if (r.epoch != last_epoch) {
      ++distinct_epochs;
      last_epoch = r.epoch;
    }
  }
  service.stop_refiner();
  EXPECT_EQ(views, 4000u);
  EXPECT_GE(distinct_epochs, 1u);
  EXPECT_TRUE(service.tenant("t")->audit().clean());
}

// ---- service request path -------------------------------------------

TEST(ServeService, HandlesErrorsWithoutThrowing) {
  serve::RecommendationService service;
  // Unknown tenant.
  auto r = service.recommend("ghost", 0, 4);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "unknown tenant");
  // Unknown op through handle().
  serve::Request req;
  req.op = "frobnicate";
  req.tenant = "ghost";
  r = service.handle(req);
  EXPECT_FALSE(r.ok);

  // Player out of range on a real tenant.
  service.add_tenant(make_config("t", 41), make_instance(41));
  r = service.recommend("t", 999, 4);
  EXPECT_FALSE(r.ok);

  // Duplicate tenant registration throws.
  EXPECT_THROW(service.add_tenant(make_config("t", 41), make_instance(41)),
               std::invalid_argument);
}

TEST(ServeService, DegradedTenantMarksResponsesAndServiceFlag) {
  serve::RecommendationService service;
  auto cfg = make_config("sab", 51);
  cfg.sabotage_refine = true;
  service.add_tenant(std::move(cfg), make_instance(51));
  EXPECT_FALSE(service.any_degraded());

  service.refine("sab");
  EXPECT_TRUE(service.any_degraded());
  const auto r = service.recommend("sab", 0, 4);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.epoch, 0u);       // still the stale epoch-0 version
  EXPECT_EQ(r.staleness, 1u);   // one epoch behind
}

// ---- SLO watchdog + telemetry hooks ----------------------------------

/// The serve exit-code 6 contract, at the library layer: a sabotaged
/// tenant's degraded responses flow through the service's observe hook
/// into the watchdog, which raises a structured "degraded" alert and
/// latches breached().
TEST(ServeSlo, SabotagedTenantTripsWatchdog) {
  serve::RecommendationService service;
  service.add_tenant(make_config("good", 41), make_instance(41));
  auto cfg = make_config("sab", 51);
  cfg.sabotage_refine = true;
  service.add_tenant(std::move(cfg), make_instance(51));

  obs::SloWatchdog watchdog(obs::SloSpec::parse("degraded=0,window=8"));
  service.set_watchdog(&watchdog);

  // Healthy traffic: no alert, no breach.
  service.refine("good");
  EXPECT_TRUE(service.recommend("good", 0, 4).ok);
  EXPECT_TRUE(watchdog.evaluate(1).empty());
  EXPECT_FALSE(watchdog.breached());

  // The sabotaged epoch degrades every later response; one is enough.
  service.refine("sab");
  const auto r = service.recommend("sab", 0, 4);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.degraded);
  const auto alerts = watchdog.evaluate(2);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].objective, "degraded");
  EXPECT_DOUBLE_EQ(alerts[0].observed, 1.0);
  EXPECT_TRUE(watchdog.breached());
  const auto rep = watchdog.report();
  EXPECT_FALSE(rep.ok);
  ASSERT_EQ(rep.objectives.size(), 1u);
  EXPECT_EQ(rep.objectives[0].name, "degraded");
}

/// Requests flow into an attached TelemetryExporter: with every=1 each
/// request closes a tick, and the exemplar record names the tenant and
/// op that was served.
TEST(ServeSlo, ServiceFeedsTelemetryExporter) {
  const std::string path = temp_path("telemetry");
  serve::RecommendationService service;
  service.add_tenant(make_config("t", 41), make_instance(41));
  service.refine("t");

  obs::TelemetryConfig cfg;
  cfg.path = path;
  cfg.every = 1;
  cfg.write_exposition = false;
  {
    obs::TelemetryExporter exporter(cfg, obs::MetricsRegistry::global());
    service.set_telemetry(&exporter);
    EXPECT_TRUE(service.recommend("t", 0, 4).ok);
    EXPECT_EQ(exporter.ticks(), 1u);
    service.set_telemetry(nullptr);
    exporter.finish();
  }
  const auto text = slurp(path);
  EXPECT_NE(text.find("\"kind\":\"snapshot\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"exemplar\",\"seq\":1,\"tenant\":\"t\",\"op\":\"recommend\""),
            std::string::npos);
  std::remove(path.c_str());
}

// ---- snapshot / restore ---------------------------------------------

TEST(ServeSnapshot, RoundTripServesIdenticalVersionAndStaysAuditable) {
  const std::string path = temp_path("ckpt");
  std::uint64_t epoch = 0, hash = 0, probes = 0;
  {
    serve::Tenant t(make_config("snap", 61), make_instance(61));
    t.refine_epoch();
    t.refine_epoch();
    const auto v = t.cache().current();
    epoch = v->epoch;
    hash = v->content_hash;
    probes = t.total_probes();
    t.save_snapshot(path);
  }

  serve::Tenant back(make_config("snap", 61), make_instance(61));
  back.restore_snapshot(path);
  const auto v = back.cache().current();
  EXPECT_EQ(v->epoch, epoch);
  EXPECT_EQ(v->content_hash, hash);  // byte-identical serving state
  EXPECT_EQ(back.epochs_started(), epoch);
  EXPECT_EQ(back.total_probes(), probes);

  // The restored tenant keeps refining and keeps a clean audit (the
  // auditor baseline excludes pre-snapshot traffic).
  const auto v3 = back.refine_epoch();
  EXPECT_EQ(v3->epoch, epoch + 1);
  EXPECT_FALSE(back.degraded());
  EXPECT_TRUE(back.audit().clean());

  // Restoring into a tenant that already ran epochs is rejected.
  serve::Tenant busy(make_config("snap", 61), make_instance(61));
  busy.refine_epoch();
  EXPECT_THROW(busy.restore_snapshot(path), std::logic_error);

  std::remove(path.c_str());
}

}  // namespace
