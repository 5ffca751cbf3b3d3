#include "tmwia/io/flat_json.hpp"

#include <charconv>
#include <stdexcept>
#include <system_error>
#include <unordered_set>

namespace tmwia::io {
namespace {

[[noreturn]] void fail(std::size_t pos, const std::string& what) {
  throw std::invalid_argument("flat json: " + what + " at offset " + std::to_string(pos));
}

[[noreturn]] void field_error(std::string_view key, const char* what) {
  throw std::invalid_argument("flat json: field \"" + std::string(key) + "\" " + what);
}

/// Parse a whole number token into T, or throw std::invalid_argument
/// naming the field: "not an integer"/"not a number" when the token
/// does not parse in full, "out of range" when T cannot hold it.
template <typename T>
T parse_number(std::string_view key, std::string_view text, const char* not_kind) {
  T value{};
  const char* const first = text.data();
  const char* const last = first + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec == std::errc::result_out_of_range) field_error(key, "is out of range");
  if (ec != std::errc{} || ptr != last) field_error(key, not_kind);
  return value;
}

void skip_ws(std::string_view s, std::size_t& i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\r' || s[i] == '\n')) ++i;
}

bool is_number_char(char c) {
  return (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E';
}

/// The string literal at s[i], unescaped. Without a backslash it is a
/// view into `s`; with one, the decoded text is pushed onto `decoded`
/// and the view points there.
std::string_view parse_string(std::string_view s, std::size_t& i,
                              std::forward_list<std::string>& decoded) {
  if (i >= s.size() || s[i] != '"') fail(i, "expected '\"'");
  const std::size_t start = ++i;
  while (i < s.size() && s[i] != '"' && s[i] != '\\') ++i;
  if (i >= s.size()) fail(i, "unterminated string");
  if (s[i] == '"') return s.substr(start, i++ - start);

  std::string out(s.substr(start, i - start));
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
          // The request grammar is ASCII; anything else round-trips as
          // UTF-8 from the raw bytes, so only BMP<128 escapes decode.
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
  ++i;  // closing quote
  decoded.push_front(std::move(out));
  return decoded.front();
}

}  // namespace

FlatJson FlatJson::parse(std::string_view text) {
  FlatJson out;
  // Duplicate keys: a linear scan while the fields fit inline, then a
  // hash set, so a hostile line with thousands of fields stays linear.
  std::unordered_set<std::string_view> overflow_keys;
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
      Field f;
      f.key = parse_string(text, i, out.decoded_);
      skip_ws(text, i);
      if (i >= text.size() || text[i] != ':') {
        fail(i, "expected ':' after key \"" + std::string(f.key) + '"');
      }
      ++i;
      skip_ws(text, i);
      if (i >= text.size()) fail(i, "missing value for key \"" + std::string(f.key) + '"');
      const char c = text[i];
      if (c == '"') {
        f.kind = Kind::kString;
        f.value = parse_string(text, i, out.decoded_);
      } else if (c == '{' || c == '[') {
        fail(i, "nested value for key \"" + std::string(f.key) + "\" (flat objects only)");
      } else if (text.substr(i, 4) == "true") {
        f.kind = Kind::kBool;
        f.value = text.substr(i, 4);
        i += 4;
      } else if (text.substr(i, 5) == "false") {
        f.kind = Kind::kBool;
        f.value = text.substr(i, 5);
        i += 5;
      } else if (text.substr(i, 4) == "null") {
        f.kind = Kind::kNull;
        i += 4;
      } else {
        const std::size_t start = i;
        while (i < text.size() && is_number_char(text[i])) ++i;
        if (i == start) fail(i, "bad value for key \"" + std::string(f.key) + '"');
        f.kind = Kind::kNumber;
        f.value = text.substr(start, i - start);
      }
      bool duplicate = false;
      if (out.count_ < kInlineFields) {
        duplicate = out.find(f.key) != nullptr;
      } else {
        if (overflow_keys.empty()) {
          for (std::size_t k = 0; k < out.count_; ++k) overflow_keys.insert(out.key(k));
        }
        duplicate = !overflow_keys.insert(f.key).second;
      }
      if (duplicate) {
        throw std::invalid_argument("flat json: duplicate key \"" + std::string(f.key) + '"');
      }
      out.add(f);
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

void FlatJson::add(const Field& f) {
  if (count_ < kInlineFields) {
    inline_[count_] = f;
  } else {
    overflow_.push_back(f);
  }
  ++count_;
}

const FlatJson::Field* FlatJson::find(std::string_view key) const {
  for (std::size_t i = 0; i < count_; ++i) {
    const Field& f = field(i);
    if (f.key == key) return &f;
  }
  return nullptr;
}

const FlatJson::Field* FlatJson::typed(std::string_view key, Kind kind) const {
  const Field* f = find(key);
  if (f == nullptr || f->kind == Kind::kNull) return nullptr;
  if (f->kind != kind) {
    field_error(key, kind == Kind::kString   ? "is not a string"
                     : kind == Kind::kNumber ? "is not a number"
                                             : "is not a bool");
  }
  return f;
}

bool FlatJson::has(std::string_view key) const { return find(key) != nullptr; }

std::string_view FlatJson::get_string(std::string_view key, std::string_view def) const {
  const Field* f = typed(key, Kind::kString);
  return f == nullptr ? def : f->value;
}

std::int64_t FlatJson::get_int(std::string_view key, std::int64_t def) const {
  const Field* f = typed(key, Kind::kNumber);
  return f == nullptr ? def : parse_number<std::int64_t>(key, f->value, "is not an integer");
}

std::uint64_t FlatJson::get_u64(std::string_view key, std::uint64_t def) const {
  const Field* f = typed(key, Kind::kNumber);
  return f == nullptr ? def
                      : parse_number<std::uint64_t>(key, f->value, "is not an unsigned integer");
}

double FlatJson::get_double(std::string_view key, double def) const {
  const Field* f = typed(key, Kind::kNumber);
  return f == nullptr ? def : parse_number<double>(key, f->value, "is not a number");
}

bool FlatJson::get_bool(std::string_view key, bool def) const {
  const Field* f = typed(key, Kind::kBool);
  return f == nullptr ? def : f->value == "true";
}

void append_json_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // first byte not yet appended
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: {
        const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out.append(esc, sizeof esc);
      }
    }
  }
  out.append(s, run, s.size() - run);
}

}  // namespace tmwia::io
