// FlatJson: a tiny parser for one-line *flat* JSON objects — string /
// number / bool / null values only, no nesting — plus the string
// escaper the serve responses are rendered with.
//
// This is the wire format of the serve request stream (one request per
// line, jq-able) and the mirror of Args for JSONL input: parse a line
// once, then read typed fields with defaults. Like io::FlagTable, the
// caller validates the parsed keys against a declarative per-op table
// and rejects anything unknown, so the accepted request grammar can
// never drift from what the handlers read.
//
// One pass, no per-field allocation: parse() records each field as a
// {key view, value view, kind} entry in a small inline table (the
// first kInlineFields fields; later ones overflow to a vector) and
// looks keys up linearly. The views point into the caller's `text`, so
// `text` must outlive the FlatJson. A key or string value that contains
// a backslash escape is the one exception: it is decoded once into
// storage the FlatJson owns (node-based, so moving the FlatJson keeps
// the views valid; copying is deleted because a copy's views would
// still point into the original's storage).
//
// Deliberately NOT a general JSON parser: nested objects/arrays are a
// parse error. The library's emitted JSON (metrics snapshots,
// RunReport) stays write-only; this covers the one place we *read*
// JSON, with no dependency.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <forward_list>
#include <string>
#include <string_view>
#include <vector>

namespace tmwia::io {

class FlatJson {
 public:
  /// Fields held without allocating; the rest overflow to a vector.
  static constexpr std::size_t kInlineFields = 16;

  /// Parse one flat JSON object. Throws std::invalid_argument (with the
  /// offending position/key) on malformed input, nesting, or duplicate
  /// keys. The result views `text`, which must outlive it.
  static FlatJson parse(std::string_view text);

  FlatJson(FlatJson&&) noexcept = default;
  FlatJson& operator=(FlatJson&&) noexcept = default;
  FlatJson(const FlatJson&) = delete;
  FlatJson& operator=(const FlatJson&) = delete;

  [[nodiscard]] bool has(std::string_view key) const;

  /// Typed accessors with defaults. A present field of the wrong type
  /// throws std::invalid_argument naming the key. get_string's result
  /// views `text` (or the decoded copy of an escaped string).
  [[nodiscard]] std::string_view get_string(std::string_view key, std::string_view def) const;
  [[nodiscard]] std::int64_t get_int(std::string_view key, std::int64_t def) const;
  [[nodiscard]] double get_double(std::string_view key, double def) const;
  [[nodiscard]] std::uint64_t get_u64(std::string_view key, std::uint64_t def) const;
  [[nodiscard]] bool get_bool(std::string_view key, bool def) const;

  /// The fields' keys in document order, for unknown-field validation:
  /// key(i) for i < size().
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::string_view key(std::size_t i) const { return field(i).key; }

 private:
  FlatJson() = default;

  enum class Kind : std::uint8_t { kString, kNumber, kBool, kNull };
  struct Field {
    std::string_view key;
    std::string_view value;  ///< unescaped string / number token / "true"/"false"
    Kind kind = Kind::kNull;
  };

  [[nodiscard]] const Field& field(std::size_t i) const {
    return i < kInlineFields ? inline_[i] : overflow_[i - kInlineFields];
  }
  [[nodiscard]] const Field* find(std::string_view key) const;
  /// find(), but nullptr for a null field and a typed error for a field
  /// not of `kind`.
  [[nodiscard]] const Field* typed(std::string_view key, Kind kind) const;
  void add(const Field& f);

  std::array<Field, kInlineFields> inline_{};
  std::vector<Field> overflow_;
  std::size_t count_ = 0;
  std::forward_list<std::string> decoded_;  ///< escaped strings, decoded
};

/// Append `s` to `out`, escaped for embedding in a JSON string literal
/// (quotes not included).
void append_json_escaped(std::string& out, std::string_view s);

}  // namespace tmwia::io
