// Tests for the io module: table rendering, CSV output, arg parsing,
// and FlatJson's typed number accessors.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "tmwia/io/args.hpp"
#include "tmwia/io/flat_json.hpp"
#include "tmwia/io/table.hpp"

namespace tmwia::io {
namespace {

TEST(Table, RejectsNoColumns) {
  EXPECT_THROW(Table("t", {}), std::invalid_argument);
}

TEST(Table, RejectsWrongCellCount) {
  Table t("t", {{"a"}, {"b"}});
  EXPECT_THROW(t.add_row({Cell{std::string("x")}}), std::invalid_argument);
}

TEST(Table, PrintsAlignedRows) {
  Table t("demo", {{"name"}, {"count"}, {"ratio", 2}});
  t.add_row({std::string("alpha"), 42LL, 0.3333});
  t.add_row({std::string("b"), 7LL, 12.5});
  std::ostringstream os;
  t.print(os);
  const auto s = os.str();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("0.33"), std::string::npos);
  EXPECT_NE(s.find("12.50"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvFormat) {
  Table t("demo", {{"x"}, {"y", 1}});
  t.add_row({1LL, 2.0});
  t.add_row({3LL, 4.5});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2.0\n3,4.5\n");
}

TEST(Args, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--n=128", "--alpha=0.5", "--verbose", "--name=test"};
  Args a(5, argv);
  EXPECT_EQ(a.get_int("n", 0), 128);
  EXPECT_DOUBLE_EQ(a.get_double("alpha", 0.0), 0.5);
  EXPECT_TRUE(a.get_flag("verbose"));
  EXPECT_FALSE(a.get_flag("quiet"));
  EXPECT_EQ(*a.get("name"), "test");
  EXPECT_EQ(a.program(), "prog");
}

TEST(Args, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Args a(1, argv);
  EXPECT_EQ(a.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(a.get_double("x", 1.5), 1.5);
  EXPECT_EQ(a.get_seed("seed", 99u), 99u);
  EXPECT_FALSE(a.get("missing").has_value());
}

TEST(Args, RejectsPositional) {
  const char* argv[] = {"prog", "oops"};
  EXPECT_THROW(Args(2, argv), std::invalid_argument);
}

TEST(Args, SeedParsesLargeValues) {
  const char* argv[] = {"prog", "--seed=18446744073709551615"};
  Args a(2, argv);
  EXPECT_EQ(a.get_seed("seed", 0), 18446744073709551615ull);
}

TEST(FlatJson, NumbersParseAcrossTheirFullRange) {
  const auto j = FlatJson::parse(
      R"({"u":18446744073709551615,"i":-9223372036854775808,"d":0.25,"e":1e3})");
  EXPECT_EQ(j.get_u64("u", 0), 18446744073709551615ull);
  EXPECT_EQ(j.get_int("i", 0), INT64_MIN);
  EXPECT_DOUBLE_EQ(j.get_double("d", 0), 0.25);
  EXPECT_DOUBLE_EQ(j.get_double("e", 0), 1000.0);
}

/// The accessor must throw std::invalid_argument whose message names
/// the field and says `what` — never the library call that failed.
void expect_field_error(const std::function<void()>& read, const std::string& field,
                        const std::string& what) {
  try {
    read();
    ADD_FAILURE() << "no error for field " << field;
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("\"" + field + "\""), std::string::npos) << msg;
    EXPECT_NE(msg.find(what), std::string::npos) << msg;
  }
}

TEST(FlatJson, OutOfRangeNumbersAreTypedErrors) {
  const auto j = FlatJson::parse(
      R"({"u":18446744073709551616,"i":9223372036854775808,"d":1e999})");
  expect_field_error([&] { (void)j.get_u64("u", 0); }, "u", "out of range");
  expect_field_error([&] { (void)j.get_int("i", 0); }, "i", "out of range");
  expect_field_error([&] { (void)j.get_double("d", 0); }, "d", "out of range");
}

TEST(FlatJson, MalformedNumbersAreTypedErrors) {
  // A negative never wraps into an unsigned; a number must parse whole.
  const auto j = FlatJson::parse(R"({"neg":-1,"frac":1.5,"junk":1.5-3,"sign":+2})");
  expect_field_error([&] { (void)j.get_u64("neg", 0); }, "neg", "not an unsigned integer");
  expect_field_error([&] { (void)j.get_int("frac", 0); }, "frac", "not an integer");
  expect_field_error([&] { (void)j.get_double("junk", 0); }, "junk", "not a number");
  expect_field_error([&] { (void)j.get_u64("sign", 0); }, "sign", "not an unsigned integer");
}

TEST(FlatJson, ViewsSurviveAMoveAndFieldsOverflowTheInlineTable) {
  // Escaped strings are decoded into storage the FlatJson owns; a move
  // must carry it along. Fields past the inline table stay reachable.
  std::string text = R"({"k\u0031":"v\u0032 long enough to leave the small-string buffer")";
  for (std::size_t f = 0; f < FlatJson::kInlineFields + 4; ++f) {
    text += ",\"f" + std::to_string(f) + "\":" + std::to_string(f);
  }
  text += "}";
  auto parsed = FlatJson::parse(text);
  const FlatJson j = std::move(parsed);
  EXPECT_EQ(j.get_string("k1", ""), "v2 long enough to leave the small-string buffer");
  ASSERT_EQ(j.size(), FlatJson::kInlineFields + 5);
  EXPECT_EQ(j.key(0), "k1");
  EXPECT_EQ(j.key(j.size() - 1), "f19");
  EXPECT_EQ(j.get_u64("f19", 0), 19u);
  EXPECT_EQ(j.get_u64("f20", 7), 7u);
}

TEST(FlatJson, AppendJsonEscapedKeepsPrefixAndEscapesControls) {
  std::string out = "x";
  append_json_escaped(out, std::string_view("a\"b\\c\n\x01\x7f\xc3\xa9", 10));
  EXPECT_EQ(out, "xa\\\"b\\\\c\\n\\u0001\x7f\xc3\xa9");
}

}  // namespace
}  // namespace tmwia::io
