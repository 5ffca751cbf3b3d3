// Tests for matrix/instance/output serialization: exact round-trips in
// both encodings, malformed-input rejection, format sniffing.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "tmwia/io/serialize.hpp"
#include "tmwia/matrix/generators.hpp"

namespace tmwia::io {
namespace {

matrix::PreferenceMatrix sample_matrix(std::size_t n, std::size_t m, std::uint64_t seed) {
  rng::Rng rng(seed);
  return matrix::uniform_random(n, m, rng).matrix;
}

TEST(SerializeText, RoundTrip) {
  const auto m = sample_matrix(17, 70, 1);  // odd sizes cross word edges
  std::stringstream ss;
  save_matrix_text(m, ss);
  const auto back = load_matrix_text(ss);
  ASSERT_EQ(back.players(), m.players());
  ASSERT_EQ(back.objects(), m.objects());
  for (matrix::PlayerId p = 0; p < m.players(); ++p) {
    EXPECT_EQ(back.row(p), m.row(p));
  }
}

TEST(SerializeText, RejectsBadHeader) {
  std::stringstream ss("NOT A HEADER\n1 1\n0\n");
  EXPECT_THROW(load_matrix_text(ss), std::runtime_error);
}

TEST(SerializeText, RejectsRowLengthMismatch) {
  std::stringstream ss("TMWIA/1 text\n1 4\n01\n");
  EXPECT_THROW(load_matrix_text(ss), std::runtime_error);
}

TEST(SerializeText, RejectsTruncated) {
  std::stringstream ss("TMWIA/1 text\n3 4\n0101\n");
  EXPECT_THROW(load_matrix_text(ss), std::runtime_error);
}

/// Malformed input fails as a "serialize:" runtime_error — never a
/// bad_alloc or length_error from sizing buffers off a declared count.
void expect_serialize_error(const std::function<void()>& load) {
  try {
    load();
    ADD_FAILURE() << "malformed input accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("serialize:", 0), 0u) << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "untyped failure: " << e.what();
  }
}

TEST(SerializeText, HugeDeclaredDimensionsFailOnMissingRows) {
  std::stringstream ss("TMWIA/1 text\n4000000000 4000000000\n");
  expect_serialize_error([&] { (void)load_matrix_text(ss); });
  std::stringstream wide("TMWIA/1 text\n2 4000000000\n0101\n");
  expect_serialize_error([&] { (void)load_matrix_text(wide); });
  std::stringstream beyond("TMWIA/1 text\n99999999999 4\n0101\n");
  expect_serialize_error([&] { (void)load_matrix_text(beyond); });
}

TEST(SerializeText, ZeroPlayersKeepDeclaredObjects) {
  std::stringstream ss("TMWIA/1 text\n0 5\n");
  const auto m = load_matrix_text(ss);
  EXPECT_EQ(m.players(), 0u);
  EXPECT_EQ(m.objects(), 5u);
}

/// A binary matrix stream: magic, dimensions, then `payload_words`
/// zero words.
std::string binary_stream(std::uint64_t n, std::uint64_t m, std::size_t payload_words) {
  std::string s = "TMWIA/1 bin";
  for (const std::uint64_t v : {n, m}) {
    for (int i = 0; i < 8; ++i) s.push_back(static_cast<char>(v >> (8 * i)));
  }
  s.append(payload_words * 8, '\0');
  return s;
}

TEST(SerializeBinary, HugeDeclaredDimensionsFailOnTruncatedPayload) {
  for (const auto& bytes : {binary_stream(4000000000, 4000000000, 0),
                            binary_stream(3, 4000000000, 5),
                            binary_stream(4000000000, 64, 7),
                            binary_stream(4000000000, 0, 0),
                            binary_stream(~std::uint64_t{0}, ~std::uint64_t{0}, 0)}) {
    std::stringstream ss(bytes);
    expect_serialize_error([&] { (void)load_matrix_binary(ss); });
  }
}

TEST(SerializeBinary, RoundTrip) {
  const auto m = sample_matrix(9, 129, 2);
  std::stringstream ss;
  save_matrix_binary(m, ss);
  const auto back = load_matrix_binary(ss);
  for (matrix::PlayerId p = 0; p < m.players(); ++p) {
    EXPECT_EQ(back.row(p), m.row(p));
  }
}

TEST(SerializeBinary, RejectsBadMagic) {
  std::stringstream ss("garbage");
  EXPECT_THROW(load_matrix_binary(ss), std::runtime_error);
}

TEST(SerializeInstance, RoundTripWithCommunities) {
  rng::Rng rng(3);
  const auto inst = matrix::planted_communities(40, 64, {{0.3, 1}, {0.3, 2}}, rng);
  std::stringstream ss;
  save_instance(inst, ss);
  const auto back = load_instance(ss);
  EXPECT_EQ(back.communities, inst.communities);
  EXPECT_EQ(back.centers, inst.centers);
  for (matrix::PlayerId p = 0; p < 40; ++p) {
    EXPECT_EQ(back.matrix.row(p), inst.matrix.row(p));
  }
}

TEST(SerializeInstance, NoCommunities) {
  rng::Rng rng(4);
  const auto inst = matrix::uniform_random(5, 8, rng);
  std::stringstream ss;
  save_instance(inst, ss);
  const auto back = load_instance(ss);
  EXPECT_TRUE(back.communities.empty());
}

TEST(SerializeOutputs, RoundTrip) {
  std::vector<bits::BitVector> outs{bits::BitVector::from_string("0101"),
                                    bits::BitVector::from_string("1111")};
  std::stringstream ss;
  save_outputs(outs, ss);
  EXPECT_EQ(load_outputs(ss), outs);
}

TEST(SerializeOutputs, HugeDeclaredCountFailsOnMissingRows) {
  std::stringstream ss("outputs 18446744073709551615\n0101\n");
  expect_serialize_error([&] { (void)load_outputs(ss); });
}

TEST(SerializeFile, SniffsTextAndBinary) {
  const auto m = sample_matrix(6, 40, 5);
  const std::string text_path = "/tmp/tmwia_ser_test.txt";
  const std::string bin_path = "/tmp/tmwia_ser_test.bin";
  save_matrix_file(m, text_path, /*binary=*/false);
  save_matrix_file(m, bin_path, /*binary=*/true);
  const auto t = load_matrix_file(text_path);
  const auto b = load_matrix_file(bin_path);
  for (matrix::PlayerId p = 0; p < 6; ++p) {
    EXPECT_EQ(t.row(p), m.row(p));
    EXPECT_EQ(b.row(p), m.row(p));
  }
  std::remove(text_path.c_str());
  std::remove(bin_path.c_str());
}

TEST(SerializeFile, MissingFileThrows) {
  EXPECT_THROW(load_matrix_file("/tmp/definitely_missing_tmwia_file"), std::runtime_error);
}

}  // namespace
}  // namespace tmwia::io
