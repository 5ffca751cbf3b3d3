#include "tmwia/io/serialize.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace tmwia::io {
namespace {

constexpr char kTextMagic[] = "TMWIA/1 text";
constexpr char kBinMagic[] = "TMWIA/1 bin";

void write_u64(std::ostream& os, std::uint64_t v) {
  unsigned char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<unsigned char>(v >> (8 * i));
  os.write(reinterpret_cast<const char*>(buf), 8);
}

std::uint64_t read_u64(std::istream& is) {
  unsigned char buf[8];
  is.read(reinterpret_cast<char*>(buf), 8);
  if (!is) throw std::runtime_error("serialize: truncated binary input");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(buf[i]) << (8 * i);
  return v;
}

/// Player and object ids are 32-bit; larger declared dimensions can
/// never be backed by a real payload.
void check_dims(std::uint64_t n, std::uint64_t m) {
  constexpr std::uint64_t kMaxIds =
      std::uint64_t{std::numeric_limits<matrix::PlayerId>::max()} + 1;
  if (n > kMaxIds || m > kMaxIds) {
    throw std::runtime_error("serialize: dimensions " + std::to_string(n) + " x " +
                             std::to_string(m) + " exceed the 32-bit id range");
  }
}

/// Rows read so far become the matrix. Rows are allocated one at a
/// time as the payload supplies them, never from the declared count.
matrix::PreferenceMatrix assemble(std::vector<bits::BitVector> rows, std::size_t m) {
  if (rows.empty()) return matrix::PreferenceMatrix(0, m);
  return matrix::PreferenceMatrix(std::move(rows));
}

std::string read_line(std::istream& is, const char* what) {
  std::string line;
  if (!std::getline(is, line)) {
    throw std::runtime_error(std::string("serialize: missing ") + what);
  }
  return line;
}

}  // namespace

void save_matrix_text(const matrix::PreferenceMatrix& m, std::ostream& os) {
  os << kTextMagic << '\n' << m.players() << ' ' << m.objects() << '\n';
  for (matrix::PlayerId p = 0; p < m.players(); ++p) {
    os << m.row(p).to_string() << '\n';
  }
}

matrix::PreferenceMatrix load_matrix_text(std::istream& is) {
  if (read_line(is, "header") != kTextMagic) {
    throw std::runtime_error("serialize: bad text header");
  }
  std::istringstream dims(read_line(is, "dimensions"));
  std::uint64_t n = 0, m = 0;
  if (!(dims >> n >> m)) throw std::runtime_error("serialize: bad dimensions");
  check_dims(n, m);

  std::vector<bits::BitVector> rows;
  for (std::uint64_t p = 0; p < n; ++p) {
    const auto line = read_line(is, "row");
    if (line.size() != m) throw std::runtime_error("serialize: row length mismatch");
    rows.push_back(bits::BitVector::from_string(line));
  }
  return assemble(std::move(rows), m);
}

void save_matrix_binary(const matrix::PreferenceMatrix& m, std::ostream& os) {
  os.write(kBinMagic, static_cast<std::streamsize>(std::strlen(kBinMagic)));
  write_u64(os, m.players());
  write_u64(os, m.objects());
  for (matrix::PlayerId p = 0; p < m.players(); ++p) {
    for (auto w : m.row(p).words()) write_u64(os, w);
  }
}

matrix::PreferenceMatrix load_matrix_binary(std::istream& is) {
  char magic[sizeof(kBinMagic) - 1];
  is.read(magic, sizeof(magic));
  if (!is || std::memcmp(magic, kBinMagic, sizeof(magic)) != 0) {
    throw std::runtime_error("serialize: bad binary magic");
  }
  const auto n = read_u64(is);
  const auto m = read_u64(is);
  check_dims(n, m);
  // A row of no objects has no payload to back it.
  if (n != 0 && m == 0) throw std::runtime_error("serialize: players with no objects");
  const auto words = bits::BitVector::word_count(m);
  std::vector<bits::BitVector> rows;
  std::vector<std::uint64_t> row_words;
  for (std::uint64_t p = 0; p < n; ++p) {
    row_words.clear();
    for (std::size_t w = 0; w < words; ++w) row_words.push_back(read_u64(is));
    bits::BitVector row(m);  // set_word drops bits past m
    for (std::size_t w = 0; w < words; ++w) row.set_word(w, row_words[w]);
    rows.push_back(std::move(row));
  }
  return assemble(std::move(rows), m);
}

void save_instance(const matrix::Instance& inst, std::ostream& os) {
  save_matrix_text(inst.matrix, os);
  os << "communities " << inst.communities.size() << '\n';
  for (const auto& c : inst.communities) {
    os << "community";
    for (auto p : c) os << ' ' << p;
    os << '\n';
  }
  for (const auto& ctr : inst.centers) {
    os << "center " << ctr.to_string() << '\n';
  }
}

matrix::Instance load_instance(std::istream& is) {
  matrix::Instance inst;
  inst.matrix = load_matrix_text(is);

  std::istringstream hdr(read_line(is, "communities header"));
  std::string word;
  std::size_t count = 0;
  if (!(hdr >> word >> count) || word != "communities") {
    throw std::runtime_error("serialize: bad communities header");
  }
  for (std::size_t i = 0; i < count; ++i) {
    std::istringstream line(read_line(is, "community"));
    if (!(line >> word) || word != "community") {
      throw std::runtime_error("serialize: bad community line");
    }
    std::vector<matrix::PlayerId> ids;
    matrix::PlayerId p = 0;
    while (line >> p) ids.push_back(p);
    inst.communities.push_back(std::move(ids));
  }
  for (std::size_t i = 0; i < count; ++i) {
    std::istringstream line(read_line(is, "center"));
    std::string bitstr;
    if (!(line >> word >> bitstr) || word != "center") {
      throw std::runtime_error("serialize: bad center line");
    }
    inst.centers.push_back(bits::BitVector::from_string(bitstr));
  }
  return inst;
}

void save_outputs(const std::vector<bits::BitVector>& outputs, std::ostream& os) {
  os << "outputs " << outputs.size() << '\n';
  for (const auto& v : outputs) os << v.to_string() << '\n';
}

std::vector<bits::BitVector> load_outputs(std::istream& is) {
  std::istringstream hdr(read_line(is, "outputs header"));
  std::string word;
  std::size_t count = 0;
  if (!(hdr >> word >> count) || word != "outputs") {
    throw std::runtime_error("serialize: bad outputs header");
  }
  std::vector<bits::BitVector> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(bits::BitVector::from_string(read_line(is, "output row")));
  }
  return out;
}

void save_matrix_file(const matrix::PreferenceMatrix& m, const std::string& path,
                      bool binary) {
  std::ofstream os(path, binary ? std::ios::binary : std::ios::out);
  if (!os) throw std::runtime_error("serialize: cannot open " + path);
  if (binary) {
    save_matrix_binary(m, os);
  } else {
    save_matrix_text(m, os);
  }
}

matrix::PreferenceMatrix load_matrix_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("serialize: cannot open " + path);
  // Sniff the magic to pick the decoder.
  char c = 0;
  std::string head;
  while (is.get(c) && c != '\n' && head.size() < 16) head.push_back(c);
  is.seekg(0);
  if (head.rfind(kBinMagic, 0) == 0) return load_matrix_binary(is);
  return load_matrix_text(is);
}

void save_instance_file(const matrix::Instance& inst, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("serialize: cannot open " + path);
  save_instance(inst, os);
}

matrix::Instance load_instance_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("serialize: cannot open " + path);
  return load_instance(is);
}

}  // namespace tmwia::io
