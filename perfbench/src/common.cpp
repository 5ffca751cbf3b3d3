#include "common.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {
namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::uint64_t digest(const std::vector<tmwia::bits::BitVector>& rows) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t w) {
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& row : rows) {
    mix(row.size());
    for (const auto w : row.words()) mix(w);
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string join(const std::vector<Timed>& ops) {
  std::string out;
  char buf[32];
  for (const auto& op : ops) {
    std::snprintf(buf, sizeof buf, "%s%.6g%s", out.empty() ? "" : ",", op.seconds,
                  op.calm ? "" : "!");
    out += buf;
  }
  return out;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water
  // mark of the image this process was exec'd from (here the Python
  // run.py), which would swamp a small workload's own peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

double steal_s() {
  // First line: "cpu  user nice system idle iowait irq softirq steal ...".
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t fields[8] = {};
  stat >> cpu;
  for (auto& f : fields) stat >> f;
  if (!stat || cpu != "cpu") return 0.0;
  return static_cast<double>(fields[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

bool StealWatch::calm() const {
  const double capacity = seconds_since(t0_) * static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  return steal_s() - steal0_ <= kMaxSteal * capacity;
}

std::vector<double> seconds_of(const std::vector<Timed>& ops, bool calm_only) {
  std::vector<double> out;
  for (const auto& op : ops) {
    if (op.calm || !calm_only) out.push_back(op.seconds);
  }
  return out;
}

void repeat_for(double budget_s, std::size_t min_runs, const std::function<void()>& op) {
  const auto t0 = now_ns();
  for (std::size_t runs = 0; runs < min_runs || seconds_since(t0) < budget_s; ++runs) op();
}

void SetupTimer::report(Result& out) const {
  out.value("setup_s", median(bursts_));
  std::string list;
  char buf[32];
  for (const double b : bursts_) {
    std::snprintf(buf, sizeof buf, "%s%.9g", list.empty() ? "" : ",", b);
    list += buf;
  }
  out.text("setup_bursts", list);
}

int SpanLog::open(std::string name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({std::move(name), now_ns(), 0, stack_.empty() ? -1 : stack_.back()});
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void SpanLog::add(const std::string& name, std::int64_t ns, std::uint64_t count) {
  auto& t = totals_[name];
  t.count += count;
  t.ns += ns;
}

std::int64_t SpanLog::self_ns(int id) const {
  const auto& s = spans_[static_cast<std::size_t>(id)];
  std::int64_t covered = 0;
  for (const auto& c : spans_) {
    if (c.parent == id) covered += c.end_ns - c.start_ns;
  }
  return s.end_ns - s.start_ns - covered;
}

std::string SpanLog::to_json() const {
  std::ostringstream os;
  os << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    os << (i == 0 ? "" : ",") << "{\"id\":" << i << ",\"name\":" << json_string(s.name)
       << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns << ",\"self_ns\":" << self_ns(static_cast<int>(i))
       << "}";
  }
  os << "],\"totals\":{";
  bool first = true;
  for (const auto& [name, t] : totals_) {
    os << (first ? "" : ",") << json_string(name) << ":{\"count\":" << t.count
       << ",\"ns\":" << t.ns << "}";
    first = false;
  }
  os << "}}";
  return os.str();
}

void Result::ops(std::uint64_t attempted, std::uint64_t failed, const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed != 0 && failures_.size() < 32) failures_.push_back(what);
}

std::string Result::to_json() const {
  std::ostringstream os;
  os << "{\"ok\":" << (ok() ? "true" : "false") << ",\"attempted\":" << attempted_
     << ",\"failed\":" << failed_ << ",\"failures\":[";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    os << (i == 0 ? "" : ",") << json_string(failures_[i]);
  }
  os << "],\"values\":{";
  bool first = true;
  for (const auto& [name, v] : values_) {
    os << (first ? "" : ",") << json_string(name) << ":" << json_number(v);
    first = false;
  }
  os << "},\"texts\":{";
  first = true;
  for (const auto& [name, v] : texts_) {
    os << (first ? "" : ",") << json_string(name) << ":" << json_string(v);
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
