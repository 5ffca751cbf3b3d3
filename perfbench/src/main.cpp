// tmwia_perfbench: one process of the repository benchmark. It runs
// one workload against the tmwia libraries' public API and prints what
// it measured as one JSON line; perfbench/run.py starts it (once at the
// full engine pool, once at a pool of one thread), checks the two
// against each other and reports the benchmark's metrics.
//
//   tmwia_perfbench --workload NAME --seed N --seconds S --threads T
//                   [--trace 0|1] [--trace-out FILE]
//
// Exit codes: 0 measured and every check passed; 1 a check failed;
// 2 bad arguments; 3 refused to time a sanitizer or unoptimized build.
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"
#include "tmwia/bits/kernels.hpp"
#include "tmwia/engine/thread_pool.hpp"

namespace {

using namespace perfbench;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || PERFBENCH_SANITIZE || \
    PERFBENCH_TSAN
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void provenance(const Options& opt, Result& out) {
  out.text("workload", opt.workload);
  out.text("seed", std::to_string(opt.seed));
  out.text("nproc", std::to_string(std::thread::hardware_concurrency()));
  out.text("pool_threads", std::to_string(tmwia::engine::ThreadPool::global().thread_count()));
  out.text("kernel_backend", std::string(tmwia::bits::kernels::backend_name(
                                 tmwia::bits::kernels::active_backend())));
  out.text("build_type", PERFBENCH_BUILD_TYPE);
  out.text("optimized", kOptimized ? "yes" : "no");
  out.text("compiler", compiler());
  out.text("tmwia_audit", TMWIA_AUDIT ? "ON" : "OFF");
  out.text("sanitizer", kSanitized ? "on" : "off");
  out.text("trace", opt.trace ? "1" : "0");
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        opt.workload = val;
      } else if (key == "--seed") {
        opt.seed = std::stoull(val);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (key == "--threads") {
        opt.threads = std::stoul(val);
      } else if (key == "--trace") {
        opt.trace = val == "1";
      } else if (key == "--trace-out") {
        opt.trace_out = val;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty() && opt.threads > 0 && opt.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: tmwia_perfbench --workload NAME --seed N --seconds S --threads T "
                 "[--trace 0|1] [--trace-out FILE]\n");
    return 2;
  }
  if (kSanitized || !kOptimized) {
    std::fprintf(stderr, "tmwia_perfbench: refusing to time this build: it is %s\n",
                 kSanitized ? "sanitized" : "unoptimized");
    return 3;
  }
  tmwia::engine::set_global_threads(opt.threads);

  Result out;
  provenance(opt, out);
  try {
    if (opt.workload == "protocol_zero_radius") {
      run_protocol(opt, out);
    } else if (opt.workload == "serve_mixed") {
      run_serve(opt, out);
    } else {
      std::fprintf(stderr, "tmwia_perfbench: unknown workload '%s'\n", opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    out.check(false, std::string("exception: ") + e.what());
  }
  out.value("peak_rss_mb", peak_rss_mb());
  std::printf("%s\n", out.to_json().c_str());
  std::fflush(stdout);
  return out.ok() ? 0 : 1;
}
