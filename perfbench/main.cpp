// perfbench: the repository benchmark's measuring program. It runs one
// workload against the public API of src/flow, src/sim and src/sim/engine
// and prints one JSON record of raw samples on stdout; perfbench/run.py
// builds it, runs it and derives the reported metrics.
//
//   perfbench --workload compile_cold|compile_warm|infer_images|soak_vgg16
//             --seed N --seconds S --threads W --work-dir DIR
//             [--trace-file FILE] [--inject corrupt-word|fingerprint]
//
// --trace-file turns on the traced run: passes alternate traced/untraced
// and the spans are written there as a Chrome trace. --inject plants a
// fault for the benchmark's self-test.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "util/log.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --threads W "
               "--work-dir DIR [--trace-file FILE] [--inject corrupt-word|fingerprint]\n");
  return 2;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string val = argv[++i];
    if (arg == "--workload") opt.workload = val;
    else if (arg == "--seed") opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (arg == "--seconds") opt.seconds = std::strtod(val.c_str(), nullptr);
    else if (arg == "--threads") opt.threads = std::strtoull(val.c_str(), nullptr, 10);
    else if (arg == "--work-dir") opt.work_dir = val;
    else if (arg == "--trace-file") opt.trace_path = val;
    else if (arg == "--inject") opt.inject = val;
    else return usage();
  }
  if (opt.workload.empty() || opt.work_dir.empty() || opt.threads == 0) return usage();
  opt.trace = !opt.trace_path.empty();

  // One pool width for the global, service and engine pools; no ambient
  // store directory or engine context count leaks in from the caller.
  setenv("FPGASIM_THREADS", std::to_string(opt.threads).c_str(), 1);
  unsetenv("FPGASIM_STORE_DIR");
  unsetenv("FPGASIM_STORE_CACHE_BYTES");
  unsetenv("FPGASIM_ENGINE_CONTEXTS");
  fpgasim::set_log_level(fpgasim::LogLevel::kWarn);
  std::filesystem::create_directories(opt.work_dir);

  Run run(opt);
  try {
    if (opt.workload == "compile_cold") run_compile_cold(run);
    else if (opt.workload == "compile_warm") run_compile_warm(run);
    else if (opt.workload == "infer_images") run_infer_images(run);
    else if (opt.workload == "soak_vgg16") run_soak_vgg16(run);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  if (opt.trace && !run.tracer().write_chrome(opt.trace_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_path.c_str());
    return 1;
  }
  std::printf("%s\n", run.json(peak_rss_mb()).c_str());
  return run.ok() ? 0 : 1;
}
