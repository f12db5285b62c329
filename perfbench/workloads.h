// The benchmark's four workloads and the record each run fills in. A
// workload runs its set-up three times, then repeats its pass until
// `seconds` have elapsed (at least three passes), and records raw samples
// only; perfbench/run.py turns them into the reported metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  // Chrome trace output (traced runs)
  std::string work_dir;    // working directory for on-disk stores
  std::size_t threads = 1; // the one pool width of the run
  std::string inject;               // self-test fault: corrupt-word | fingerprint
};

class Run {
 public:
  explicit Run(Options opt) : opt_(std::move(opt)) {}

  const Options& options() const { return opt_; }
  Tracer& tracer() { return tracer_; }

  /// Counts one operation; a false `ok` makes it a failed one.
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Records why an operation failed (reported on stderr and in the
  /// result); returns false so callers can fold it into `ok`.
  bool fail(std::string why);

  /// Deterministic value: the first pin of `key` fixes it, every later pin
  /// must match byte for byte. Seeded pins depend on --seed. perfbench/
  /// run.py also compares all pins against earlier runs in the checkout.
  bool pin(const std::string& key, const std::string& value, bool seeded = false);
  /// Self-test hook: replaces a pinned value so the next pin mismatches.
  void corrupt_pin(const std::string& key);

  void add_setup(double seconds) { setup_s_.push_back(seconds); }
  void add_setup_value(const std::string& key, double value) {
    setup_values_[key].push_back(value);
  }
  using Values = std::vector<std::pair<std::string, double>>;
  void add_pass(bool traced, Values values) { passes_.push_back({traced, std::move(values)}); }
  /// Per-model record (cells, components, fingerprint, Fmax, ...).
  void model_value(const std::string& model, const std::string& key, const std::string& value);

  /// Chooses whether pass `index` is traced: in a traced run passes
  /// alternate traced / untraced, so the run also measures the overhead.
  bool traced_pass(std::size_t index) const { return opt_.trace && index % 2 == 0; }

  /// The whole record as one JSON object.
  std::string json(double peak_rss_mb) const;
  bool ok() const { return failed_ == 0 && failures_.empty(); }

 private:
  struct Pass {
    bool traced = false;
    Values values;
  };
  Options opt_;
  Tracer tracer_;
  std::uint64_t attempted_ = 0, failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, std::string> pins_, seeded_pins_;
  std::vector<double> setup_s_;
  std::map<std::string, std::vector<double>> setup_values_;
  std::vector<Pass> passes_;
  std::map<std::string, std::map<std::string, std::string>> models_;
};

void run_compile_cold(Run& run);
void run_compile_warm(Run& run);
void run_infer_images(Run& run);
void run_soak_vgg16(Run& run);

}  // namespace perfbench
