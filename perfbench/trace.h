// In-memory span recorder for the benchmark's traced runs. Spans are
// opened by the benchmark itself around each public call it makes into a
// layer (a `src/` module); the program under test is not instrumented.
// Spans live in memory until the run ends and are then written as a
// Chrome trace-event file (chrome://tracing, Perfetto).
//
// All spans are opened on the benchmark's main thread (parallelism lives
// inside the calls), so the recorder needs no locking. A disabled tracer
// costs one branch per span.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  /// RAII span; a no-op when the tracer is disabled. Attributes are the
  /// stage breakdown or counters the wrapped call returned.
  class Span {
   public:
    Span(Tracer& tracer, const char* layer, std::string name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    Span& attr(const std::string& key, double value);
    Span& label(const std::string& key, std::string value);
    /// A stage of the call's own breakdown, in seconds: an attribute that
    /// also counts against the span's self time.
    Span& stage(const std::string& key, double seconds);
    /// Records `key` = time since the span opened minus its stages.
    Span& self_time(const std::string& key);

   private:
    Tracer* tracer_ = nullptr;  // null when disabled
    std::size_t index_ = 0;
    double staged_s_ = 0.0;
  };

  Tracer();

  /// Spans opened while disabled are not recorded.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span;
  /// span id, parent id, attributes and labels ride in "args". Returns
  /// false when the file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  struct Event {
    std::string name;
    std::string layer;  // module the call enters, e.g. "flow/service"
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = root
    double start_us = 0.0;     // since the tracer was created
    double dur_us = 0.0;
    std::vector<std::pair<std::string, double>> args;
    std::vector<std::pair<std::string, std::string>> labels;
  };

  double now_us() const;

  using Clock = std::chrono::steady_clock;
  Clock::time_point origin_;
  bool enabled_ = false;
  std::vector<Event> events_;
  std::vector<std::size_t> open_;  // indices of open spans, innermost last
  std::uint64_t next_id_ = 1;
};

}  // namespace perfbench
