#include "trace.h"

#include <fstream>

#include "util/json.h"

namespace perfbench {

Tracer::Tracer() : origin_(Clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
}

Tracer::Span::Span(Tracer& tracer, const char* layer, std::string name) {
  if (!tracer.enabled_) return;
  tracer_ = &tracer;
  Event event;
  event.name = std::move(name);
  event.layer = layer;
  event.id = tracer.next_id_++;
  event.parent = tracer.open_.empty() ? 0 : tracer.events_[tracer.open_.back()].id;
  index_ = tracer.events_.size();
  tracer.open_.push_back(index_);
  tracer.events_.push_back(std::move(event));
  tracer.events_.back().start_us = tracer.now_us();  // last, so set-up is not timed
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  Event& event = tracer_->events_[index_];
  event.dur_us = tracer_->now_us() - event.start_us;
  tracer_->open_.pop_back();
}

Tracer::Span& Tracer::Span::attr(const std::string& key, double value) {
  if (tracer_ != nullptr) tracer_->events_[index_].args.emplace_back(key, value);
  return *this;
}

Tracer::Span& Tracer::Span::stage(const std::string& key, double seconds) {
  staged_s_ += seconds;
  return attr(key, seconds);
}

Tracer::Span& Tracer::Span::self_time(const std::string& key) {
  if (tracer_ == nullptr) return *this;
  const double elapsed_s = (tracer_->now_us() - tracer_->events_[index_].start_us) * 1e-6;
  return attr(key, elapsed_s - staged_s_);
}

Tracer::Span& Tracer::Span::label(const std::string& key, std::string value) {
  if (tracer_ != nullptr) tracer_->events_[index_].labels.emplace_back(key, std::move(value));
  return *this;
}

bool Tracer::write_chrome(const std::string& path) const {
  fpgasim::JsonWriter json;
  json.begin_object();
  json.key("displayTimeUnit").value("ms");
  json.key("traceEvents").begin_array();
  for (const Event& event : events_) {
    json.begin_object();
    json.key("name").value(event.name);
    json.key("cat").value(event.layer);
    json.key("ph").value("X");
    json.key("pid").value(1);
    json.key("tid").value(1);
    json.key("ts").value(event.start_us);
    json.key("dur").value(event.dur_us);
    json.key("args").begin_object();
    json.key("id").value(static_cast<std::size_t>(event.id));
    json.key("parent").value(static_cast<std::size_t>(event.parent));
    for (const auto& [key, value] : event.args) json.key(key).value(value);
    for (const auto& [key, value] : event.labels) json.key(key).value(value);
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  std::ofstream out(path);
  out << json.str() << '\n';
  return static_cast<bool>(out);
}

}  // namespace perfbench
