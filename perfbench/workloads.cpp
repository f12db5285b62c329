#include "workloads.h"

#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "cnn/impl.h"
#include "cnn/model.h"
#include "cnn/zoo.h"
#include "fabric/device.h"
#include "flow/build.h"
#include "flow/monolithic.h"
#include "flow/service.h"
#include "flow/store.h"
#include "sim/compiled.h"
#include "sim/engine/engine.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace perfbench {

using namespace fpgasim;

namespace {

constexpr std::size_t kLanes = SimPlan::kLanes;

/// Minimum passes per run, so a median exists even when one pass outlasts
/// the measuring window.
constexpr std::size_t kMinPasses = 3;

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 3;

/// One model's canonical configuration, taken from its ZooEntry: the
/// implementation comes from the entry's DSP budget and tile cap, the
/// grouping from default_grouping(), and the weight seed base is the
/// library default every flow and reference_inference use.
struct ModelConfig {
  std::string name;
  CnnModel model;
  ModelImpl impl;
  std::vector<std::vector<int>> groups;
  std::uint64_t seed_base = 1000;
};

ModelConfig canonical_config(const ZooEntry& entry) {
  ModelConfig cfg;
  cfg.name = entry.name;
  cfg.model = entry.make();
  cfg.impl = choose_implementation(cfg.model, entry.dsp_budget, entry.max_tile);
  cfg.groups = default_grouping(cfg.model);
  return cfg;
}

/// Zoo models selected by `keep`, in zoo order.
std::vector<ModelConfig> zoo_configs(bool (*keep)(const char* name)) {
  std::vector<ModelConfig> configs;
  for (const ZooEntry& entry : model_zoo()) {
    if (keep(entry.name)) configs.push_back(canonical_config(entry));
  }
  return configs;
}

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double geomean(const std::vector<double>& values) {
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return values.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(values.size()));
}

/// Runs passes until the measuring window has elapsed (and at least
/// kMinPasses ran). `pass(index, traced)` runs one pass.
template <typename PassFn>
void measure(Run& run, PassFn&& pass) {
  Stopwatch window;
  for (std::size_t i = 0; i < kMinPasses || window.seconds() < run.options().seconds; ++i) {
    const bool traced = run.traced_pass(i);
    run.tracer().set_enabled(traced);
    pass(i, traced);
  }
  run.tracer().set_enabled(false);
}

/// A set-up repetition inside a root "setup" span (traced runs only).
template <typename SetupFn>
void setup_reps(Run& run, SetupFn&& setup) {
  for (int rep = 0; rep < kSetupReps; ++rep) {
    run.tracer().set_enabled(run.options().trace);
    Tracer::Span span(run.tracer(), "bench", "setup");
    span.attr("rep", rep);
    Stopwatch watch;
    setup();
    run.add_setup(watch.seconds());
  }
  run.tracer().set_enabled(false);
}

// -- flow/service --------------------------------------------------------------

/// One CompileService session inside a flow/service span; the session's
/// own stage breakdown (SessionResult, PreImplReport) rides on the span.
/// Counts the session as one operation: it fails when it throws, is not
/// DRC-clean, builds a component although `warm`, or its deterministic
/// results differ from an earlier pin.
bool compile_model(Run& run, CompileService& service, const ModelConfig& cfg,
                   CompileService::SessionResult& out, bool warm = false) {
  Tracer::Span span(run.tracer(), "flow/service", "CompileService::compile");
  span.label("model", cfg.name);
  try {
    out = service.compile(cfg.model, cfg.impl, cfg.groups, {}, cfg.seed_base);
  } catch (const std::exception& e) {
    run.op(false);
    return run.fail(cfg.name + ": compile session threw: " + e.what());
  }
  const PreImplReport& rep = out.report;
  span.stage("service.ensure_s", out.ensure_seconds)
      .stage("service.flow_s", out.flow_seconds)
      .attr("ooc.function_opt_s", out.built > 0 ? rep.function_opt_seconds : 0.0)
      .attr("service.built", static_cast<double>(out.built))
      .attr("service.dedup_waits", static_cast<double>(out.dedup_waits))
      .attr("service.store_hits", static_cast<double>(out.store_hits))
      .attr("service.components", static_cast<double>(out.components))
      .attr("preimpl.stitch_s", rep.stitch_seconds)
      .attr("preimpl.place_s", rep.place_seconds)
      .attr("preimpl.route_s", rep.route_seconds)
      .attr("preimpl.sta_s", rep.sta_seconds)
      .attr("preimpl.drc_s", rep.drc_seconds)
      .attr("preimpl.self_s", rep.total_seconds - rep.stitch_seconds - rep.place_seconds -
                                  rep.route_seconds - rep.sta_seconds - rep.drc_seconds)
      .attr("place.cost_evals", static_cast<double>(rep.macro.stats.cost_evals))
      .attr("place.backtracks", rep.macro.backtracks)
      .attr("route.iterations", rep.route.iterations)
      .attr("route.nets_routed", static_cast<double>(rep.route.nets_routed))
      .attr("route.wirelength", rep.route.total_wirelength)
      .attr("design.cells", static_cast<double>(rep.stats.cells))
      .self_time("service.self_s");

  const std::string fingerprint = design_fingerprint(out.design);
  bool ok = rep.drc.clean() || run.fail(cfg.name + ": composed design is not DRC-clean");
  if (warm && out.built != 0) {
    ok = run.fail(cfg.name + ": warm compile built " + std::to_string(out.built) +
                  " components");
  }
  const std::string key = "model." + cfg.name + ".";
  ok &= run.pin(key + "fingerprint", fingerprint);
  ok &= run.pin(key + "cells", std::to_string(rep.stats.cells));
  ok &= run.pin(key + "components", std::to_string(out.components));
  ok &= run.pin(key + "fmax_mhz", exact(rep.timing.fmax_mhz));
  ok &= run.pin(key + "route.iterations", std::to_string(rep.route.iterations));
  ok &= run.pin(key + "route.wirelength", exact(rep.route.total_wirelength));
  ok &= run.pin(key + "place.cost_evals", std::to_string(rep.macro.stats.cost_evals));
  run.model_value(cfg.name, "fingerprint", fingerprint);
  run.model_value(cfg.name, "cells", std::to_string(rep.stats.cells));
  run.model_value(cfg.name, "components", std::to_string(out.components));
  run.model_value(cfg.name, "fmax_mhz", exact(rep.timing.fmax_mhz));
  run.op(ok);
  return ok;
}

/// Compiles every config on a fresh service over `store`; returns the wall
/// time. `warm` expects every component to come from the store.
double compile_all(Run& run, const Device& device, CheckpointStore& store,
                   const std::vector<ModelConfig>& configs, bool warm = false) {
  ServiceOptions service_opt;
  service_opt.pool = &ThreadPool::global();
  CompileService service(device, store, service_opt);
  Stopwatch watch;
  for (const ModelConfig& cfg : configs) {
    CompileService::SessionResult result;
    compile_model(run, service, cfg, result, warm);
  }
  return watch.seconds();
}

/// A store on `dir` ("" = memory-only), opened inside a flow/store span.
std::unique_ptr<CheckpointStore> open_store(Run& run, const std::string& dir) {
  Tracer::Span span(run.tracer(), "flow/store", "CheckpointStore::CheckpointStore");
  StoreOptions opt;
  opt.dir = dir;
  return std::make_unique<CheckpointStore>(opt);
}

void record_store_stats(Run& run, const CheckpointStore& store) {
  Tracer::Span span(run.tracer(), "flow/store", "CheckpointStore::stats");
  const StoreStats stats = store.stats();
  span.attr("store.disk_loads", static_cast<double>(stats.disk_loads))
      .attr("store.hits", static_cast<double>(stats.hits))
      .attr("store.misses", static_cast<double>(stats.misses));
}

// -- flow/monolithic -------------------------------------------------------------

/// The classic flow on one model: flat synthesis, then run_monolithic_flow.
/// One operation; fails when either call throws or the result is not
/// DRC-clean or not deterministic.
void classic_compile(Run& run, const Device& device, const ModelConfig& cfg) {
  try {
    Netlist flat;
    {
      Tracer::Span span(run.tracer(), "synth", "build_flat_netlist");
      span.label("model", cfg.name);
      Stopwatch watch;
      flat = build_flat_netlist(cfg.model, cfg.impl, cfg.groups, cfg.seed_base);
      span.attr("synth.flat_netlist_s", watch.seconds());
    }
    PhysState phys;
    Tracer::Span span(run.tracer(), "flow/monolithic", "run_monolithic_flow");
    span.label("model", cfg.name);
    const MonoReport rep = run_monolithic_flow(device, flat, phys);
    span.stage("mono.cluster_s", rep.cluster_seconds)
        .stage("mono.place_s", rep.place_seconds)
        .stage("mono.route_s", rep.route_seconds)
        .stage("mono.phys_opt_s", rep.phys_opt_seconds)
        .stage("mono.sta_s", rep.sta_seconds)
        .stage("mono.drc_s", rep.drc_seconds)
        .attr("route.iterations", rep.route.iterations)
        .attr("route.nets_routed", static_cast<double>(rep.route.nets_routed))
        .attr("route.wirelength", rep.route.total_wirelength)
        .attr("design.cells", static_cast<double>(rep.stats.cells))
        .self_time("mono.self_s");
    bool ok = rep.drc.clean() || run.fail(cfg.name + ": classic design is not DRC-clean");
    const std::string key = "classic." + cfg.name + ".";
    ok &= run.pin(key + "cells", std::to_string(rep.stats.cells));
    ok &= run.pin(key + "fmax_mhz", exact(rep.timing.fmax_mhz));
    ok &= run.pin(key + "route.iterations", std::to_string(rep.route.iterations));
    ok &= run.pin(key + "route.wirelength", exact(rep.route.total_wirelength));
    run.model_value(cfg.name, "classic_fmax_mhz", exact(rep.timing.fmax_mhz));
    run.op(ok);
  } catch (const std::exception& e) {
    run.op(false);
    run.fail(cfg.name + ": classic flow threw: " + e.what());
  }
}

bool any_model(const char*) { return true; }
bool not_vgg16(const char* name) { return std::string(name) != "vgg16"; }
bool only_vgg16(const char* name) { return std::string(name) == "vgg16"; }

// -- sim/compiled: streaming real images ---------------------------------------------

struct StreamPorts {
  int in_data, in_valid, out_ready, in_ready, out_valid, out_data;

  explicit StreamPorts(const SimPlan& plan)
      : in_data(plan.input_index("in_data")),
        in_valid(plan.input_index("in_valid")),
        out_ready(plan.input_index("out_ready")),
        in_ready(plan.output_index("in_ready")),
        out_valid(plan.output_index("out_valid")),
        out_data(plan.output_index("out_data")) {}
};

/// One model of infer_images: its plan, one context per pool worker, 64
/// seeded input tensors (one per lane, stored word-major) and their golden
/// outputs.
struct ImageModel {
  ModelConfig cfg;
  CompileService::SessionResult compiled;
  std::shared_ptr<const SimPlan> plan;
  std::vector<std::unique_ptr<SimContext>> contexts;
  std::vector<std::array<std::uint64_t, kLanes>> words;  // words[i][lane]
  std::vector<std::vector<Fixed16>> expected;             // per lane
};

struct StreamOutcome {
  std::uint64_t cycles = 0;          // cycles stepped for the batch
  std::uint64_t latency_cycles = 0;  // first input word to last output word
  std::uint64_t stalled = 0;         // lanes whose in_ready dropped mid-image
  std::vector<std::vector<std::int16_t>> out;
};

/// Streams one image per lane through the composed design with the
/// valid/ready protocol (out_ready held high) and collects every lane's
/// output words. All lanes run the same data-independent handshake, so one
/// pass over the input words feeds every lane.
StreamOutcome stream_images(SimContext& ctx, const StreamPorts& p,
                            const std::vector<std::array<std::uint64_t, kLanes>>& words,
                            std::size_t out_words) {
  constexpr long kDrainGuard = 500000;
  StreamOutcome r;
  r.out.assign(kLanes, {});
  std::array<std::uint64_t, kLanes> lanes{}, data{};
  std::size_t complete = 0;
  const auto collect = [&] {
    ctx.get_outputs(p.out_valid, lanes);
    bool any = false;
    for (const std::uint64_t v : lanes) any |= (v & 1) != 0;
    if (!any) return;
    ctx.get_outputs(p.out_data, data);
    for (std::size_t l = 0; l < kLanes; ++l) {
      if ((lanes[l] & 1) == 0) continue;
      r.out[l].push_back(static_cast<std::int16_t>(static_cast<std::uint16_t>(data[l])));
      if (r.out[l].size() == out_words) ++complete;
    }
  };
  const std::uint64_t begin = ctx.cycle();
  ctx.set_inputs(p.out_ready, std::uint64_t{1});
  ctx.set_inputs(p.in_valid, std::uint64_t{1});
  // A component may need a few cycles to reach its LOAD state.
  for (int spin = 0; spin < 64 && ctx.get_output(p.in_ready, 0) != 1; ++spin) {
    ctx.step();
  }
  const std::uint64_t first_word = ctx.cycle();
  for (const auto& word : words) {
    ctx.get_outputs(p.in_ready, lanes);
    for (std::size_t l = 0; l < kLanes; ++l) {
      if ((lanes[l] & 1) == 0) r.stalled |= std::uint64_t{1} << l;
    }
    ctx.set_inputs(p.in_data, word);
    ctx.step();
    collect();
  }
  ctx.set_inputs(p.in_valid, std::uint64_t{0});
  for (long guard = 0; complete < kLanes && guard < kDrainGuard; ++guard) {
    ctx.step();
    collect();
  }
  r.latency_cycles = ctx.cycle() - first_word;
  r.cycles = ctx.cycle() - begin;
  return r;
}

void build_image_model(Run& run, ImageModel& m, std::size_t model_index) {
  {
    Tracer::Span span(run.tracer(), "sim/compiled", "SimPlan::compile");
    span.label("model", m.cfg.name);
    Stopwatch watch;
    m.plan = SimPlan::compile(m.compiled.design.netlist);
    span.attr("sim.plan_compile_s", watch.seconds());
  }
  m.contexts.clear();
  for (std::size_t c = 0; c < ThreadPool::global().size(); ++c) {
    m.contexts.push_back(std::make_unique<SimContext>(m.plan));
  }

  const Shape shape = m.cfg.model.layers().front().out_shape;
  std::vector<Tensor> images;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    Rng rng(splitmix(splitmix(run.options().seed) ^ (model_index * kLanes + lane)));
    Tensor t = Tensor::zeros(shape.c, shape.h, shape.w);
    for (Fixed16& v : t.data) {
      v = Fixed16::from_raw(static_cast<std::int32_t>(rng.next_int(-50, 50)));
    }
    images.push_back(std::move(t));
  }
  m.words.assign(images.front().data.size(), {});
  for (std::size_t i = 0; i < m.words.size(); ++i) {
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      m.words[i][lane] = static_cast<std::uint16_t>(images[lane].data[i].raw);
    }
  }
  Tracer::Span span(run.tracer(), "sim/golden", "reference_inference");
  span.label("model", m.cfg.name).attr("calls", static_cast<double>(kLanes));
  Stopwatch watch;
  m.expected.clear();
  for (const Tensor& image : images) {
    m.expected.push_back(reference_inference(m.cfg.model, image, m.cfg.seed_base));
  }
  span.attr("golden.reference_s", watch.seconds());
}

struct BatchTiming {
  double seconds = 0.0;       // mean over contexts of reset + stream wall time
  double images_per_s = 0.0;  // summed over the contexts
  double lane_cycles = 0.0;
};

/// Resets every context and streams the model's 64 images once on it, the
/// contexts in parallel on the pool (one per worker, so host contention on
/// any one core averages out). A context's batch time is the wall time of
/// its reset() plus its stream. Each lane's image on each context is one
/// operation.
BatchTiming run_image_batch(Run& run, ImageModel& m, Run::Values& values) {
  const StreamPorts ports(*m.plan);
  const std::size_t out_words = m.expected.front().size();
  const std::size_t contexts = m.contexts.size();
  Tracer::Span span(run.tracer(), "sim/compiled", "stream 64 images per context");
  span.label("model", m.cfg.name).attr("contexts", static_cast<double>(contexts));
  std::vector<StreamOutcome> outcomes(contexts);
  std::vector<double> reset_s(contexts), stream_s(contexts);
  parallel_for(
      0, contexts,
      [&](std::size_t c) {
        Stopwatch watch;
        m.contexts[c]->reset();
        reset_s[c] = watch.seconds();
        watch.restart();
        outcomes[c] = stream_images(*m.contexts[c], ports, m.words, out_words);
        stream_s[c] = watch.seconds();
      },
      &ThreadPool::global());

  BatchTiming timing;
  double cycles = 0.0, reset_total = 0.0, stream_total = 0.0;
  for (std::size_t c = 0; c < contexts; ++c) {
    const StreamOutcome& r = outcomes[c];
    const double batch_s = reset_s[c] + stream_s[c];
    timing.seconds += batch_s / static_cast<double>(contexts);
    timing.images_per_s += static_cast<double>(kLanes) / batch_s;
    timing.lane_cycles += static_cast<double>(r.cycles * kLanes);
    cycles += static_cast<double>(r.cycles);
    reset_total += reset_s[c];
    stream_total += stream_s[c];

    bool latency_ok = run.pin("infer." + m.cfg.name + ".latency_cycles",
                              std::to_string(r.latency_cycles));
    run.model_value(m.cfg.name, "latency_cycles", std::to_string(r.latency_cycles));
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      const std::string where =
          m.cfg.name + " context " + std::to_string(c) + " lane " + std::to_string(lane);
      bool ok = latency_ok;
      if ((r.stalled >> lane) & 1) ok = run.fail(where + ": in_ready stalled");
      const std::vector<Fixed16>& want = m.expected[lane];
      bool exact_match = r.out[lane].size() == want.size();
      for (std::size_t i = 0; exact_match && i < want.size(); ++i) {
        exact_match = r.out[lane][i] == want[i].raw;
      }
      if (!exact_match) {
        ok = run.fail(where + ": " + std::to_string(r.out[lane].size()) +
                      " output words, not bit-exact against " + std::to_string(want.size()) +
                      " golden words");
      }
      run.op(ok);
    }
  }
  span.attr("sim.cycles", cycles)
      .attr("sim.stream_s", stream_total)
      .attr("sim.reset_s", reset_total);
  values.emplace_back("images_per_s." + m.cfg.name, timing.images_per_s);
  return timing;
}

void record_plan_shape(Run& run, const SimPlan& plan, const std::string& model,
                       std::size_t contexts) {
  run.model_value(model, "comb_ops", std::to_string(plan.comb_ops()));
  run.model_value(model, "seq_ops", std::to_string(plan.seq_ops()));
  run.model_value(model, "levels", std::to_string(plan.levels()));
  run.model_value(model, "context_mb",
                  exact(static_cast<double>(plan.context_words() * plan.lane_bytes() *
                                            contexts) / 1e6));
}

}  // namespace

// -- Run ----------------------------------------------------------------------------

bool Run::fail(std::string why) {
  if (failures_.size() < 64) {
    std::fprintf(stderr, "perfbench: FAILURE: %s\n", why.c_str());
    failures_.push_back(std::move(why));
  }
  return false;
}

bool Run::pin(const std::string& key, const std::string& value, bool seeded) {
  auto& pins = seeded ? seeded_pins_ : pins_;
  const auto [it, inserted] = pins.emplace(key, value);
  if (inserted || it->second == value) return true;
  return fail("deterministic value '" + key + "' changed: " + it->second + " -> " + value);
}

void Run::corrupt_pin(const std::string& key) {
  for (auto* pins : {&pins_, &seeded_pins_}) {
    if (const auto it = pins->find(key); it != pins->end()) it->second = "corrupted";
  }
}

void Run::model_value(const std::string& model, const std::string& key,
                      const std::string& value) {
  models_[model][key] = value;
}

std::string Run::json(double peak_rss_mb) const {
  JsonWriter json;
  json.begin_object();
  json.key("workload").value(opt_.workload);
  json.key("seed").value(static_cast<std::size_t>(opt_.seed));
  json.key("trace").value(opt_.trace);
  json.key("attempted").value(static_cast<std::size_t>(attempted_));
  json.key("failed").value(static_cast<std::size_t>(failed_));
  json.key("failures").begin_array();
  for (const std::string& f : failures_) json.value(f);
  json.end_array();
  json.key("host").begin_object();
  json.key("hardware_threads").value(static_cast<std::size_t>(std::thread::hardware_concurrency()));
  json.key("pool_width").value(ThreadPool::global().size());
  json.key("build_type").value(PERFBENCH_BUILD_TYPE);
  json.key("compiler").value(PERFBENCH_COMPILER);
  json.end_object();
  json.key("peak_rss_mb").value(peak_rss_mb);
  json.key("setup_s").begin_array();
  for (const double s : setup_s_) json.value(s);
  json.end_array();
  json.key("setup_values").begin_object();
  for (const auto& [key, samples] : setup_values_) {
    json.key(key).begin_array();
    for (const double s : samples) json.value(s);
    json.end_array();
  }
  json.end_object();
  json.key("passes").begin_array();
  for (const Pass& pass : passes_) {
    json.begin_object();
    json.key("traced").value(pass.traced);
    for (const auto& [key, value] : pass.values) json.key(key).value(value);
    json.end_object();
  }
  json.end_array();
  json.key("models").begin_object();
  for (const auto& [model, fields] : models_) {
    json.key(model).begin_object();
    for (const auto& [key, value] : fields) json.key(key).value(value);
    json.end_object();
  }
  json.end_object();
  json.key("pins").begin_object();
  for (const auto& [key, value] : pins_) json.key(key).value(value);
  json.end_object();
  json.key("seeded_pins").begin_object();
  for (const auto& [key, value] : seeded_pins_) json.key(key).value(value);
  json.end_object();
  json.end_object();
  return json.str();
}

// -- workloads ------------------------------------------------------------------------

void run_compile_cold(Run& run) {
  std::unique_ptr<Device> device;
  std::vector<ModelConfig> configs;
  // Set-up includes one cold compile of the zoo, so the one-time costs of
  // a process's first compile (pool start-up, allocator growth) are paid
  // before the measured passes.
  setup_reps(run, [&] {
    device = std::make_unique<Device>(make_xcku5p_sim());
    configs = zoo_configs(any_model);
    const auto store = open_store(run, "");
    run.add_setup_value("compile_s", compile_all(run, *device, *store, configs));
  });

  measure(run, [&](std::size_t index, bool traced) {
    Tracer::Span span(run.tracer(), "bench", "pass");
    span.attr("pass", static_cast<double>(index));
    Stopwatch watch;
    const auto store = open_store(run, "");
    const double compile_s = compile_all(run, *device, *store, configs);
    record_store_stats(run, *store);
    Stopwatch classic;
    for (const ModelConfig& cfg : configs) classic_compile(run, *device, cfg);
    const double classic_s = classic.seconds();
    run.add_pass(traced, {{"compile_s", compile_s},
                          {"classic_compile_s", classic_s},
                          {"pass_s", watch.seconds()}});
  });
}

void run_compile_warm(Run& run) {
  const std::string dir = run.options().work_dir + "/store";
  std::unique_ptr<Device> device;
  std::vector<ModelConfig> configs;
  // Set-up fills the on-disk store with a cold compile of the zoo.
  setup_reps(run, [&] {
    std::filesystem::remove_all(dir);
    device = std::make_unique<Device>(make_xcku5p_sim());
    configs = zoo_configs(any_model);
    const auto store = open_store(run, dir);
    run.add_setup_value("compile_s", compile_all(run, *device, *store, configs));
  });
  if (run.options().inject == "fingerprint" && !configs.empty()) {
    run.corrupt_pin("model." + configs.front().name + ".fingerprint");
  }

  measure(run, [&](std::size_t index, bool traced) {
    Tracer::Span span(run.tracer(), "bench", "pass");
    span.attr("pass", static_cast<double>(index));
    // A fresh store on the populated directory: a process restart.
    Stopwatch watch;
    const auto store = open_store(run, dir);
    compile_all(run, *device, *store, configs, /*warm=*/true);
    const double compile_s = watch.seconds();
    record_store_stats(run, *store);
    run.add_pass(traced, {{"compile_s", compile_s}, {"pass_s", compile_s}});
  });
  std::filesystem::remove_all(dir);
}

void run_infer_images(Run& run) {
  std::unique_ptr<Device> device;
  std::vector<ImageModel> models;
  setup_reps(run, [&] {
    models.clear();
    device = std::make_unique<Device>(make_xcku5p_sim());
    for (ModelConfig& cfg : zoo_configs(not_vgg16)) {
      models.push_back({});
      models.back().cfg = std::move(cfg);
    }
    const auto store = open_store(run, "");
    ServiceOptions service_opt;
    service_opt.pool = &ThreadPool::global();
    CompileService service(*device, *store, service_opt);
    Stopwatch compile;
    for (ImageModel& m : models) compile_model(run, service, m.cfg, m.compiled);
    run.add_setup_value("compile_s", compile.seconds());
    for (std::size_t i = 0; i < models.size(); ++i) build_image_model(run, models[i], i);
  });
  for (const ImageModel& m : models) {
    record_plan_shape(run, *m.plan, m.cfg.name, m.contexts.size());
  }
  if (run.options().inject == "corrupt-word" && !models.empty()) {
    models.front().expected.front().front().raw ^= 1;
  }

  measure(run, [&](std::size_t index, bool traced) {
    Tracer::Span span(run.tracer(), "bench", "pass");
    span.attr("pass", static_cast<double>(index));
    Run::Values values;
    std::vector<double> batch_s, images_per_s;
    double lane_cycles = 0.0, seconds = 0.0;
    for (ImageModel& m : models) {
      const BatchTiming batch = run_image_batch(run, m, values);
      batch_s.push_back(batch.seconds);
      images_per_s.push_back(batch.images_per_s);
      lane_cycles += batch.lane_cycles;
      seconds += batch.seconds;
    }
    values.emplace_back("pass_s", geomean(batch_s));
    values.emplace_back("images_per_s", geomean(images_per_s));
    values.emplace_back("lane_cycles_per_s", lane_cycles / seconds);
    run.add_pass(traced, std::move(values));
  });
}

void run_soak_vgg16(Run& run) {
  constexpr std::uint64_t kVectorsPerPass = 64 * 32 * kLanes;  // 64 default batches
  std::unique_ptr<Device> device;
  std::vector<ModelConfig> configs;
  CompileService::SessionResult compiled;
  std::shared_ptr<const SimPlan> plan;
  std::unique_ptr<InferenceEngine> engine;
  setup_reps(run, [&] {
    engine.reset();
    plan.reset();
    device = std::make_unique<Device>(make_xcku5p_sim());
    configs = zoo_configs(only_vgg16);
    if (configs.empty()) throw std::runtime_error("soak_vgg16: vgg16 is not in the zoo");
    const auto store = open_store(run, "");
    ServiceOptions service_opt;
    service_opt.pool = &ThreadPool::global();
    CompileService service(*device, *store, service_opt);
    Stopwatch compile;
    if (!compile_model(run, service, configs.front(), compiled)) {
      throw std::runtime_error("soak_vgg16: " + configs.front().name + " did not compile");
    }
    run.add_setup_value("compile_s", compile.seconds());
    {
      Tracer::Span span(run.tracer(), "sim/compiled", "SimPlan::compile");
      Stopwatch watch;
      plan = SimPlan::compile(compiled.design.netlist);
      span.attr("sim.plan_compile_s", watch.seconds());
    }
    Tracer::Span span(run.tracer(), "sim/engine", "InferenceEngine::InferenceEngine");
    EngineOptions opt;
    opt.seed = run.options().seed;
    engine = std::make_unique<InferenceEngine>(compiled.design.netlist, plan, opt,
                                               &ThreadPool::global());
  });
  const std::string& name = configs.front().name;
  record_plan_shape(run, *plan, name, engine->context_count());

  // EngineStats::resets counts every reset since the engine was built.
  std::size_t resets_before = 0;
  measure(run, [&](std::size_t index, bool traced) {
    Tracer::Span span(run.tracer(), "bench", "pass");
    span.attr("pass", static_cast<double>(index));
    Tracer::Span serve(run.tracer(), "sim/engine", "InferenceEngine::serve");
    Stopwatch watch;
    const EngineStats stats = engine->serve(kVectorsPerPass);
    const double seconds = watch.seconds();
    serve.stage("engine.serve_s", stats.wall_seconds)
        .attr("engine.batches", static_cast<double>(stats.batches))
        .attr("engine.resets", static_cast<double>(stats.resets - resets_before))
        .attr("engine.oracle_checks", static_cast<double>(stats.oracle_checks))
        .attr("engine.oracle_failures", static_cast<double>(stats.oracle_failures))
        .attr("sim.cycles", static_cast<double>(stats.lane_cycles / kLanes))
        .self_time("engine.self_s");
    resets_before = stats.resets;
    bool ok = stats.ok() || run.fail(name + ": engine oracle failures: " +
                                     std::to_string(stats.oracle_failures) + " (" +
                                     stats.first_failure + ")");
    ok &= run.pin("engine." + name + ".fingerprint", hex64(stats.fingerprint()), true);
    ok &= run.pin("engine." + name + ".checksum", hex64(stats.checksum), true);
    run.op(ok);
    run.add_pass(traced, {{"pass_s", seconds},
                          {"lane_cycles_per_s", static_cast<double>(stats.lane_cycles) / seconds}});
  });

  if (!run.options().trace) return;
  // Derived reset share: single-context reset() and 32 step() calls on the
  // engine's plan, measured after the engine (and its contexts) is gone.
  engine.reset();
  run.tracer().set_enabled(true);
  SimContext probe(plan);
  EngineOptions defaults;
  Rng rng(splitmix(run.options().seed));
  std::vector<std::uint64_t> frame(plan->input_count() * kLanes);
  for (int rep = 0; rep < 5; ++rep) {
    Tracer::Span root(run.tracer(), "bench", "probe");
    root.attr("rep", rep);
    double reset_s = 0.0;
    {
      Tracer::Span span(run.tracer(), "sim/compiled", "SimContext::reset");
      Stopwatch watch;
      probe.reset();
      reset_s = watch.seconds();
      span.attr("sim.reset_s", reset_s);
    }
    Tracer::Span span(run.tracer(), "sim/compiled", "SimContext::step");
    Stopwatch watch;
    for (int c = 0; c < defaults.cycles_per_batch; ++c) {
      for (std::uint64_t& word : frame) word = rng();
      probe.set_input_frame(frame);
      probe.step();
    }
    const double step_s = watch.seconds();
    span.attr("sim.cycles", defaults.cycles_per_batch)
        .attr("sim.stream_s", step_s)
        .attr("engine.reset_share", reset_s / (reset_s + step_s))
        .label("derived", "single-context reset() vs cycles_per_batch step() on the engine plan");
  }
}

}  // namespace perfbench
