// Compile-as-a-service benchmark (DESIGN.md §14): drives N concurrent
// compile sessions against one CheckpointStore under a zipf-weighted
// network mix and measures
//   - cold throughput: empty store, every component built exactly once
//     across all sessions (in-flight dedup),
//   - warm throughput: a fresh CheckpointStore over the same directory
//     (simulated process restart), every component resolved from disk,
//   - determinism: the composed-design fingerprint of every catalog entry
//     is byte-identical for build-pool widths 1, 2 and 8.
//
// Results land in BENCH_service.json (section "service"). Usage:
//   bench_service [--smoke] [--sessions N] [--store DIR] [--out FILE]
// --smoke trims the catalog to the quick networks for CI.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cnn/impl.h"
#include "cnn/model.h"
#include "cnn/zoo.h"
#include "fabric/device.h"
#include "flow/service.h"
#include "flow/store.h"
#include "util/json.h"
#include "util/latch.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace fpgasim;

struct SessionSpec {
  std::string name;
  CnnModel model;
  ModelImpl impl;
  std::vector<std::vector<int>> groups;
};

/// The network mix: each entry is one (model, resource budget) point a
/// client might submit. Zipf rank == catalog order. The `_dsp48` points
/// deliberately leave the zoo configuration: they are the mix's second
/// resource budget for the same networks.
std::vector<SessionSpec> make_catalog(bool smoke) {
  std::vector<SessionSpec> catalog;
  const auto add = [&catalog](std::string name, ZooModel m) {
    catalog.push_back({std::move(name), std::move(m.model), std::move(m.impl),
                       std::move(m.groups)});
  };
  const auto dsp48 = [](const char* model) {
    ZooModel m = load_zoo_model(model);
    m.impl = choose_implementation(m.model, 48, 32);
    return m;
  };
  add("lenet_dsp64", load_zoo_model("lenet"));
  add("resblock_dsp64", load_zoo_model("resblock"));
  add("lenet_dsp48", dsp48("lenet"));
  if (!smoke) {
    add("resblock_dsp48", dsp48("resblock"));
    add("vgg16_dsp384", load_zoo_model("vgg16"));
  }
  return catalog;
}

/// Deterministic zipf(1) assignment of catalog entries to sessions: the
/// classic skew of a compile farm, a few hot networks and a long tail.
std::vector<std::size_t> zipf_assignment(std::size_t sessions, std::size_t catalog,
                                         std::uint64_t seed) {
  std::vector<double> cumulative(catalog, 0.0);
  double total = 0.0;
  for (std::size_t rank = 0; rank < catalog; ++rank) {
    total += 1.0 / static_cast<double>(rank + 1);
    cumulative[rank] = total;
  }
  Rng rng(seed);
  std::vector<std::size_t> out;
  out.reserve(sessions);
  for (std::size_t s = 0; s < sessions; ++s) {
    const double draw = rng.next_double() * total;
    std::size_t pick = catalog - 1;
    for (std::size_t rank = 0; rank < catalog; ++rank) {
      if (draw < cumulative[rank]) {
        pick = rank;
        break;
      }
    }
    out.push_back(pick);
  }
  return out;
}

struct PassResult {
  double wall_seconds = 0.0;
  std::size_t components = 0;
  std::size_t store_hits = 0;
  std::size_t built = 0;
  std::size_t dedup_waits = 0;

  double sessions_per_sec(std::size_t sessions) const {
    return wall_seconds > 0.0 ? static_cast<double>(sessions) / wall_seconds : 0.0;
  }
  double hit_rate() const {
    return components > 0 ? static_cast<double>(store_hits) / static_cast<double>(components)
                          : 0.0;
  }
};

/// Runs every assigned session on its own thread, latch-aligned so they
/// hit the service concurrently, and folds the per-session counters.
PassResult run_pass(CompileService& service, const std::vector<SessionSpec>& catalog,
                    const std::vector<std::size_t>& assignment) {
  PassResult pass;
  std::vector<CompileService::SessionResult> results(assignment.size());
  std::vector<std::string> errors(assignment.size());
  Latch start(assignment.size() + 1);
  std::vector<std::thread> threads;
  threads.reserve(assignment.size());
  for (std::size_t s = 0; s < assignment.size(); ++s) {
    threads.emplace_back([&, s] {
      start.arrive_and_wait();
      const SessionSpec& spec = catalog[assignment[s]];
      try {
        results[s] = service.compile(spec.model, spec.impl, spec.groups);
      } catch (const std::exception& e) {
        errors[s] = e.what();
      }
    });
  }
  Stopwatch wall;
  start.arrive_and_wait();
  for (std::thread& t : threads) t.join();
  pass.wall_seconds = wall.seconds();
  for (std::size_t s = 0; s < assignment.size(); ++s) {
    if (!errors[s].empty()) {
      throw std::runtime_error("session " + std::to_string(s) + " (" +
                               catalog[assignment[s]].name + ") failed: " + errors[s]);
    }
    pass.components += results[s].components;
    pass.store_hits += results[s].store_hits;
    pass.built += results[s].built;
    pass.dedup_waits += results[s].dedup_waits;
  }
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::size_t sessions = 8;
  std::string store_dir;
  std::string out_path = "BENCH_service.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--sessions" && i + 1 < argc) {
      sessions = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (arg == "--store" && i + 1 < argc) {
      store_dir = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_service [--smoke] [--sessions N] [--store DIR] "
                   "[--out FILE]\n");
      return 2;
    }
  }
  if (store_dir.empty()) {
    store_dir = (std::filesystem::temp_directory_path() / "fpgasim-bench-store").string();
    std::filesystem::remove_all(store_dir);
  }

  const Device device = make_xcku5p_sim();
  const std::vector<SessionSpec> catalog = make_catalog(smoke);
  const std::vector<std::size_t> assignment = zipf_assignment(sessions, catalog.size(), 42);
  std::map<std::string, std::size_t> mix;
  for (std::size_t pick : assignment) ++mix[catalog[pick].name];
  std::printf("bench_service: %zu sessions over %zu networks (zipf mix:", sessions,
              catalog.size());
  for (const auto& [name, count] : mix) std::printf(" %s x%zu", name.c_str(), count);
  std::printf(")\n");

  // Cold: empty directory, every unique component is built exactly once
  // across all concurrent sessions.
  StoreOptions store_opt;
  store_opt.dir = store_dir;
  PassResult cold;
  {
    CheckpointStore store(store_opt);
    CompileService service(device, store);
    cold = run_pass(service, catalog, assignment);
  }
  std::printf("cold: %zu sessions in %.2fs (%.2f/s) | %zu components, %zu built, "
              "%zu store hits, %zu dedup waits\n",
              sessions, cold.wall_seconds, cold.sessions_per_sec(sessions),
              cold.components, cold.built, cold.store_hits, cold.dedup_waits);

  // Warm: a fresh CheckpointStore over the same directory simulates a
  // process restart — the cache is empty, the disk is not.
  PassResult warm;
  {
    CheckpointStore store(store_opt);
    CompileService service(device, store);
    warm = run_pass(service, catalog, assignment);
  }
  std::printf("warm: %zu sessions in %.2fs (%.2f/s) | hit rate %.3f, %zu built\n",
              sessions, warm.wall_seconds, warm.sessions_per_sec(sessions),
              warm.hit_rate(), warm.built);
  const double speedup =
      warm.wall_seconds > 0.0 ? cold.wall_seconds / warm.wall_seconds : 0.0;
  std::printf("warm/cold speedup: %.2fx\n", speedup);

  // Determinism: every catalog entry composed at build-pool widths 1, 2
  // and 8 (each width on its own fresh store) must fingerprint equal.
  const std::vector<std::size_t> widths{1, 2, 8};
  std::vector<std::map<std::string, std::string>> prints(widths.size());
  for (std::size_t w = 0; w < widths.size(); ++w) {
    const std::string width_dir = store_dir + "-w" + std::to_string(widths[w]);
    std::filesystem::remove_all(width_dir);
    StoreOptions width_store_opt;
    width_store_opt.dir = width_dir;
    CheckpointStore store(width_store_opt);
    ThreadPool pool(widths[w]);
    ServiceOptions service_opt;
    service_opt.pool = &pool;
    CompileService service(device, store, service_opt);
    for (const SessionSpec& spec : catalog) {
      const auto result = service.compile(spec.model, spec.impl, spec.groups);
      prints[w][spec.name] = design_fingerprint(result.design);
    }
    std::filesystem::remove_all(width_dir);
  }
  bool identical = true;
  for (std::size_t w = 1; w < widths.size(); ++w) identical &= prints[w] == prints[0];
  std::printf("width determinism (1 vs 2 vs 8): %s\n", identical ? "byte-identical"
                                                                 : "DIVERGED");
  for (const auto& [name, print] : prints[0]) {
    std::printf("  %-16s %s\n", name.c_str(), print.c_str());
  }

  JsonWriter json;
  json.begin_object();
  json.key("mode").value(smoke ? "smoke" : "full");
  json.key("sessions").value(sessions);
  json.key("catalog").begin_array();
  for (const SessionSpec& spec : catalog) json.value(spec.name);
  json.end_array();
  json.key("zipf_mix").begin_object();
  for (const auto& [name, count] : mix) json.key(name).value(count);
  json.end_object();
  const auto emit_pass = [&json, sessions](const char* key, const PassResult& pass) {
    json.key(key).begin_object();
    json.key("wall_seconds").value(pass.wall_seconds);
    json.key("sessions_per_sec").value(pass.sessions_per_sec(sessions));
    json.key("components").value(pass.components);
    json.key("store_hits").value(pass.store_hits);
    json.key("built").value(pass.built);
    json.key("dedup_waits").value(pass.dedup_waits);
    json.key("hit_rate").value(pass.hit_rate());
    json.end_object();
  };
  emit_pass("cold", cold);
  emit_pass("warm", warm);
  json.key("warm_hit_rate").value(warm.hit_rate());
  json.key("warm_speedup").value(speedup);
  json.key("inflight_dedup_waits").value(cold.dedup_waits);
  json.key("widths").begin_array();
  for (std::size_t width : widths) json.value(width);
  json.end_array();
  json.key("identical_widths").value(identical);
  json.key("fingerprints").begin_object();
  for (const auto& [name, print] : prints[0]) json.key(name).value(print);
  json.end_object();
  json.end_object();
  if (!update_json_file(out_path, "service", json.str())) {
    std::fprintf(stderr, "bench_service: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());

  const bool ok = identical && warm.built == 0 && warm.hit_rate() >= 0.9;
  if (!ok) std::fprintf(stderr, "bench_service: FAIL (see numbers above)\n");
  return ok ? 0 : 1;
}
