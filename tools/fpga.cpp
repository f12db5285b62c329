// fpga: one command-line front end over the flows, the simulators and the
// checkpoint store. Subcommands: lint (netlist design rules), simdiff
// (compiled-vs-interpreter A/B), serve (the inference engine), db (store
// operations) and run (both flows plus one golden inference); `fpga --help`
// lists their flags.
//
// Every `--model NAME` composes a bundled network the same way: its
// load_zoo_model configuration (cnn/zoo.h) and one CompileService session
// over a CheckpointStore(StoreOptions{}).
// `--json` output carries no timing, so it is byte-identical at any
// FPGASIM_THREADS width.
//
// Exit status: 0 = ok, 1 = the check failed (DRC errors, a divergence, an
// oracle failure, a store problem, a golden mismatch or an incomplete
// stream), 2 = usage error (a bad numeric flag included) or a design that
// failed to build/load.
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cnn/impl.h"
#include "cnn/model.h"
#include "cnn/zoo.h"
#include "drc/drc.h"
#include "fabric/device.h"
#include "flow/build.h"
#include "flow/monolithic.h"
#include "flow/preimpl.h"
#include "flow/service.h"
#include "flow/store.h"
#include "netlist/checkpoint.h"
#include "sim/compiled.h"
#include "sim/engine/engine.h"
#include "sim/simulator.h"
#include "sim/stream.h"
#include "util/json.h"

namespace {

using namespace fpgasim;

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: fpga <command> [options]\n"
      "\n"
      "fpga lint [options] [checkpoint.fdcp ...]\n"
      "  runs the netlist-only DRC rules (structural and dataflow stages)\n"
      "  --json           emit a machine-readable JSON report on stdout\n"
      "  --waive RULE     waive a rule id (repeatable); waived findings are\n"
      "                   reported but never fail the run\n"
      "  --model NAME     check the composed design of a bundled network\n"
      "  --rules          print the DRC rule table and exit\n"
      "\n"
      "fpga simdiff [options] [checkpoint.fdcp ...]\n"
      "  --model NAME     check a bundled network's composed design\n"
      "  --mono           with --model, also check the monolithic baseline\n"
      "  --cycles N       cycles of random stimulus (default 32)\n"
      "  --vectors N      size the run in inference vectors instead: ceil(N / 64)\n"
      "                   cycles of one 64-lane frame each; overrides --cycles\n"
      "  --seed S         stimulus seed (default 1)\n"
      "  --lanes N        interpreter replays of the 64-lane batch: 0 = all,\n"
      "                   else N evenly spread lanes (default 4, at most 64)\n"
      "\n"
      "fpga serve --model NAME | checkpoint.fdcp [options]\n"
      "  --soak           serve 1,000,000 vectors (overridable by --vectors)\n"
      "  --vectors N      vectors to serve, in whole batches (default 65536)\n"
      "  --cycles C       cycles per batch (default 32)\n"
      "  --check-every K  interpreter A/B audit every Kth shard, 0 = off (default 64)\n"
      "  --seed S         stimulus seed (default 1)\n"
      "  --contexts N     simulation contexts, at most 64 (default: pool width)\n"
      "  --json           deterministic result object on stdout, timing on stderr\n"
      "\n"
      "fpga db [--dir DIR] [--json] <stats | verify | gc --keep-reachable MODELS>\n"
      "  stats            store size, kinds, cache counters\n"
      "  verify           re-hash + checkpoint DRC every entry\n"
      "  gc               drop entries no listed (comma-separated) model needs\n"
      "  --dir DIR        store directory (default: $FPGASIM_STORE_DIR)\n"
      "  --json           machine-readable output (deterministic)\n"
      "\n"
      "fpga run --model NAME\n"
      "  prints the arch-def, runs both DRC-gated flows and streams one seeded\n"
      "  tensor through the composed design against the golden model\n"
      "\n"
      "models: %s\n"
      "exit status: 0 ok, 1 check failed, 2 usage error or build/load failure\n",
      zoo_model_names().c_str());
}

/// -h / --help anywhere a flag may stand.
struct HelpRequested {};

/// Walks the arguments after the subcommand name. The caller matches flags
/// with is(); value flags consume the next argument through text() or
/// number(), which range-checks it, so every bad value names its flag.
class Args {
 public:
  Args(int argc, char** argv) : args_(argv + 2, argv + argc) {}

  bool next() { return ++pos_ < args_.size(); }
  bool is(const char* flag) const { return args_[pos_] == flag; }

  std::string text() {
    if (pos_ + 1 >= args_.size()) {
      throw std::invalid_argument(args_[pos_] + " needs a value");
    }
    ++pos_;
    return args_[pos_];
  }

  template <typename T>
  T number(T min, T max = std::numeric_limits<T>::max()) {
    const std::string flag = args_[pos_];
    const std::string value = text();
    T parsed{};
    const char* end = value.data() + value.size();
    const auto [stop, error] = std::from_chars(value.data(), end, parsed);
    if (value.empty() || error != std::errc{} || stop != end || parsed < min ||
        parsed > max) {
      throw std::invalid_argument(flag + ": expected an integer in [" +
                                  std::to_string(min) + ", " + std::to_string(max) +
                                  "], got '" + value + "'");
    }
    return parsed;
  }

  /// The current argument as a positional operand; anything else that
  /// looks like a flag is unknown here.
  const std::string& positional() const {
    const std::string& arg = args_[pos_];
    if (arg == "-h" || arg == "--help") throw HelpRequested{};
    if (!arg.empty() && arg[0] == '-') {
      throw std::invalid_argument("unknown option '" + arg + "'");
    }
    return arg;
  }

 private:
  std::vector<std::string> args_;
  std::size_t pos_ = static_cast<std::size_t>(-1);
};

CompileService::SessionResult compile(const Device& device, const ZooModel& m) {
  CheckpointStore store(StoreOptions{});
  return CompileService(device, store).compile(m.model, m.impl, m.groups);
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// -- lint ---------------------------------------------------------------------

int cmd_lint(Args& args) {
  bool json = false;
  std::string model_name;
  DrcOptions options;
  std::vector<std::string> paths;
  while (args.next()) {
    if (args.is("--json")) {
      json = true;
    } else if (args.is("--waive")) {
      options.waived_rules.push_back(args.text());
    } else if (args.is("--model")) {
      model_name = args.text();
    } else if (args.is("--rules")) {
      for (const DrcRuleInfo& rule : drc_rules()) {
        std::printf("%-24s %-8s %s\n", rule.id, to_string(rule.severity), rule.what);
      }
      return 0;
    } else {
      paths.push_back(args.positional());
    }
  }
  if (paths.empty() && model_name.empty()) {
    throw std::invalid_argument("nothing to lint: pass --model NAME or checkpoint files");
  }

  int exit_code = 0;
  JsonWriter out;
  if (json) out.begin_array();
  const auto check = [&](const DrcContext& ctx) {
    const DrcReport report = run_drc(ctx, kDrcStructural | kDrcDataflow, options);
    if (json) {
      out.raw(report.to_json());
    } else {
      std::printf("%s\n", report.to_string().c_str());
    }
    if (report.errors() > 0 && exit_code == 0) exit_code = 1;
  };

  for (const std::string& path : paths) {
    try {
      const Checkpoint checkpoint = load_checkpoint(path);
      check(DrcContext{.netlist = &checkpoint.netlist});
    } catch (const std::exception& e) {
      // A checkpoint that cannot even be parsed is worse than one with
      // findings; report it in-band so CI sees which file and why.
      if (json) {
        out.begin_object().key("design").value(path);
        out.key("load_error").value(std::string(e.what())).end_object();
      } else {
        std::fprintf(stderr, "fpga lint: %s: load failed: %s\n", path.c_str(), e.what());
      }
      exit_code = 2;
    }
  }

  if (!model_name.empty()) {
    const ComposedDesign composed =
        compile(make_xcku5p_sim(), load_zoo_model(model_name)).design;
    check(DrcContext{.netlist = &composed.netlist, .instances = composed.drc_instances()});
  }

  if (json) {
    out.end_array();
    std::printf("%s\n", out.str().c_str());
  }
  return exit_code;
}

// -- simdiff ------------------------------------------------------------------

int cmd_simdiff(Args& args) {
  std::string model_name;
  bool mono = false;
  int cycles = 32;
  std::uint64_t seed = 1;
  int lane_count = 4;
  std::vector<std::string> paths;
  // One cycle drives one 64-lane frame = 64 inference vectors.
  constexpr auto kMaxVectors = static_cast<std::uint64_t>(INT32_MAX) * 64;
  while (args.next()) {
    if (args.is("--model")) {
      model_name = args.text();
    } else if (args.is("--mono")) {
      mono = true;
    } else if (args.is("--cycles")) {
      cycles = args.number(1);
    } else if (args.is("--vectors")) {
      cycles = static_cast<int>((args.number<std::uint64_t>(1, kMaxVectors) + 63) / 64);
    } else if (args.is("--seed")) {
      seed = args.number<std::uint64_t>(0);
    } else if (args.is("--lanes")) {
      lane_count = args.number(0, 64);
    } else {
      paths.push_back(args.positional());
    }
  }
  if (paths.empty() && model_name.empty()) {
    throw std::invalid_argument("nothing to check: pass --model NAME or checkpoint files");
  }

  std::vector<int> lanes;
  for (int i = 0; i < lane_count; ++i) {
    lanes.push_back(lane_count == 1 ? 0 : i * 63 / (lane_count - 1));
  }

  int exit_code = 0;
  const auto check = [&](const Netlist& netlist, const std::string& what) {
    const std::string diff = compare_compiled_vs_interpreter(netlist, cycles, seed, lanes);
    if (diff.empty()) {
      std::printf("ok   %-28s %zu cells, %d cycles x %zu lanes, seed %llu\n", what.c_str(),
                  netlist.cell_count(), cycles, lanes.empty() ? std::size_t{64} : lanes.size(),
                  static_cast<unsigned long long>(seed));
    } else {
      std::fprintf(stderr, "FAIL %s: %s\n", what.c_str(), diff.c_str());
      if (exit_code == 0) exit_code = 1;
    }
  };

  for (const std::string& path : paths) {
    try {
      check(load_checkpoint(path).netlist, path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fpga simdiff: %s: load failed: %s\n", path.c_str(), e.what());
      exit_code = 2;
    }
  }

  if (!model_name.empty()) {
    const ZooModel m = load_zoo_model(model_name);
    const Device device = make_xcku5p_sim();
    check(compile(device, m).design.netlist, model_name + " (pre-implemented)");
    if (mono) {
      Netlist flat = build_flat_netlist(m.model, m.impl, m.groups);
      PhysState phys;
      run_monolithic_flow(device, flat, phys);
      check(flat, model_name + " (monolithic)");
    }
  }
  return exit_code;
}

// -- serve --------------------------------------------------------------------

int cmd_serve(Args& args) {
  std::string model_name;
  std::string path;
  bool soak = false;
  bool json_out = false;
  std::uint64_t vectors = 0;  // 0: the default or --soak size
  EngineOptions opt;
  // Keeps the engine's round-up to whole batches far from overflow.
  constexpr std::uint64_t kMaxVectors = std::uint64_t{1} << 48;
  while (args.next()) {
    if (args.is("--model")) {
      model_name = args.text();
    } else if (args.is("--soak")) {
      soak = true;
    } else if (args.is("--vectors")) {
      vectors = args.number<std::uint64_t>(1, kMaxVectors);
    } else if (args.is("--cycles")) {
      opt.cycles_per_batch = args.number(1);
    } else if (args.is("--check-every")) {
      opt.check_every = args.number<std::size_t>(0);
    } else if (args.is("--seed")) {
      opt.seed = args.number<std::uint64_t>(0);
    } else if (args.is("--contexts")) {
      opt.contexts = args.number<std::size_t>(0, 64);
    } else if (args.is("--json")) {
      json_out = true;
    } else if (path.empty()) {
      path = args.positional();
    } else {
      throw std::invalid_argument("only one checkpoint per run");
    }
  }
  if (vectors == 0) vectors = soak ? 1000000 : 65536;
  if (model_name.empty() == path.empty()) {
    throw std::invalid_argument("serve needs exactly one of --model NAME or a checkpoint");
  }

  std::string what = path;
  Netlist netlist;
  if (!path.empty()) {
    netlist = load_checkpoint(path).netlist;
  } else {
    netlist = compile(make_xcku5p_sim(), load_zoo_model(model_name)).design.netlist;
    what = model_name + " (pre-implemented)";
  }

  InferenceEngine engine(netlist, opt);
  const EngineStats stats = engine.serve(vectors);
  if (json_out) {
    JsonWriter json;
    json.begin_object();
    json.key("design").value(what);
    json.key("cells").value(netlist.cell_count());
    json.key("vectors").value(static_cast<std::size_t>(stats.vectors));
    json.key("batches").value(static_cast<std::size_t>(stats.batches));
    json.key("cycles_per_batch").value(opt.cycles_per_batch);
    json.key("check_every").value(opt.check_every);
    json.key("seed").value(static_cast<std::size_t>(opt.seed));
    json.key("checksum").value(hex64(stats.checksum));
    json.key("fingerprint").value(hex64(stats.fingerprint()));
    json.key("oracle_checks").value(static_cast<std::size_t>(stats.oracle_checks));
    json.key("oracle_failures").value(static_cast<std::size_t>(stats.oracle_failures));
    json.key("ok").value(stats.ok());
    json.end_object();
    std::printf("%s\n", json.str().c_str());
    std::fprintf(stderr, "served %llu vectors in %.2fs: %.0f vec/s, %zu contexts, %zu threads\n",
                 static_cast<unsigned long long>(stats.vectors), stats.wall_seconds,
                 stats.vectors_per_sec, stats.contexts, stats.threads);
  } else {
    std::printf("serve %-28s %zu cells | %llu vectors in %llu batches "
                "(%d cycles/batch, %zu contexts, %zu threads)\n",
                what.c_str(), netlist.cell_count(),
                static_cast<unsigned long long>(stats.vectors),
                static_cast<unsigned long long>(stats.batches), opt.cycles_per_batch,
                stats.contexts, stats.threads);
    std::printf("  sustained: %.0f vectors/s (%.0f lane-cycles/s) over %.2fs\n",
                stats.vectors_per_sec, stats.lane_cycles_per_sec, stats.wall_seconds);
    std::printf("  oracle: %llu checks, %llu failures | checksum %s | fingerprint %s\n",
                static_cast<unsigned long long>(stats.oracle_checks),
                static_cast<unsigned long long>(stats.oracle_failures),
                hex64(stats.checksum).c_str(), hex64(stats.fingerprint()).c_str());
  }
  if (!stats.ok()) {
    std::fprintf(stderr, "FAIL %s: %s\n", what.c_str(),
                 stats.first_failure.empty() ? "no batch served"
                                             : stats.first_failure.c_str());
    return 1;
  }
  return 0;
}

// -- db -----------------------------------------------------------------------

/// Component kind prefix of a signature ("conv", "pool", "fork", ...).
std::string kind_of(const std::string& key) {
  const std::size_t cut = key.find('_');
  return cut == std::string::npos ? key : key.substr(0, cut);
}

int db_stats(CheckpointStore& store, bool json) {
  const StoreStats stats = store.stats();
  const std::vector<CheckpointStore::IndexEntry> entries = store.index_entries();
  std::map<std::string, std::size_t> kinds;
  for (const auto& entry : entries) ++kinds[kind_of(entry.key)];
  if (json) {
    JsonWriter out;
    out.begin_object();
    out.key("dir").value(store.dir());
    out.key("entries").value(stats.entries);
    out.key("disk_bytes").value(stats.disk_bytes);
    out.key("orphan_files").value(stats.orphan_files);
    out.key("missing_files").value(stats.missing_files);
    out.key("kinds").begin_object();
    for (const auto& [kind, count] : kinds) out.key(kind).value(count);
    out.end_object();
    out.key("cache").begin_object();
    out.key("budget_bytes").value(stats.cache_budget);
    out.key("entries").value(stats.cache_entries);
    out.key("bytes").value(stats.cache_bytes);
    out.key("hits").value(static_cast<std::size_t>(stats.hits));
    out.key("misses").value(static_cast<std::size_t>(stats.misses));
    out.key("evictions").value(static_cast<std::size_t>(stats.evictions));
    out.key("disk_loads").value(static_cast<std::size_t>(stats.disk_loads));
    out.key("puts").value(static_cast<std::size_t>(stats.puts));
    out.end_object();
    out.key("keys").begin_array();
    for (const auto& entry : entries) {
      out.begin_object();
      out.key("hash").value(entry.hash.hex());
      out.key("key").value(entry.key);
      out.key("bytes").value(entry.bytes);
      out.end_object();
    }
    out.end_array();
    out.end_object();
    std::printf("%s\n", out.str().c_str());
    return 0;
  }
  std::printf("store %s: %zu entries, %zu bytes on disk", store.dir().c_str(), stats.entries,
              stats.disk_bytes);
  if (stats.orphan_files > 0) std::printf(", %zu orphan(s)", stats.orphan_files);
  if (stats.missing_files > 0) std::printf(", %zu missing file(s)", stats.missing_files);
  std::printf("\n");
  for (const auto& [kind, count] : kinds) std::printf("  %-10s %zu\n", kind.c_str(), count);
  std::printf("cache: %zu/%zu bytes, %zu entries | hits %llu, misses %llu, "
              "evictions %llu, disk loads %llu\n",
              stats.cache_bytes, stats.cache_budget, stats.cache_entries,
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.evictions),
              static_cast<unsigned long long>(stats.disk_loads));
  return 0;
}

int db_verify(CheckpointStore& store, bool json) {
  int exit_code = 0;
  JsonWriter out;
  if (json) out.begin_array();
  for (const auto& entry : store.index_entries()) {
    std::string load_error;
    std::size_t drc_errors = 0, drc_warnings = 0;
    const bool hash_ok = CheckpointStore::content_hash(entry.key, entry.fabric) == entry.hash;
    if (!hash_ok && exit_code == 0) exit_code = 1;
    try {
      const DrcReport report = run_checkpoint_drc(load_checkpoint(entry.path));
      drc_errors = report.errors();
      drc_warnings = report.warnings();
      if (drc_errors > 0 && exit_code == 0) exit_code = 1;
    } catch (const std::exception& e) {
      load_error = e.what();
      exit_code = 2;
    }
    if (json) {
      out.begin_object();
      out.key("hash").value(entry.hash.hex());
      out.key("key").value(entry.key);
      out.key("hash_consistent").value(hash_ok);
      if (!load_error.empty()) {
        out.key("load_error").value(load_error);
      } else {
        out.key("drc_errors").value(drc_errors);
        out.key("drc_warnings").value(drc_warnings);
      }
      out.end_object();
    } else if (!load_error.empty()) {
      std::fprintf(stderr, "fpga db: %s (%s): load failed: %s\n", entry.key.c_str(),
                   entry.hash.hex().c_str(), load_error.c_str());
    } else {
      std::printf("%s %s: %s%zu drc error(s), %zu drc warning(s)\n", entry.hash.hex().c_str(),
                  entry.key.c_str(), hash_ok ? "" : "HASH MISMATCH, ", drc_errors,
                  drc_warnings);
    }
  }
  if (json) {
    out.end_array();
    std::printf("%s\n", out.str().c_str());
  }
  return exit_code;
}

int db_gc(CheckpointStore& store, const std::string& models, bool json) {
  const std::string fabric = fabric_signature(make_xcku5p_sim());
  std::vector<Hash128> keep;
  std::istringstream list(models);
  for (std::string name; std::getline(list, name, ',');) {
    if (name.empty()) continue;
    const ZooModel m = load_zoo_model(name);
    for (const ComponentRequest& request : component_requests(m.model, m.impl, m.groups)) {
      keep.push_back(CheckpointStore::content_hash(request.key, fabric));
    }
  }
  const std::size_t before = store.index_entries().size();
  const std::size_t removed = store.remove_unreferenced(keep);
  if (json) {
    JsonWriter out;
    out.begin_object();
    out.key("kept").value(before - removed);
    out.key("removed").value(removed);
    out.key("reachable_keys").value(keep.size());
    out.end_object();
    std::printf("%s\n", out.str().c_str());
  } else {
    std::printf("gc: kept %zu, removed %zu (%zu reachable keys)\n", before - removed, removed,
                keep.size());
  }
  return 0;
}

int cmd_db(Args& args) {
  StoreOptions options;
  bool json = false;
  std::string command;
  std::string keep_models;
  while (args.next()) {
    if (args.is("--dir")) {
      options.dir = args.text();
    } else if (args.is("--json")) {
      json = true;
    } else if (args.is("--keep-reachable")) {
      keep_models = args.text();
    } else if (command.empty()) {
      command = args.positional();
    } else {
      throw std::invalid_argument("unexpected argument '" + args.positional() + "'");
    }
  }
  if (command != "stats" && command != "verify" && command != "gc") {
    throw std::invalid_argument(command.empty() ? "db needs a command"
                                                : "unknown db command '" + command + "'");
  }
  if (command == "gc" && keep_models.empty()) {
    throw std::invalid_argument("gc requires --keep-reachable MODEL[,MODEL...]");
  }
  CheckpointStore store(options);
  if (!store.persistent()) {
    throw std::invalid_argument("no store directory (pass --dir or set FPGASIM_STORE_DIR)");
  }
  if (command == "stats") return db_stats(store, json);
  if (command == "verify") return db_verify(store, json);
  return db_gc(store, keep_models, json);
}

// -- run ----------------------------------------------------------------------

int cmd_run(Args& args) {
  std::string model_name;
  while (args.next()) {
    if (args.is("--model")) {
      model_name = args.text();
    } else {
      throw std::invalid_argument("unexpected argument '" + args.positional() + "'");
    }
  }
  if (model_name.empty()) throw std::invalid_argument("run needs --model NAME");
  const ZooModel m = load_zoo_model(model_name);
  const Device device = make_xcku5p_sim();
  std::printf("%s as an arch-def:\n%s\n", model_name.c_str(), to_arch_def(m.model).c_str());

  // Both flows, each DRC-gated (the gates throw on errors).
  const CompileService::SessionResult session = compile(device, m);
  const PreImplReport& pre = session.report;
  const ComposedDesign& accelerator = session.design;
  Netlist flat = build_flat_netlist(m.model, m.impl, m.groups);
  PhysState flat_phys;
  const MonoReport mono = run_monolithic_flow(device, flat, flat_phys);

  std::printf("%zu components for %zu groups composed into %zu instances\n",
              session.components, m.groups.size(), accelerator.instances.size());
  std::printf("final gate: pre-implemented %s / monolithic %s\n", pre.drc.summary().c_str(),
              mono.drc.summary().c_str());
  std::printf("stream edges stitched: %zu; Fmax pre-implemented %.1f MHz vs monolithic "
              "%.1f MHz; stitching %.1f%% of the online flow\n",
              accelerator.macro_nets.size(), pre.timing.fmax_mhz, mono.timing.fmax_mhz,
              pre.stitch_fraction() * 100.0);
  if (!pre.drc.clean() || !mono.drc.clean()) return 1;

  // One seeded tensor through the composed design on the interpreter,
  // driven by the valid/ready protocol; every output word must match the
  // golden reference.
  const Shape shape = m.model.layers().front().out_shape;
  const Tensor input = random_tensor(shape.c, shape.h, shape.w, 4321, 40);
  const std::vector<Fixed16> expected = reference_inference(m.model, input);
  std::printf("streaming a %dx%dx%d tensor through the composed accelerator...\n", shape.c,
              shape.h, shape.w);
  Simulator sim(accelerator.netlist);
  const StreamRun run = drive_stream(sim, {input.data}, expected.size(), 30000000);
  const std::vector<Fixed16>& out = run.outputs[0];
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < out.size(); ++i) mismatches += out[i] != expected[i];
  const bool exact = mismatches == 0 && run.complete;
  std::printf("%zu of %zu outputs in %llu cycles, %zu mismatches -- %s\n", out.size(),
              expected.size(), static_cast<unsigned long long>(run.cycles), mismatches,
              exact ? "MATCHES GOLDEN" : "MISMATCH");
  return exact ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  if (command == "-h" || command == "--help") {
    usage(stdout);
    return 0;
  }
  static const std::map<std::string, int (*)(Args&)> kCommands = {
      {"lint", cmd_lint}, {"simdiff", cmd_simdiff}, {"serve", cmd_serve},
      {"db", cmd_db},     {"run", cmd_run},
  };
  const auto it = kCommands.find(command);
  if (it == kCommands.end()) {
    if (!command.empty()) std::fprintf(stderr, "fpga: unknown command '%s'\n", command.c_str());
    usage(stderr);
    return 2;
  }
  Args args(argc, argv);
  try {
    return it->second(args);
  } catch (const HelpRequested&) {
    usage(stdout);
    return 0;
  } catch (const std::exception& e) {
    // Usage errors (std::invalid_argument) and designs that failed to
    // build or load alike.
    std::fprintf(stderr, "fpga %s: %s\n", command.c_str(), e.what());
    return 2;
  }
}
