// Table I: computational resources of LeNet-5 and VGG-16 (weights and
// MACs, conv vs. fully-connected). Pure model accounting; printed next to
// the paper's reported values — plus the same accounting and the
// stitch-share measurement (paper band 5-9%) for the zoo models added
// after the paper's two (MobileNet / ResNet-18 / U-Net), merged into
// BENCH_dfg.json.
#include "bench_common.h"
#include "cnn/zoo.h"

using namespace fpgasim;
using namespace fpgasim::bench;

namespace {

std::string human(long v) {
  char buf[32];
  if (v >= 1000000000) {
    std::snprintf(buf, sizeof(buf), "%.1f G", v / 1e9);
  } else if (v >= 1000000) {
    std::snprintf(buf, sizeof(buf), "%.1f M", v / 1e6);
  } else if (v >= 1000) {
    std::snprintf(buf, sizeof(buf), "%.1f K", v / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%ld", v);
  }
  return buf;
}

}  // namespace

int main() {
  const CnnModel lenet = make_lenet5();
  const CnnModel vgg = make_vgg16();
  const auto ls = lenet.stats();
  const auto vs = vgg.stats();

  Table table("Table I: computational hardware resources (ours vs paper)");
  table.set_header({"", "LeNet-5 (ours)", "LeNet-5 (paper)", "VGG-16 (ours)",
                    "VGG-16 (paper)"});
  table.add_row({"# CONV layers", std::to_string(ls.conv_layers), "2",
                 std::to_string(vs.conv_layers), "16*"});
  table.add_row({"CONV weights", human(ls.conv_weights), "26 K", human(vs.conv_weights),
                 "14.7 M"});
  table.add_row({"CONV MACs", human(ls.conv_macs), "1.9 M", human(vs.conv_macs), "15.3 G"});
  table.add_row({"# FC layers", std::to_string(ls.fc_layers), "2",
                 std::to_string(vs.fc_layers), "3"});
  table.add_row({"FC weights", human(ls.fc_weights), "406 K", human(vs.fc_weights), "124 M"});
  table.add_row({"FC MACs", human(ls.fc_macs), "405 K", human(vs.fc_macs), "124 M"});
  table.add_row({"Total weights", human(ls.total_weights()), "431 K",
                 human(vs.total_weights()), "138 M"});
  table.add_row({"Total MACs", human(ls.total_macs()), "2.3 M", human(vs.total_macs()),
                 "15.5 G"});
  table.print();
  std::puts("VGG-16 values match Table I; the paper's LeNet weight column appears ~10x");
  std::puts("the canonical LeNet-5 (conv 2.6K / FC 59K parameters) which we reproduce;");
  std::puts("the paper's own per-layer counts (conv1=156, conv2=2416 params, 117600 and");
  std::puts("240000 multiplications, Sec. V-E) agree with OUR column, not with its own");
  std::puts("Table I. (*paper counts all 16 weight layers as 'CONV layers'.)");

  // The zoo models beyond the paper's two: same model accounting (the
  // registry's weight/MAC functors put depthwise convs in the CONV
  // bucket), then the stitch-share measurement the paper reports as 5-9%
  // of the online flow, merged into BENCH_dfg.json.
  const char* extra[] = {"mobilenet", "resnet18", "unet"};
  Table models("zoo models beyond Table I: computational resources");
  models.set_header({"model", "conv layers", "conv weights", "conv MACs", "FC layers",
                     "FC weights", "FC MACs"});
  for (const char* name : extra) {
    const auto s = find_zoo_model(name)->make().stats();
    models.add_row({name, std::to_string(s.conv_layers), human(s.conv_weights),
                    human(s.conv_macs), std::to_string(s.fc_layers), human(s.fc_weights),
                    human(s.fc_macs)});
  }
  models.print();

  const Device device = make_xcku5p_sim();
  Table share("zoo models: stitch share of the online flow (paper band 5-9%)");
  share.set_header({"model", "classic flow (s)", "preimpl flow (s)", "gain",
                    "stitch share", "in band"});
  JsonWriter json;
  json.begin_object();
  for (const char* name : extra) {
    const NetworkRun run = run_network(device, name);
    const double stitch = run.pre.stitch_fraction();
    const double gain = 1.0 - run.pre.total_seconds / run.mono.total_seconds;
    const bool in_band = stitch >= 0.05 && stitch <= 0.09;
    share.add_row({name, Table::fmt(run.mono.total_seconds, 3),
                   Table::fmt(run.pre.total_seconds, 3), Table::pct(gain, 0),
                   Table::pct(stitch, 1), in_band ? "yes" : "no"});
    if (!in_band) {
      std::printf("note: %s stitch share %.1f%% is outside the paper's 5-9%% band "
                  "(tiny model: fixed per-flow stages dominate)\n",
                  name, stitch * 100.0);
    }
    json.key(name).begin_object();
    json.key("classic_wall_s").value(run.mono.total_seconds);
    json.key("preimpl_wall_s").value(run.pre.total_seconds);
    json.key("productivity_gain").value(gain);
    json.key("stitch_share").value(stitch);
    json.key("stitch_in_paper_band").value(in_band);
    json.key("instances").value(static_cast<long>(run.composed.instances.size()));
    json.key("stream_edges").value(static_cast<long>(run.composed.macro_nets.size()));
    json.key("fmax_preimpl_mhz").value(run.pre.timing.fmax_mhz);
    json.key("fmax_classic_mhz").value(run.mono.timing.fmax_mhz);
    json.end_object();
  }
  json.end_object();
  share.print();
  if (update_json_file("BENCH_dfg.json", "table1_zoo_models", json.str())) {
    std::puts("wrote BENCH_dfg.json (table1_zoo_models section)");
  }
  return 0;
}
