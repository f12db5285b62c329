#include "synth/layers.h"

#include <cassert>
#include <stdexcept>

#include "synth/builder.h"

namespace fpgasim {
namespace {

// Component FSM states (Sec. IV-B3 execution schedule).
constexpr std::uint64_t kStLoad = 0;
constexpr std::uint64_t kStCompute = 1;
constexpr std::uint64_t kStDrain = 2;

enum class Source { kStream, kJoin };  // kJoin: per-port inputs via make_join_port
enum class Phases { kLoadDrain, kLoadComputeDrain };

/// The LOAD -> COMPUTE -> DRAIN schedule every memory-based engine runs
/// (Sec. IV-B3): the stream ports, the fsm_state register and its
/// decodes, the done-latch freeze of the COMPUTE sweep, the registered
/// drain output and the next-state logic. An engine adds only its
/// datapath between these calls. Cell order is part of the netlist, so
/// each method creates its cells where the engine calls it.
class Controller {
 public:
  NetlistBuilder builder;
  NetId in_data = kInvalidNet;   // Source::kStream only
  NetId in_valid = kInvalidNet;  // Source::kStream only
  NetId is_load = kInvalidNet;
  NetId is_compute = kInvalidNet;  // Phases::kLoadComputeDrain only
  NetId is_drain = kInvalidNet;
  NetId streaming = kInvalidNet;  // set by begin_drain

  Controller(std::string name, Source source, Phases phases)
      : builder(std::move(name)), source_(source) {
    NetlistBuilder& b = builder;
    if (source == Source::kStream) {
      in_data = b.in_port("in_data", kDataW);
      in_valid = b.in_port("in_valid", 1);
    }
    out_ready_ = b.in_port("out_ready", 1);
    state_ = b.reg(2, "fsm_state", "state");
    is_load = b.eq(state_.q, b.constant(kStLoad, 2));
    if (phases == Phases::kLoadComputeDrain) {
      is_compute = b.eq(state_.q, b.constant(kStCompute, 2));
    }
    is_drain = b.eq(state_.q, b.constant(kStDrain, 2));
  }

  /// COMPUTE-sweep enable. The sweep freezes once its last term has issued
  /// (done_latch), so the datapath pipeline can flush before DRAIN and the
  /// counters re-enter COMPUTE at zero for the next image. end_sweep
  /// closes the latch on the sweep's last-term condition.
  NetId begin_sweep() {
    done_latch_ = builder.reg(1, "done_latch");
    return builder.and2(is_compute, builder.not1(done_latch_.q));
  }
  void end_sweep(NetId compute_done) {
    const NetId held = builder.and2(is_compute, builder.or2(done_latch_.q, compute_done));
    builder.close(done_latch_, held, builder.one());
  }

  /// `streaming` = is_drain & out_ready: advances the engine's drain
  /// counters by one word.
  NetId begin_drain() {
    streaming = builder.and2(is_drain, out_ready_);
    return streaming;
  }

  /// The drain-output contract: out_data is `data` registered in ob_reg,
  /// and out_valid is `streaming` delayed two cycles (memory read, then
  /// ob_reg). A word is presented two cycles after out_ready allowed it,
  /// whatever out_ready does by then.
  void drain_output(NetId data) {
    out_data_ = builder.ff(data, kInvalidNet, kDataW, "ob_reg");
    out_valid_ = builder.delay(streaming, 2, 1);
  }

  /// Next-state logic LOAD -> [COMPUTE ->] DRAIN -> LOAD and the output
  /// ports; finalizes the component. `compute_done` is ignored without a
  /// COMPUTE phase.
  Netlist finish(NetId load_done, NetId compute_done, NetId drain_done) {
    NetlistBuilder& b = builder;
    const bool computes = is_compute != kInvalidNet;
    NetId next = state_.q;
    const NetId loaded = b.and2(is_load, load_done);
    next = b.mux2(next, b.constant(computes ? kStCompute : kStDrain, 2), loaded, 2);
    if (computes) next = b.mux2(next, b.constant(kStDrain, 2), compute_done, 2);
    const NetId drained = b.and2(is_drain, drain_done);
    next = b.mux2(next, b.constant(kStLoad, 2), drained, 2);
    b.close(state_, next, b.one());

    if (source_ == Source::kStream) b.out_port("in_ready", is_load);
    b.out_port("out_data", out_data_);
    b.out_port("out_valid", out_valid_);
    return std::move(b).take();
  }

 private:
  Source source_;
  NetId out_ready_ = kInvalidNet;
  NetlistBuilder::Reg state_;
  NetlistBuilder::Reg done_latch_;
  NetId out_data_ = kInvalidNet;
  NetId out_valid_ = kInvalidNet;
};

/// Window accumulator of the conv, dwconv and avgpool engines:
/// acc <- (first ? 0 : acc) + term on every enabled cycle. Returns the
/// next value, which is the window sum on the cycle of its last term.
NetId window_accum(NetlistBuilder& b, NetId term, NetId first, NetId enable,
                   std::uint16_t width, std::string name) {
  const NetlistBuilder::Reg acc = b.reg(width, std::move(name));
  const NetId base = b.mux2(acc.q, b.zero(width), first, width);
  const NetId next = b.add(base, term, width);
  b.close(acc, next, enable);
  return next;
}

std::vector<std::uint64_t> to_rom_words(const std::vector<Fixed16>& values) {
  std::vector<std::uint64_t> words;
  words.reserve(values.size());
  for (Fixed16 v : values) {
    words.push_back(static_cast<std::uint64_t>(static_cast<std::uint16_t>(v.raw)));
  }
  return words;
}

}  // namespace

Netlist make_conv_component(const ConvParams& p, const std::vector<Fixed16>& weights,
                            const std::vector<Fixed16>& bias) {
  if (p.in_c % p.ic_par != 0 || p.out_c % p.oc_par != 0) {
    throw std::invalid_argument("conv: channel counts must divide parallelism");
  }
  if (p.materialize_roms) {
    assert(weights.size() ==
           static_cast<std::size_t>(p.out_c) * p.in_c * p.kernel * p.kernel);
    assert(bias.size() == static_cast<std::size_t>(p.out_c));
  }
  const int K = p.kernel, H = p.in_h, W = p.in_w, Ho = p.out_h(), Wo = p.out_w();
  const int icg_n = p.in_c / p.ic_par;
  const int ocg_n = p.out_c / p.oc_par;
  const int lat = 1 + p.dsp_stages;  // BRAM read + DSP pipeline

  Controller ctl(p.name, Source::kStream, Phases::kLoadComputeDrain);
  NetlistBuilder& b = ctl.builder;

  // ---------------- source controller (LOAD) ----------------
  const NetId wr = b.and2(ctl.is_load, ctl.in_valid);
  const auto pix = b.counter(static_cast<std::uint32_t>(H) * W, wr, kAddrW, "ld_pix");
  const auto lane = b.counter(static_cast<std::uint32_t>(p.ic_par), pix.wrap, 8, "ld_lane");
  const auto grp = b.counter(static_cast<std::uint32_t>(icg_n), lane.wrap, 8, "ld_grp");
  const NetId load_addr =
      b.mul_const_add(grp.value, static_cast<std::uint64_t>(H) * W, pix.value, kAddrW);
  const std::vector<NetId> lane_sel = b.decode(lane.value, static_cast<std::size_t>(p.ic_par));
  const NetId load_done = grp.wrap;

  // ---------------- compute counters ----------------
  // The MAC pipeline needs `lat` flush cycles after the sweep freezes.
  const NetId sweeping = ctl.begin_sweep();
  const auto kx = b.counter(static_cast<std::uint32_t>(K), sweeping, 8, "kx");
  const auto ky = b.counter(static_cast<std::uint32_t>(K), kx.wrap, 8, "ky");
  const auto icg = b.counter(static_cast<std::uint32_t>(icg_n), ky.wrap, 8, "icg");
  const auto ox = b.counter(static_cast<std::uint32_t>(Wo), icg.wrap, kAddrW, "ox");
  const auto oy = b.counter(static_cast<std::uint32_t>(Ho), ox.wrap, kAddrW, "oy");
  const auto ocg = b.counter(static_cast<std::uint32_t>(ocg_n), oy.wrap, 8, "ocg");

  const NetId complete = icg.wrap;      // one output-pixel accumulation done
  const NetId compute_done = ocg.wrap;  // whole layer done
  ctl.end_sweep(compute_done);
  const NetId icg_zero = b.eq(icg.value, b.zero(8));
  const NetId ky_zero = b.eq(ky.value, b.zero(8));
  const NetId kx_zero = b.eq(kx.value, b.zero(8));
  const NetId first_term = b.and2(b.and2(kx_zero, ky_zero), icg_zero);

  // Input addressing: the MMU "jogging around the input data". LUT/carry
  // shift-add arithmetic; its logic depth grows with the feature-map
  // dimensions, which is one of the things that makes bigger layers close
  // timing lower.
  const NetId iy =
      b.mul_const_add(oy.value, static_cast<std::uint64_t>(p.stride), ky.value, kAddrW);
  const NetId ix =
      b.mul_const_add(ox.value, static_cast<std::uint64_t>(p.stride), kx.value, kAddrW);
  const NetId row_addr = b.mul_const_add(iy, static_cast<std::uint64_t>(W), ix, kAddrW);
  const NetId in_addr =
      b.mul_const_add(icg.value, static_cast<std::uint64_t>(H) * W, row_addr, kAddrW);

  // Weight index; with a partial weight buffer the oc-group term is folded
  // away (the MMU refills the buffer per group in that configuration).
  const int wb_groups = (p.weight_buffer_ocg > 0 && p.weight_buffer_ocg < ocg_n)
                            ? p.weight_buffer_ocg
                            : ocg_n;
  NetId widx = kInvalidNet;
  if (wb_groups == ocg_n) {
    const NetId t1 = b.mul_const_add(ocg.value, static_cast<std::uint64_t>(icg_n), icg.value,
                                     kAddrW);
    const NetId t2 = b.mul_const_add(t1, static_cast<std::uint64_t>(K), ky.value, kAddrW);
    widx = b.mul_const_add(t2, static_cast<std::uint64_t>(K), kx.value, kAddrW);
  } else {
    const NetId t2 =
        b.mul_const_add(icg.value, static_cast<std::uint64_t>(K), ky.value, kAddrW);
    widx = b.mul_const_add(t2, static_cast<std::uint64_t>(K), kx.value, kAddrW);
  }
  const std::uint32_t weight_depth =
      static_cast<std::uint32_t>(wb_groups) * icg_n * K * K;

  // ---------------- input feature-map banks ----------------
  std::vector<NetId> x_lane(static_cast<std::size_t>(p.ic_par));
  for (int l = 0; l < p.ic_par; ++l) {
    const NetId we = b.and2(wr, lane_sel[static_cast<std::size_t>(l)]);
    x_lane[static_cast<std::size_t>(l)] =
        b.bram(load_addr, ctl.in_data, we, static_cast<std::uint32_t>(icg_n) * H * W, kDataW,
               -1, "ifm_bank" + std::to_string(l), in_addr);
  }

  // ---------------- compute units ----------------
  const NetId term_valid_dl = b.delay(ctl.is_compute, lat, 1);
  const NetId first_dl = b.delay(first_term, lat, 1);
  const NetId complete_dl = b.delay(b.and2(complete, ctl.is_compute), lat, 1);
  const NetId done_dl = b.delay(b.and2(compute_done, ctl.is_compute), lat, 1);
  const NetId bias_addr = b.delay(ocg.value, lat - 1, 8);

  // Sink-side output index, shared across CU columns.
  const auto out_idx = b.counter(static_cast<std::uint32_t>(ocg_n) * Ho * Wo, complete_dl,
                                 kAddrW, "out_idx");

  // Drain counters (declared before the banks so the read address exists).
  const NetId streaming = ctl.begin_drain();
  const auto opix = b.counter(static_cast<std::uint32_t>(Ho) * Wo, streaming, kAddrW, "opix");
  const auto olane = b.counter(static_cast<std::uint32_t>(p.oc_par), opix.wrap, 8, "olane");
  const auto ogrp = b.counter(static_cast<std::uint32_t>(ocg_n), olane.wrap, 8, "ogrp");
  const NetId drain_raddr = b.mul_const_add(
      ogrp.value, static_cast<std::uint64_t>(Ho) * Wo, opix.value, kAddrW);

  std::vector<NetId> bank_out(static_cast<std::size_t>(p.oc_par));
  for (int j = 0; j < p.oc_par; ++j) {
    // One weight ROM / buffer and one DSP MAC per (CU column, PE lane).
    std::vector<NetId> products;
    products.reserve(static_cast<std::size_t>(p.ic_par));
    for (int l = 0; l < p.ic_par; ++l) {
      std::int32_t rom_id = -1;
      if (p.materialize_roms && wb_groups == ocg_n) {
        std::vector<std::uint64_t> words(weight_depth, 0);
        for (int og = 0; og < ocg_n; ++og) {
          for (int ig = 0; ig < icg_n; ++ig) {
            for (int kyy = 0; kyy < K; ++kyy) {
              for (int kxx = 0; kxx < K; ++kxx) {
                const int oc = og * p.oc_par + j;
                const int ic = ig * p.ic_par + l;
                const std::size_t src =
                    static_cast<std::size_t>(((oc * p.in_c + ic) * K + kyy) * K + kxx);
                const std::size_t dst =
                    static_cast<std::size_t>(((og * icg_n + ig) * K + kyy) * K + kxx);
                words[dst] = static_cast<std::uint16_t>(weights[src].raw);
              }
            }
          }
        }
        rom_id = b.rom(std::move(words));
      }
      const NetId w_net =
          b.bram(widx, kInvalidNet, kInvalidNet, weight_depth, kDataW, rom_id,
                 "wrom_" + std::to_string(j) + "_" + std::to_string(l));
      products.push_back(b.dsp(w_net, x_lane[static_cast<std::size_t>(l)], kInvalidNet,
                               kFixedFrac, p.dsp_stages, kDataW,
                               "mac_" + std::to_string(j) + "_" + std::to_string(l)));
    }
    const NetId partial = b.adder_tree(products, kDataW);

    const NetId acc_next =
        window_accum(b, partial, first_dl, term_valid_dl, kDataW, "acc" + std::to_string(j));

    // Bias ROM per CU column.
    std::int32_t bias_rom = -1;
    if (p.materialize_roms) {
      std::vector<std::uint64_t> words(static_cast<std::size_t>(ocg_n), 0);
      for (int og = 0; og < ocg_n; ++og) {
        words[static_cast<std::size_t>(og)] =
            static_cast<std::uint16_t>(bias[static_cast<std::size_t>(og * p.oc_par + j)].raw);
      }
      bias_rom = b.rom(std::move(words));
    }
    const NetId bias_net = b.bram(bias_addr, kInvalidNet, kInvalidNet,
                                  static_cast<std::uint32_t>(ocg_n), kDataW, bias_rom,
                                  "brom" + std::to_string(j));
    NetId result = b.add(acc_next, bias_net, kDataW);
    if (p.fuse_relu) result = b.relu(result, kDataW);

    // Sink: banked output feature-map memory.
    bank_out[static_cast<std::size_t>(j)] =
        b.bram(out_idx.value, result, complete_dl, static_cast<std::uint32_t>(ocg_n) * Ho * Wo,
               kDataW, -1, "ofm_bank" + std::to_string(j), drain_raddr);
  }

  // Output register at the stream boundary: breaks the BRAM->mux->wire
  // path before it leaves the component (interface timing, Sec. IV-A2).
  ctl.drain_output(b.muxn(bank_out, b.delay(olane.value, 1, 8), kDataW));
  return ctl.finish(load_done, done_dl, ogrp.wrap);
}

Netlist make_fc_component(const std::string& name, int inputs, int outputs,
                          const std::vector<Fixed16>& weights,
                          const std::vector<Fixed16>& bias, int in_par, int out_par,
                          bool materialize_roms, int weight_buffer_ocg, bool fuse_relu) {
  // FC == convolution whose kernel covers the whole (1x1) input of
  // `inputs` channels.
  ConvParams p;
  p.name = name;
  p.in_c = inputs;
  p.out_c = outputs;
  p.kernel = 1;
  p.in_h = 1;
  p.in_w = 1;
  p.ic_par = in_par;
  p.oc_par = out_par;
  p.fuse_relu = fuse_relu;
  p.materialize_roms = materialize_roms;
  p.weight_buffer_ocg = weight_buffer_ocg;
  return make_conv_component(p, weights, bias);
}

Netlist make_dwconv_component(const DwConvParams& p, const std::vector<Fixed16>& weights,
                              const std::vector<Fixed16>& bias) {
  const int K = p.kernel, H = p.in_h, W = p.in_w, Ho = p.out_h(), Wo = p.out_w();
  const int C = p.channels;
  const int lat = 1 + p.dsp_stages;  // BRAM read + DSP pipeline
  assert(weights.size() == static_cast<std::size_t>(C) * K * K);
  assert(bias.size() == static_cast<std::size_t>(C));

  Controller ctl(p.name, Source::kStream, Phases::kLoadComputeDrain);
  NetlistBuilder& b = ctl.builder;

  // Source controller (single bank: channels are processed sequentially).
  const NetId wr = b.and2(ctl.is_load, ctl.in_valid);
  const auto pix = b.counter(static_cast<std::uint32_t>(H) * W, wr, kAddrW, "ld_pix");
  const auto ch = b.counter(static_cast<std::uint32_t>(C), pix.wrap, kAddrW, "ld_ch");
  const NetId load_addr =
      b.mul_const_add(ch.value, static_cast<std::uint64_t>(H) * W, pix.value, kAddrW);
  const NetId load_done = ch.wrap;

  // Window sweep, pool-style counters but with a stride-decoupled window.
  const NetId sweeping = ctl.begin_sweep();
  const auto kx = b.counter(static_cast<std::uint32_t>(K), sweeping, 8, "kx");
  const auto ky = b.counter(static_cast<std::uint32_t>(K), kx.wrap, 8, "ky");
  const auto ox = b.counter(static_cast<std::uint32_t>(Wo), ky.wrap, kAddrW, "ox");
  const auto oy = b.counter(static_cast<std::uint32_t>(Ho), ox.wrap, kAddrW, "oy");
  const auto c2 = b.counter(static_cast<std::uint32_t>(C), oy.wrap, kAddrW, "c2");
  const NetId complete = ky.wrap;      // one output-pixel accumulation done
  const NetId compute_done = c2.wrap;  // whole layer done
  ctl.end_sweep(compute_done);
  const NetId ky_zero = b.eq(ky.value, b.zero(8));
  const NetId kx_zero = b.eq(kx.value, b.zero(8));
  const NetId first = b.and2(kx_zero, ky_zero);

  const NetId iy =
      b.mul_const_add(oy.value, static_cast<std::uint64_t>(p.stride), ky.value, kAddrW);
  const NetId ix =
      b.mul_const_add(ox.value, static_cast<std::uint64_t>(p.stride), kx.value, kAddrW);
  const NetId row = b.mul_const_add(iy, static_cast<std::uint64_t>(W), ix, kAddrW);
  const NetId rd_addr =
      b.mul_const_add(c2.value, static_cast<std::uint64_t>(H) * W, row, kAddrW);
  const NetId ifm = b.bram(load_addr, ctl.in_data, wr, static_cast<std::uint32_t>(C) * H * W,
                           kDataW, -1, "ifm", rd_addr);

  // One weight ROM and one DSP MAC, shared by every channel.
  const NetId t1 = b.mul_const_add(c2.value, static_cast<std::uint64_t>(K), ky.value, kAddrW);
  const NetId widx = b.mul_const_add(t1, static_cast<std::uint64_t>(K), kx.value, kAddrW);
  const NetId w_net = b.bram(widx, kInvalidNet, kInvalidNet,
                             static_cast<std::uint32_t>(C) * K * K, kDataW,
                             b.rom(to_rom_words(weights)), "wrom");
  const NetId product =
      b.dsp(w_net, ifm, kInvalidNet, kFixedFrac, p.dsp_stages, kDataW, "mac");

  const NetId term_valid_dl = b.delay(ctl.is_compute, lat, 1);
  const NetId first_dl = b.delay(first, lat, 1);
  const NetId complete_dl = b.delay(b.and2(complete, ctl.is_compute), lat, 1);
  const NetId done_dl = b.delay(b.and2(compute_done, ctl.is_compute), lat, 1);
  const NetId bias_addr = b.delay(c2.value, lat - 1, kAddrW);

  const NetId acc_next = window_accum(b, product, first_dl, term_valid_dl, kDataW, "acc");
  const NetId bias_net = b.bram(bias_addr, kInvalidNet, kInvalidNet,
                                static_cast<std::uint32_t>(C), kDataW,
                                b.rom(to_rom_words(bias)), "brom");
  NetId result = b.add(acc_next, bias_net, kDataW);
  if (p.fuse_relu) result = b.relu(result, kDataW);

  // Sink controller (single bank, pool-style drain).
  const auto out_idx =
      b.counter(static_cast<std::uint32_t>(C) * Ho * Wo, complete_dl, kAddrW, "out_idx");
  const NetId streaming = ctl.begin_drain();
  const auto opix =
      b.counter(static_cast<std::uint32_t>(C) * Ho * Wo, streaming, kAddrW, "opix");
  ctl.drain_output(b.bram(out_idx.value, result, complete_dl,
                          static_cast<std::uint32_t>(C) * Ho * Wo, kDataW, -1, "ofm",
                          opix.value));
  return ctl.finish(load_done, done_dl, opix.wrap);
}

Netlist make_avgpool_component(const AvgPoolParams& p) {
  const int Kh = p.kernel_h, Kw = p.kernel_w, H = p.in_h, W = p.in_w;
  const int Ho = p.out_h(), Wo = p.out_w();
  const int C = p.channels;
  const int count = Kh * Kw;
  if (Kh <= 0 || Kw <= 0 || H % Kh != 0 || W % Kw != 0) {
    throw std::invalid_argument("avgpool: window must tile the input");
  }
  if ((count & (count - 1)) != 0 || count > 256) {
    throw std::invalid_argument(
        "avgpool: window size must be a power of two <= 256 (shift divider)");
  }
  int shift = 0;
  while ((1 << shift) < count) ++shift;
  // Accumulator width: 256 terms of |raw| <= 2^15 peak at 2^23, the int24
  // boundary, so the window sum is exact (no wrap, no clamp).
  constexpr std::uint16_t kAccW = 24;

  Controller ctl(p.name, Source::kStream, Phases::kLoadComputeDrain);
  NetlistBuilder& b = ctl.builder;

  // Source controller (the max-pool engine's, verbatim).
  const NetId wr = b.and2(ctl.is_load, ctl.in_valid);
  const auto pix = b.counter(static_cast<std::uint32_t>(H) * W, wr, kAddrW, "ld_pix");
  const auto ch = b.counter(static_cast<std::uint32_t>(C), pix.wrap, kAddrW, "ld_ch");
  const NetId load_addr =
      b.mul_const_add(ch.value, static_cast<std::uint64_t>(H) * W, pix.value, kAddrW);
  const NetId load_done = ch.wrap;

  const NetId sweeping = ctl.begin_sweep();
  const auto kx = b.counter(static_cast<std::uint32_t>(Kw), sweeping, 8, "kx");
  const auto ky = b.counter(static_cast<std::uint32_t>(Kh), kx.wrap, 8, "ky");
  const auto ox = b.counter(static_cast<std::uint32_t>(Wo), ky.wrap, kAddrW, "ox");
  const auto oy = b.counter(static_cast<std::uint32_t>(Ho), ox.wrap, kAddrW, "oy");
  const auto c2 = b.counter(static_cast<std::uint32_t>(C), oy.wrap, kAddrW, "c2");
  const NetId complete = ky.wrap;
  const NetId compute_done = c2.wrap;
  ctl.end_sweep(compute_done);
  const NetId ky_zero = b.eq(ky.value, b.zero(8));
  const NetId kx_zero = b.eq(kx.value, b.zero(8));
  const NetId first = b.and2(kx_zero, ky_zero);

  const NetId iy = b.mul_const_add(oy.value, static_cast<std::uint64_t>(Kh), ky.value, kAddrW);
  const NetId ix = b.mul_const_add(ox.value, static_cast<std::uint64_t>(Kw), kx.value, kAddrW);
  const NetId row = b.mul_const_add(iy, static_cast<std::uint64_t>(W), ix, kAddrW);
  const NetId rd_addr =
      b.mul_const_add(c2.value, static_cast<std::uint64_t>(H) * W, row, kAddrW);
  const NetId ifm = b.bram(load_addr, ctl.in_data, wr, static_cast<std::uint32_t>(C) * H * W,
                           kDataW, -1, "ifm", rd_addr);

  // Window accumulator. Reading a 16-bit net into a 24-bit cell zero-pads,
  // so negative Q8.8 samples need an explicit sign-extension gadget before
  // they enter the adder.
  const NetId first_d1 = b.delay(first, 1, 1);
  const NetId complete_d1 = b.delay(b.and2(complete, ctl.is_compute), 1, 1);
  const NetId done_d1 = b.delay(b.and2(compute_done, ctl.is_compute), 1, 1);
  const NetId en_d1 = b.delay(ctl.is_compute, 1, 1);

  const NetId zext = b.op2(LutOp::kPass, ifm, ifm, kAccW);
  const NetId hi_mask = b.constant(0xFF0000, kAccW);
  const NetId negative = b.bit(ifm, kDataW - 1);
  const NetId sext = b.op2(LutOp::kOr, zext, hi_mask, kAccW);
  const NetId ext = b.mux2(zext, sext, negative, kAccW, "sext");
  const NetId acc_next = window_accum(b, ext, first_d1, en_d1, kAccW, "acc");

  // Divide by the window size: floor via an arithmetic-shift DSP (b == 1,
  // shift == log2(count)), then adjust the floor quotient to
  // round-to-nearest-even on the masked-off remainder — bit-exact with
  // div_rne for power-of-two denominators.
  NetId quotient = acc_next;
  if (shift > 0) {
    const NetId q0 =
        b.dsp(acc_next, b.constant(1, kAccW), kInvalidNet, shift, 0, kAccW, "avg_shift");
    const NetId rem = b.op2(LutOp::kAnd, acc_next,
                            b.constant((1ULL << shift) - 1, kAccW), kAccW);
    const NetId half = b.constant(1ULL << (shift - 1), kAccW);
    const NetId above = b.ltu(half, rem);
    const NetId q0_odd = b.bit(q0, 0);
    const NetId tie = b.and2(b.eq(rem, half), q0_odd);
    const NetId round_up = b.or2(above, tie);
    const NetId one = b.constant(1, kAccW);
    quotient = b.add(q0, b.mux2(b.zero(kAccW), one, round_up, kAccW), kAccW);
  }
  // The mean of Q8.8 samples is in Q8.8 range, so the low 16 bits are the
  // exact result.
  NetId result = b.op2(LutOp::kPass, quotient, quotient, kDataW);
  if (p.fuse_relu) result = b.relu(result, kDataW);

  // Sink controller (the max-pool engine's, verbatim).
  const auto out_idx =
      b.counter(static_cast<std::uint32_t>(C) * Ho * Wo, complete_d1, kAddrW, "out_idx");
  const NetId streaming = ctl.begin_drain();
  const auto opix =
      b.counter(static_cast<std::uint32_t>(C) * Ho * Wo, streaming, kAddrW, "opix");
  ctl.drain_output(b.bram(out_idx.value, result, complete_d1,
                          static_cast<std::uint32_t>(C) * Ho * Wo, kDataW, -1, "ofm",
                          opix.value));
  return ctl.finish(load_done, done_d1, opix.wrap);
}

Netlist make_upsample_component(const std::string& name, int channels, int in_h, int in_w,
                                int factor, bool fuse_relu) {
  if (factor <= 0) throw std::invalid_argument("upsample: factor must be positive");
  const int C = channels, H = in_h, W = in_w, F = factor;

  // LOAD -> DRAIN store-and-forward: the drain replays each pixel F times
  // per output row and each source row F times.
  Controller ctl(name, Source::kStream, Phases::kLoadDrain);
  NetlistBuilder& b = ctl.builder;

  const NetId wr = b.and2(ctl.is_load, ctl.in_valid);
  const auto wpix =
      b.counter(static_cast<std::uint32_t>(C) * H * W, wr, kAddrW, "wpix");

  // Output raster (c, y, x) with y = yb*F + ys, x = xb*F + xs: the x
  // replica is the fastest digit, then the source column, the y replica,
  // the source row, and the channel.
  const NetId streaming = ctl.begin_drain();
  const auto xs = b.counter(static_cast<std::uint32_t>(F), streaming, 8, "xs");
  const auto xb = b.counter(static_cast<std::uint32_t>(W), xs.wrap, kAddrW, "xb");
  const auto ys = b.counter(static_cast<std::uint32_t>(F), xb.wrap, 8, "ys");
  const auto yb = b.counter(static_cast<std::uint32_t>(H), ys.wrap, kAddrW, "yb");
  const auto c2 = b.counter(static_cast<std::uint32_t>(C), yb.wrap, kAddrW, "c2");
  const NetId row = b.mul_const_add(yb.value, static_cast<std::uint64_t>(W), xb.value, kAddrW);
  const NetId raddr =
      b.mul_const_add(c2.value, static_cast<std::uint64_t>(H) * W, row, kAddrW);

  NetId result = b.bram(wpix.value, ctl.in_data, wr, static_cast<std::uint32_t>(C) * H * W,
                        kDataW, -1, "buf", raddr);
  if (fuse_relu) result = b.relu(result, kDataW);
  ctl.drain_output(result);
  return ctl.finish(wpix.wrap, kInvalidNet, c2.wrap);
}

Netlist make_pool_component(const PoolParams& p) {
  const int K = p.kernel, H = p.in_h, W = p.in_w, Ho = p.out_h(), Wo = p.out_w();
  const int C = p.channels;

  Controller ctl(p.name, Source::kStream, Phases::kLoadComputeDrain);
  NetlistBuilder& b = ctl.builder;

  // Source controller.
  const NetId wr = b.and2(ctl.is_load, ctl.in_valid);
  const auto pix = b.counter(static_cast<std::uint32_t>(H) * W, wr, kAddrW, "ld_pix");
  const auto ch = b.counter(static_cast<std::uint32_t>(C), pix.wrap, kAddrW, "ld_ch");
  const NetId load_addr =
      b.mul_const_add(ch.value, static_cast<std::uint64_t>(H) * W, pix.value, kAddrW);
  const NetId load_done = ch.wrap;

  // Controller sweep: kx, ky within the window; ox, oy, c over outputs
  // (the BRAM pipeline flushes 1 cycle after the sweep freezes).
  const NetId sweeping = ctl.begin_sweep();
  const auto kx = b.counter(static_cast<std::uint32_t>(K), sweeping, 8, "kx");
  const auto ky = b.counter(static_cast<std::uint32_t>(K), kx.wrap, 8, "ky");
  const auto ox = b.counter(static_cast<std::uint32_t>(Wo), ky.wrap, kAddrW, "ox");
  const auto oy = b.counter(static_cast<std::uint32_t>(Ho), ox.wrap, kAddrW, "oy");
  const auto c2 = b.counter(static_cast<std::uint32_t>(C), oy.wrap, kAddrW, "c2");
  const NetId complete = ky.wrap;
  const NetId compute_done = c2.wrap;
  ctl.end_sweep(compute_done);
  const NetId ky_zero = b.eq(ky.value, b.zero(8));
  const NetId kx_zero = b.eq(kx.value, b.zero(8));
  const NetId first = b.and2(kx_zero, ky_zero);

  const NetId iy = b.mul_const_add(oy.value, static_cast<std::uint64_t>(K), ky.value, kAddrW);
  const NetId ix = b.mul_const_add(ox.value, static_cast<std::uint64_t>(K), kx.value, kAddrW);
  const NetId row = b.mul_const_add(iy, static_cast<std::uint64_t>(W), ix, kAddrW);
  const NetId rd_addr =
      b.mul_const_add(c2.value, static_cast<std::uint64_t>(H) * W, row, kAddrW);

  const NetId ifm = b.bram(load_addr, ctl.in_data, wr, static_cast<std::uint32_t>(C) * H * W,
                           kDataW, -1, "ifm", rd_addr);

  // Comparator + shift register (Fig. 4c): running max over the window.
  const NetId first_d1 = b.delay(first, 1, 1);
  const NetId complete_d1 = b.delay(b.and2(complete, ctl.is_compute), 1, 1);
  const NetId done_d1 = b.delay(b.and2(compute_done, ctl.is_compute), 1, 1);
  const NetId en_d1 = b.delay(ctl.is_compute, 1, 1);

  const NetlistBuilder::Reg max_reg = b.reg(kDataW, "maxreg");
  const NetId max_next = b.mux2(b.smax(max_reg.q, ifm, kDataW), ifm, first_d1, kDataW);
  b.close(max_reg, max_next, en_d1);

  NetId result = max_next;
  if (p.fuse_relu) result = b.relu(result, kDataW);

  // Sink controller.
  const auto out_idx =
      b.counter(static_cast<std::uint32_t>(C) * Ho * Wo, complete_d1, kAddrW, "out_idx");
  const NetId streaming = ctl.begin_drain();
  const auto opix =
      b.counter(static_cast<std::uint32_t>(C) * Ho * Wo, streaming, kAddrW, "opix");
  ctl.drain_output(b.bram(out_idx.value, result, complete_d1,
                          static_cast<std::uint32_t>(C) * Ho * Wo, kDataW, -1, "ofm",
                          opix.value));
  return ctl.finish(load_done, done_d1, opix.wrap);
}

Netlist make_relu_component(const std::string& name, int width) {
  NetlistBuilder b(name);
  const NetId in_data = b.in_port("in_data", static_cast<std::uint16_t>(width));
  const NetId in_valid = b.in_port("in_valid", 1);
  const NetId out_ready = b.in_port("out_ready", 1);
  const NetId rectified = b.relu(in_data, static_cast<std::uint16_t>(width));
  b.out_port("out_data", b.ff(rectified, in_valid, static_cast<std::uint16_t>(width)));
  b.out_port("out_valid", b.delay(in_valid, 1, 1));
  b.out_port("in_ready", out_ready);
  return std::move(b).take();
}

Netlist make_stream_fifo(const std::string& name, int depth, int width) {
  NetlistBuilder b(name);
  const std::uint16_t w = static_cast<std::uint16_t>(width);
  const NetId in_data = b.in_port("in_data", w);
  const NetId in_valid = b.in_port("in_valid", 1);
  const NetId out_ready = b.in_port("out_ready", 1);

  // Register-file FIFO with combinational read (single-source single-sink
  // unbounded-in-spirit queue from Sec. IV-B1; depth bounds it physically).
  const NetlistBuilder::Reg count = b.reg(8, "count");
  const NetId empty = b.eq(count.q, b.zero(8));
  const NetId full = b.eq(count.q, b.constant(static_cast<std::uint64_t>(depth), 8));
  const NetId in_ready = b.not1(full);
  const NetId out_valid = b.not1(empty);
  const NetId push = b.and2(in_valid, in_ready);
  const NetId pop = b.and2(out_ready, out_valid);

  const NetId push_one = b.constant(1, 8);
  const NetId inc = b.mux2(b.zero(8), push_one, push, 8);
  const NetId pop_one = b.constant(1, 8);
  const NetId dec = b.mux2(b.zero(8), pop_one, pop, 8);
  const NetId next_count = b.sub(b.add(count.q, inc, 8), dec, 8);
  b.close(count, next_count, b.one());

  const auto wptr = b.counter(static_cast<std::uint32_t>(depth), push, 8, "wptr");
  const auto rptr = b.counter(static_cast<std::uint32_t>(depth), pop, 8, "rptr");
  const std::vector<NetId> slot_en = b.decode(wptr.value, static_cast<std::size_t>(depth));
  std::vector<NetId> slots;
  slots.reserve(static_cast<std::size_t>(depth));
  for (int i = 0; i < depth; ++i) {
    slots.push_back(b.ff(in_data, b.and2(push, slot_en[static_cast<std::size_t>(i)]), w));
  }
  b.out_port("out_data", b.muxn(slots, rptr.value, w));
  b.out_port("out_valid", out_valid);
  b.out_port("in_ready", in_ready);
  return std::move(b).take();
}

std::string stream_port_name(const char* direction, int index, const char* field) {
  std::string port = direction;
  if (index > 0) port += std::to_string(index + 1);
  port += "_";
  port += field;
  return port;
}

namespace {

/// Per-input source controller of a join component: accepts stream `k`
/// while LOADing until `volume` words arrived, holding a done latch (the
/// pool-controller idiom) so ports finishing early simply deassert ready.
struct JoinPort {
  NetId buf = kInvalidNet;   // BRAM read data (1-cycle latency)
  NetId done = kInvalidNet;  // done | wrapping this cycle
};

JoinPort make_join_port(NetlistBuilder& b, int k, int volume, NetId is_load,
                        NetId raddr) {
  JoinPort port;
  const NetId in_data = b.in_port(stream_port_name("in", k, "data"), kDataW);
  const NetId in_valid = b.in_port(stream_port_name("in", k, "valid"), 1);

  const NetlistBuilder::Reg done = b.reg(1, "ld_done" + std::to_string(k));
  const NetId accept = b.and2(is_load, b.not1(done.q));
  const NetId wr = b.and2(accept, in_valid);
  const auto pix = b.counter(static_cast<std::uint32_t>(volume), wr, kAddrW,
                             "ld_pix" + std::to_string(k));
  const NetId held = b.and2(is_load, b.or2(done.q, pix.wrap));
  b.close(done, held, b.one());

  port.buf = b.bram(pix.value, in_data, wr, static_cast<std::uint32_t>(volume), kDataW,
                    -1, "buf" + std::to_string(k), raddr);
  port.done = b.or2(done.q, pix.wrap);
  b.out_port(stream_port_name("in", k, "ready"), accept);
  return port;
}

}  // namespace

Netlist make_add_component(const std::string& name, int volume, int n_inputs,
                           bool fuse_relu) {
  Controller ctl(name, Source::kJoin, Phases::kLoadDrain);
  NetlistBuilder& b = ctl.builder;

  // Sink controller first: the shared read address feeds every bank.
  const NetId streaming = ctl.begin_drain();
  const auto rpix = b.counter(static_cast<std::uint32_t>(volume), streaming, kAddrW, "rpix");

  NetId load_done = kInvalidNet;
  NetId sum = kInvalidNet;
  const NetId one_q88 = b.constant(256, kDataW);  // 1.0 in Q8.8
  for (int k = 0; k < n_inputs; ++k) {
    const JoinPort port = make_join_port(b, k, volume, ctl.is_load, rpix.value);
    load_done = k == 0 ? port.done : b.and2(load_done, port.done);
    // Saturating fold, matching golden_add: acc = sat(buf_k + acc). A
    // stage-0 DSP computes clamp(clamp((a*b)>>8) + c) = sat(a + c) for
    // b == 1.0, so every partial sum saturates exactly like Fixed16::+.
    sum = k == 0 ? port.buf : b.dsp(port.buf, one_q88, sum, 8, 0, kDataW);
  }
  if (fuse_relu) sum = b.relu(sum, kDataW);
  ctl.drain_output(sum);
  return ctl.finish(load_done, kInvalidNet, rpix.wrap);
}

Netlist make_concat_component(const std::string& name, const std::vector<int>& volumes,
                              bool fuse_relu) {
  Controller ctl(name, Source::kJoin, Phases::kLoadDrain);
  NetlistBuilder& b = ctl.builder;

  long total = 0;
  for (int v : volumes) total += v;
  const NetId streaming = ctl.begin_drain();
  const auto rpix = b.counter(static_cast<std::uint32_t>(total), streaming, kAddrW, "rpix");

  NetId load_done = kInvalidNet;
  NetId data = kInvalidNet;
  long offset = 0;
  for (std::size_t k = 0; k < volumes.size(); ++k) {
    const int volume = volumes[k];
    // Bank k owns output words [offset, offset + volume); clamp the read
    // address to 0 outside that window so the BRAM never sees an
    // out-of-range index.
    const NetId off = b.constant(static_cast<std::uint64_t>(offset), kAddrW);
    const NetId ge_off =
        k == 0 ? b.one() : b.not1(b.ltu(rpix.value, off));
    const NetId below_end =
        k + 1 == volumes.size()
            ? b.one()
            : b.ltu(rpix.value,
                    b.constant(static_cast<std::uint64_t>(offset + volume), kAddrW));
    const NetId in_range = b.and2(ge_off, below_end);
    const NetId local = b.sub(rpix.value, off, kAddrW);
    const NetId raddr = b.mux2(b.zero(kAddrW), local, in_range, kAddrW);
    const JoinPort port =
        make_join_port(b, static_cast<int>(k), volume, ctl.is_load, raddr);
    load_done = k == 0 ? port.done : b.and2(load_done, port.done);
    // Bank select is aligned to the 1-cycle BRAM read latency.
    data = k == 0 ? port.buf : b.mux2(data, port.buf, b.delay(ge_off, 1, 1), kDataW);
    offset += volume;
  }
  if (fuse_relu) data = b.relu(data, kDataW);
  ctl.drain_output(data);
  return ctl.finish(load_done, kInvalidNet, rpix.wrap);
}

Netlist make_stream_fork(const std::string& name, int branches, int width) {
  NetlistBuilder b(name);
  const std::uint16_t w = static_cast<std::uint16_t>(width);
  const NetId in_data = b.in_port("in_data", w);
  const NetId in_valid = b.in_port("in_valid", 1);

  // One shared skid word, one full flag per branch. A new word is accepted
  // only when every branch is empty or popping this cycle, so the shared
  // register can never clobber an unconsumed word.
  std::vector<NetId> ready(static_cast<std::size_t>(branches));
  std::vector<NetlistBuilder::Reg> full(static_cast<std::size_t>(branches));
  NetId all_clear = kInvalidNet;
  for (std::size_t k = 0; k < full.size(); ++k) {
    ready[k] = b.in_port(stream_port_name("out", static_cast<int>(k), "ready"), 1);
    full[k] = b.reg(1, "full" + std::to_string(k));
    const NetId clear = b.or2(b.not1(full[k].q), ready[k]);
    all_clear = k == 0 ? clear : b.and2(all_clear, clear);
  }
  const NetId push = b.and2(in_valid, all_clear);
  const NetId data = b.ff(in_data, push, w, "skid");
  for (std::size_t k = 0; k < full.size(); ++k) {
    const NetId hold = b.and2(full[k].q, b.not1(ready[k]));
    const NetId next = b.or2(push, hold);
    b.close(full[k], next, b.one());
    b.out_port(stream_port_name("out", static_cast<int>(k), "data"), data);
    b.out_port(stream_port_name("out", static_cast<int>(k), "valid"), full[k].q);
  }
  b.out_port("in_ready", all_clear);
  return std::move(b).take();
}

}  // namespace fpgasim
