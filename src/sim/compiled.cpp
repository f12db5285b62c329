#include "sim/compiled.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <queue>
#include <stdexcept>

#include "sim/eval.h"
#include "sim/fixed.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace fpgasim {
namespace {

constexpr std::size_t kLanes = SimPlan::kLanes;

std::uint64_t width_mask(int width) {
  return width >= 64 ? ~0ULL : ((1ULL << width) - 1);
}

std::atomic<std::uint64_t> g_plans_compiled{0};

// Plan tables address the arena, pipes and memories with 32-bit offsets; a
// wrapped offset would silently alias two memories, so it fails the
// compile instead.
std::uint32_t checked_offset(std::size_t value, const char* what, const Cell& cell,
                             CellId id) {
  if (value > std::numeric_limits<std::uint32_t>::max()) {
    throw std::runtime_error("compiled sim: " + std::string(what) + " " +
                             std::to_string(value) + " of cell '" + cell.name + "' (#" +
                             std::to_string(id) + ") exceeds the 32-bit offset range");
  }
  return static_cast<std::uint32_t>(value);
}

}  // namespace

std::uint64_t SimPlan::plans_compiled() {
  return g_plans_compiled.load(std::memory_order_relaxed);
}

SimPlan::SimPlan(const Netlist& netlist) : name_(netlist.name()) {
  net_count_ = netlist.net_count();
  const auto slot_of = [](NetId n) { return static_cast<std::uint32_t>(n * kLanes); };

  // Hidden slot groups: one per pipelined DSP (its combinational MAC value,
  // computed during settle, captured by the pipe on step), plus a single
  // always-zero group that unconnected input pins resolve to.
  std::vector<std::uint32_t> dsp_hidden(netlist.cell_count(), 0);
  std::size_t hidden = 0;
  for (CellId c = 0; c < netlist.cell_count(); ++c) {
    const Cell& cell = netlist.cell(c);
    if (cell.type == CellType::kDsp && cell.stages > 0) {
      dsp_hidden[c] = static_cast<std::uint32_t>((net_count_ + hidden) * kLanes);
      ++hidden;
    }
  }
  const std::size_t state_elems = (net_count_ + hidden + 1) * kLanes;
  if (state_elems > std::numeric_limits<std::uint32_t>::max()) {
    throw std::runtime_error("compiled sim: net state of '" + name_ +
                             "' exceeds the 32-bit offset range");
  }
  const auto zero_slot = static_cast<std::uint32_t>((net_count_ + hidden) * kLanes);

  const auto pin_slot = [&](const Cell& cell, std::size_t pin) -> std::uint32_t {
    if (pin >= cell.inputs.size() || cell.inputs[pin] == kInvalidNet) return zero_slot;
    return slot_of(cell.inputs[pin]);
  };

  // Schedule nodes: combinational cells minus constants. Kahn over
  // comb->comb edges detects loops and yields a topological order; levels
  // are the longest-path depth, so cells within a level are independent.
  // (Pipelined-DSP MAC captures are NOT part of the settle schedule: they
  // are only needed once per clock edge, so they evaluate in step()
  // phase 1 against the already-settled fabric — the interpreter likewise
  // computes each MAC once per cycle.)
  struct Node {
    CellId cell;
  };
  std::vector<Node> nodes;
  std::vector<std::int32_t> comb_node(netlist.cell_count(), -1);
  for (CellId c = 0; c < netlist.cell_count(); ++c) {
    const Cell& cell = netlist.cell(c);
    if (cell.type == CellType::kConst || is_sequential_cell(cell)) continue;
    comb_node[c] = static_cast<std::int32_t>(nodes.size());
    nodes.push_back({c});
  }

  std::vector<int> indegree(nodes.size(), 0);
  for (const Node& node : nodes) {
    const Cell& cell = netlist.cell(node.cell);
    for (NetId in : cell.inputs) {
      if (in == kInvalidNet) continue;
      const Net& net = netlist.net(in);
      if (net.driver != kInvalidCell && comb_node[net.driver] >= 0) {
        ++indegree[static_cast<std::size_t>(comb_node[node.cell])];
      }
    }
  }
  std::vector<int> level(nodes.size(), 0);
  std::queue<std::size_t> ready;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (indegree[i] == 0) ready.push(i);
  }
  std::size_t processed = 0;
  int max_level = -1;
  while (!ready.empty()) {
    const std::size_t i = ready.front();
    ready.pop();
    ++processed;
    max_level = std::max(max_level, level[i]);
    for (NetId out : netlist.cell(nodes[i].cell).outputs) {
      if (out == kInvalidNet) continue;
      for (const auto& [sink, pin] : netlist.net(out).sinks) {
        (void)pin;
        const std::int32_t j = comb_node[sink];
        if (j < 0) continue;
        level[static_cast<std::size_t>(j)] =
            std::max(level[static_cast<std::size_t>(j)], level[i] + 1);
        if (--indegree[static_cast<std::size_t>(j)] == 0) {
          ready.push(static_cast<std::size_t>(j));
        }
      }
    }
  }
  if (processed != nodes.size()) {
    throw std::runtime_error("compiled sim: combinational loop in netlist '" + name_ + "'");
  }

  // Stable (level, cell-id) order: deterministic and levelized.
  std::vector<std::size_t> order(nodes.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    if (level[x] != level[y]) return level[x] < level[y];
    return nodes[x].cell < nodes[y].cell;
  });

  level_begin_.assign(static_cast<std::size_t>(max_level + 2), 0);
  for (std::size_t i : order) {
    const Node& node = nodes[i];
    const Cell& cell = netlist.cell(node.cell);

    CombOp op;
    op.width = cell.width;
    op.mask = width_mask(cell.width);
    op.init = cell.init;
    op.a = pin_slot(cell, 0);
    op.b = pin_slot(cell, 1);
    op.c = pin_slot(cell, 2);

    {
      switch (cell.type) {
        case CellType::kLut:
          switch (cell.op) {
            case LutOp::kAnd: op.op = Op::kAnd; break;
            case LutOp::kOr: op.op = Op::kOr; break;
            case LutOp::kXor: op.op = Op::kXor; break;
            case LutOp::kNot: op.op = Op::kNot; break;
            case LutOp::kMux2: op.op = Op::kMux2; break;
            case LutOp::kEq: op.op = Op::kEq; break;
            case LutOp::kLtU: op.op = Op::kLtU; break;
            case LutOp::kPass: op.op = Op::kPass; break;
            case LutOp::kTruth6: {
              op.op = Op::kTruth6;
              op.in_begin = static_cast<std::uint32_t>(truth_inputs_.size());
              const std::size_t n = std::min(cell.inputs.size(), kMaxCombPins);
              for (std::size_t p = 0; p < n; ++p) truth_inputs_.push_back(pin_slot(cell, p));
              op.in_count = static_cast<std::uint32_t>(n);
              break;
            }
          }
          break;
        case CellType::kAdd:
          op.op = (cell.init & 1) != 0 ? Op::kSub : Op::kAdd;
          break;
        case CellType::kMax: op.op = Op::kMax; break;
        case CellType::kRelu: op.op = Op::kRelu; break;
        case CellType::kDsp: op.op = Op::kDsp; break;  // stages == 0
        default:
          continue;  // unreachable: consts folded, sequentials below
      }
      // Primary output plus explicit fan-out of any further output pins.
      std::uint32_t primary = zero_slot;
      bool have_primary = false;
      for (NetId out : cell.outputs) {
        if (out == kInvalidNet) continue;
        if (!have_primary) {
          primary = slot_of(out);
          have_primary = true;
        } else {
          if (op.fan_count == 0) op.fan_begin = static_cast<std::uint32_t>(fanout_.size());
          fanout_.push_back(slot_of(out));
          ++op.fan_count;
        }
      }
      if (!have_primary) continue;  // nothing observable
      op.out = primary;
    }
    level_begin_[static_cast<std::size_t>(level[i]) + 1] += 1;
    ops_.push_back(op);
  }
  // Prefix-sum the per-level counts into [begin, end) offsets.
  for (std::size_t l = 1; l < level_begin_.size(); ++l) {
    level_begin_[l] += level_begin_[l - 1];
  }

  // One MAC-capture op per pipelined DSP, evaluated once per clock edge in
  // step() phase 1 (the fabric is settled there, so no levelization
  // needed); the result lands in the DSP's hidden slot.
  for (CellId c = 0; c < netlist.cell_count(); ++c) {
    const Cell& cell = netlist.cell(c);
    if (cell.type != CellType::kDsp || cell.stages == 0) continue;
    CombOp op;
    op.op = Op::kDsp;
    op.width = cell.width;
    op.mask = width_mask(cell.width);
    op.init = cell.init;
    op.a = pin_slot(cell, 0);
    op.b = pin_slot(cell, 1);
    op.c = pin_slot(cell, 2);
    op.out = dsp_hidden[c];
    dsp_capture_.push_back(op);
  }

  // Sequential plan, in cell order (deterministic; order is semantically
  // irrelevant thanks to the two-phase edge). The memory address space is
  // split at compile time: read-only BRAMs (no write port) hold
  // lane-invariant contents, so one copy lives in the PLAN and is shared
  // by every context (a VGG coefficient set would otherwise cost 64x per
  // context); writable memories get a lane-major copy in each context's
  // writable-memory block.
  std::size_t pipe_words = 0;
  std::size_t rom_words = 0;
  std::size_t wmem_words = 0;
  std::uint32_t capture_index = 0;
  for (CellId c = 0; c < netlist.cell_count(); ++c) {
    const Cell& cell = netlist.cell(c);
    if (!is_sequential_cell(cell)) continue;

    SeqOp sq;
    sq.type = cell.type;
    sq.width = cell.width;
    sq.mask = width_mask(cell.width);
    sq.depth = static_cast<std::uint32_t>(seq_pipe_depth(cell));
    sq.pipe_base = checked_offset(pipe_words, "pipe base", cell, c);
    pipe_words += sq.depth * kLanes;

    switch (cell.type) {
      case CellType::kFf:
      case CellType::kSrl:
        sq.d = pin_slot(cell, 0);
        sq.has_ce = cell.inputs.size() > 1 && cell.inputs[1] != kInvalidNet;
        if (sq.has_ce) sq.ce = slot_of(cell.inputs[1]);
        break;
      case CellType::kDsp:
        sq.d = dsp_hidden[c];  // MAC value computed by the capture op
        sq.capture = capture_index++;
        break;
      case CellType::kBram: {
        sq.waddr = pin_slot(cell, 0);
        sq.wdata = pin_slot(cell, 1);
        sq.has_we = cell.inputs.size() > 2 && cell.inputs[2] != kInvalidNet;
        if (sq.has_we) sq.we = slot_of(cell.inputs[2]);
        const bool has_raddr = cell.inputs.size() > 3 && cell.inputs[3] != kInvalidNet;
        sq.raddr = has_raddr ? slot_of(cell.inputs[3]) : sq.waddr;
        sq.mem_depth = cell.bram_depth;
        sq.mem_shared = !sq.has_we;
        if (sq.mem_shared) {
          sq.mem_base = checked_offset(rom_words, "ROM base", cell, c);
          rom_words += sq.mem_depth;
        } else {
          sq.mem_base = checked_offset(wmem_words, "writable-memory base", cell, c);
          wmem_words += static_cast<std::size_t>(sq.mem_depth) * kLanes;
        }
        break;
      }
      default:
        break;
    }

    for (NetId out : cell.outputs) {
      if (out == kInvalidNet) continue;
      if (sq.fan_count == 0) sq.fan_begin = static_cast<std::uint32_t>(fanout_.size());
      fanout_.push_back(slot_of(out));
      ++sq.fan_count;
    }
    seq_.push_back(sq);
  }
  std::uint32_t max_depth = 1;
  for (const SeqOp& sq : seq_) max_depth = std::max(max_depth, sq.depth);

  // Port tables (name -> slot, resolved once).
  for (const Port& port : netlist.ports()) {
    PortPlan plan{port.name, slot_of(port.net), port.width};
    (port.dir == PortDir::kInput ? inputs_ : outputs_).push_back(plan);
  }

  // Lane word selection: 32-bit lanes when every value in the design fits
  // (DSP MACs use 64-bit intermediates either way, so any shift is safe),
  // else the general 64-bit engine.
  narrow_ = true;
  for (CellId c = 0; c < netlist.cell_count(); ++c) {
    if (netlist.cell(c).width > 32) narrow_ = false;
  }
  for (const Port& port : netlist.ports()) {
    if (port.width > 32) narrow_ = false;
  }

  // Per-context arena layout. Every section is a whole number of 64-wide
  // lane groups, so each starts cache-line aligned regardless of lane
  // width; align_elems guards the invariant if a section ever stops being
  // group-granular.
  const std::size_t elem_bytes = narrow_ ? 4 : 8;
  layout_.state_elems = state_elems;
  layout_.pipe_elems = pipe_words;
  layout_.next_elems = seq_.size() * kLanes;
  layout_.ring_elems = static_cast<std::size_t>(max_depth) * kLanes;
  layout_.wmem_elems = wmem_words;
  layout_.state = 0;
  layout_.pipe = layout_.state + align_elems(layout_.state_elems, elem_bytes);
  layout_.next = layout_.pipe + align_elems(layout_.pipe_elems, elem_bytes);
  layout_.ring = layout_.next + align_elems(layout_.next_elems, elem_bytes);
  layout_.arena = layout_.ring + align_elems(layout_.ring_elems, elem_bytes);
  layout_.total = layout_.arena + align_elems(layout_.wmem_elems, elem_bytes);

  if (narrow_) {
    build_init_images<std::uint32_t>(netlist);
  } else {
    build_init_images<std::uint64_t>(netlist);
  }
  g_plans_compiled.fetch_add(1, std::memory_order_relaxed);
}

template <typename W>
void SimPlan::build_init_images(const Netlist& netlist) {
  constexpr bool kNarrowW = sizeof(W) == 4;
  auto& init_state = [this]() -> std::vector<W>& {
    if constexpr (kNarrowW) return init_state32_; else return init_state64_;
  }();
  auto& rom = [this]() -> std::vector<W>& {
    if constexpr (kNarrowW) return rom32_; else return rom64_;
  }();
  init_state.assign(layout_.state_elems, 0);

  // Fold constants into the initial state image; they never change, so
  // contexts inherit them on construction and reset.
  for (CellId c = 0; c < netlist.cell_count(); ++c) {
    const Cell& cell = netlist.cell(c);
    if (cell.type != CellType::kConst) continue;
    const W v = static_cast<W>(mask_width(cell.init, cell.width));
    for (NetId out : cell.outputs) {
      if (out == kInvalidNet) continue;
      std::fill_n(&init_state[out * kLanes], kLanes, v);
    }
  }

  // ROM preloads: read-only memories into the shared plan image, nonzero
  // rows of writable ROM-initialized memories into the sparse preload
  // list (sorted: memories and their rows are visited in offset order).
  std::size_t rom_total = 0;
  for (const SeqOp& sq : seq_) {
    if (sq.mem_shared) rom_total += sq.mem_depth;
  }
  rom.assign(rom_total, 0);
  std::size_t si = 0;
  for (CellId c = 0; c < netlist.cell_count(); ++c) {
    const Cell& cell = netlist.cell(c);
    if (!is_sequential_cell(cell)) continue;
    SeqOp& sq = seq_[si++];
    if (cell.type != CellType::kBram || cell.rom_id < 0) continue;
    const auto& image = netlist.rom(cell.rom_id);
    for (std::size_t i = 0; i < sq.mem_depth && i < image.size(); ++i) {
      const std::uint64_t v = mask_width(image[i], cell.width);
      if (sq.mem_shared) {
        rom[sq.mem_base + i] = static_cast<W>(v);
      } else if (v != 0) {
        preloads_.push_back({sq.mem_base + i * kLanes, v});
      }
    }
  }
}

int SimPlan::input_index(const std::string& name) const {
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    if (inputs_[i].name == name) return static_cast<int>(i);
  }
  throw std::runtime_error("compiled sim: no input port '" + name + "'");
}

int SimPlan::output_index(const std::string& name) const {
  for (std::size_t i = 0; i < outputs_.size(); ++i) {
    if (outputs_[i].name == name) return static_cast<int>(i);
  }
  throw std::runtime_error("compiled sim: no output port '" + name + "'");
}

SimContext::SimContext(std::shared_ptr<const SimPlan> plan)
    : plan_(std::move(plan)),
      wmem_(plan_->layout_.wmem_elems * plan_->lane_bytes()) {
  const SimPlan& p = *plan_;
  const std::size_t pages =
      (p.layout_.wmem_elems + SimPlan::kPageElems - 1) / SimPlan::kPageElems;
  dirty_pages_.assign((pages + 63) / 64, 0);
  changed_.assign(p.layout_.state_elems / kLanes, 0);
  if (p.narrow_) {
    arena32_.resize(p.layout_.arena);
    apply_preloads<std::uint32_t>(0, p.layout_.wmem_elems);
    reset_impl<std::uint32_t>();
  } else {
    arena64_.resize(p.layout_.arena);
    apply_preloads<std::uint64_t>(0, p.layout_.wmem_elems);
    reset_impl<std::uint64_t>();
  }
}

void SimContext::reset() {
  ++resets_;
  if (plan_->narrow_) reset_impl<std::uint32_t>();
  else reset_impl<std::uint64_t>();
}

template <typename W>
void SimContext::reset_impl() {
  const SimPlan& p = *plan_;
  // Re-image state, flush pipes and scratch, and restore only the
  // writable-memory pages written since the last reset — all in place, no
  // reallocation (the serving engine resets a context per batch). Every
  // group is stamped and the edge epoch cleared, so the first settle
  // evaluates every op and the first edge captures every register.
  const auto& init_state = p.init_state_vec<W>();
  std::copy(init_state.begin(), init_state.end(), state_base<W>());
  std::fill_n(pipe_base<W>(), p.layout_.pipe_elems, W{0});
  std::fill_n(next_base<W>(), p.layout_.next_elems, W{0});
  std::fill_n(ring_base<W>(), p.layout_.ring_elems, W{0});
  W* wmem = wmem_base<W>();
  for (std::size_t word = 0; word < dirty_pages_.size(); ++word) {
    for (std::uint64_t bits = dirty_pages_[word]; bits != 0; bits &= bits - 1) {
      const std::size_t page = word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      const std::size_t begin = page * SimPlan::kPageElems;
      const std::size_t end = std::min(begin + SimPlan::kPageElems, p.layout_.wmem_elems);
      std::fill(wmem + begin, wmem + end, W{0});
      apply_preloads<W>(begin, end);
    }
    dirty_pages_[word] = 0;
  }
  seq_head_.assign(p.seq_.size(), 0);
  seq_en_.assign(p.seq_.size(), 0);
  cycle_ = 0;
  std::fill(changed_.begin(), changed_.end(), epoch_);
  dirty_ = true;
  edge_epoch_ = 0;
  settle_if_dirty();
}

template <typename W>
void SimContext::apply_preloads(std::size_t begin, std::size_t end) {
  const auto& preloads = plan_->preloads_;
  auto it = std::lower_bound(
      preloads.begin(), preloads.end(), begin,
      [](const SimPlan::Preload& row, std::size_t at) { return row.offset < at; });
  W* wmem = wmem_base<W>();
  for (; it != preloads.end() && it->offset < end; ++it) {
    std::fill_n(wmem + it->offset, kLanes, static_cast<W>(it->value));
  }
}

void SimContext::set_inputs(int input, std::span<const std::uint64_t> lanes) {
  const SimPlan::PortPlan& port = plan_->inputs_[static_cast<std::size_t>(input)];
  const std::uint64_t m = width_mask(port.width);
  const std::size_t n = std::min(lanes.size(), kLanes);
  if (plan_->narrow_) {
    std::uint32_t* v = state_base<std::uint32_t>() + port.slot;
    for (std::size_t l = 0; l < n; ++l) v[l] = static_cast<std::uint32_t>(lanes[l] & m);
  } else {
    std::uint64_t* v = state_base<std::uint64_t>() + port.slot;
    for (std::size_t l = 0; l < n; ++l) v[l] = lanes[l] & m;
  }
  stamp(port.slot);
}

void SimContext::set_inputs(int input, std::uint64_t value_all_lanes) {
  const SimPlan::PortPlan& port = plan_->inputs_[static_cast<std::size_t>(input)];
  const std::uint64_t v = value_all_lanes & width_mask(port.width);
  if (plan_->narrow_) {
    std::fill_n(state_base<std::uint32_t>() + port.slot, kLanes,
                static_cast<std::uint32_t>(v));
  } else {
    std::fill_n(state_base<std::uint64_t>() + port.slot, kLanes, v);
  }
  stamp(port.slot);
}

void SimContext::set_input_frame(std::span<const std::uint64_t> frame) {
  const auto& inputs = plan_->inputs_;
  if (plan_->narrow_) {
    std::uint32_t* state = state_base<std::uint32_t>();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const std::uint64_t m = width_mask(inputs[i].width);
      const std::uint64_t* src = frame.data() + i * kLanes;
      std::uint32_t* v = state + inputs[i].slot;
      for (std::size_t l = 0; l < kLanes; ++l) v[l] = static_cast<std::uint32_t>(src[l] & m);
    }
  } else {
    std::uint64_t* state = state_base<std::uint64_t>();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const std::uint64_t m = width_mask(inputs[i].width);
      const std::uint64_t* src = frame.data() + i * kLanes;
      std::uint64_t* v = state + inputs[i].slot;
      for (std::size_t l = 0; l < kLanes; ++l) v[l] = src[l] & m;
    }
  }
  for (const SimPlan::PortPlan& port : inputs) stamp(port.slot);
}

void SimContext::get_output_frame(std::span<std::uint64_t> frame) const {
  settle_if_dirty();
  const auto& outputs = plan_->outputs_;
  if (plan_->narrow_) {
    const std::uint32_t* state = state_base<std::uint32_t>();
    for (std::size_t o = 0; o < outputs.size(); ++o) {
      const std::uint32_t* v = state + outputs[o].slot;
      std::uint64_t* dst = frame.data() + o * kLanes;
      for (std::size_t l = 0; l < kLanes; ++l) dst[l] = v[l];
    }
  } else {
    const std::uint64_t* state = state_base<std::uint64_t>();
    for (std::size_t o = 0; o < outputs.size(); ++o) {
      std::copy_n(state + outputs[o].slot, kLanes, frame.data() + o * kLanes);
    }
  }
}

void SimContext::get_outputs(int output, std::span<std::uint64_t> lanes) const {
  settle_if_dirty();
  const SimPlan::PortPlan& port = plan_->outputs_[static_cast<std::size_t>(output)];
  const std::size_t n = std::min(lanes.size(), kLanes);
  if (plan_->narrow_) {
    const std::uint32_t* v = state_base<std::uint32_t>() + port.slot;
    for (std::size_t l = 0; l < n; ++l) lanes[l] = v[l];
  } else {
    const std::uint64_t* v = state_base<std::uint64_t>() + port.slot;
    for (std::size_t l = 0; l < n; ++l) lanes[l] = v[l];
  }
}

std::uint64_t SimContext::get_output(int output, std::size_t lane) const {
  settle_if_dirty();
  const std::uint32_t slot = plan_->outputs_[static_cast<std::size_t>(output)].slot;
  return plan_->narrow_ ? state_base<std::uint32_t>()[slot + lane]
                        : state_base<std::uint64_t>()[slot + lane];
}

std::uint64_t SimContext::peek_net(NetId net, std::size_t lane) const {
  settle_if_dirty();
  return plan_->narrow_ ? state_base<std::uint32_t>()[net * kLanes + lane]
                        : state_base<std::uint64_t>()[net * kLanes + lane];
}

std::uint64_t SimContext::state_digest() const {
  settle_if_dirty();
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;  // FNV-1a 64
  const std::size_t words = plan_->net_count_ * kLanes;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  if (plan_->narrow_) {
    const std::uint32_t* s = state_base<std::uint32_t>();
    for (std::size_t i = 0; i < words; ++i) h = (h ^ s[i]) * kPrime;
  } else {
    const std::uint64_t* s = state_base<std::uint64_t>();
    for (std::size_t i = 0; i < words; ++i) h = (h ^ s[i]) * kPrime;
  }
  return h;
}

template <typename W>
bool SimContext::eval_op(const SimPlan::CombOp& op) const {
  // Signed intermediates for compare/relu: 32-bit suffices for 32-bit
  // lanes (values are masked to <= 32 bits), 64-bit otherwise. The DSP
  // MAC always widens to 64-bit (see Op::kDsp below).
  using SW = std::conditional_t<sizeof(W) == 4, std::int32_t, std::int64_t>;
  using UW = std::make_unsigned_t<SW>;
  constexpr int kSWBits = sizeof(SW) * 8;
  using Op = SimPlan::Op;
  // Sign-extend a w-bit lane value: shift left in the unsigned domain
  // (never overflows), arithmetic shift back.
  const auto sx = [](W v, int k) {
    return static_cast<SW>(static_cast<UW>(v) << k) >> k;
  };
  W* state = state_base<W>();
  const W* a = state + op.a;
  const W* b = state + op.b;
  const W* c = state + op.c;
  W* o = state + op.out;
  const W m = static_cast<W>(op.mask);
  const int w = op.width;
  // Every kernel stores through put(), which folds old ^ new into `diff`
  // so change detection rides along in the same vectorized loop.
  W diff = 0;
  const auto put = [&](std::size_t l, W v) {
    diff |= static_cast<W>(o[l] ^ v);
    o[l] = v;
  };
  switch (op.op) {
    case Op::kAnd:
      for (std::size_t l = 0; l < kLanes; ++l) put(l, static_cast<W>(a[l] & b[l] & m));
      break;
    case Op::kOr:
      for (std::size_t l = 0; l < kLanes; ++l) put(l, static_cast<W>((a[l] | b[l]) & m));
      break;
    case Op::kXor:
      for (std::size_t l = 0; l < kLanes; ++l) put(l, static_cast<W>((a[l] ^ b[l]) & m));
      break;
    case Op::kNot:
      for (std::size_t l = 0; l < kLanes; ++l) put(l, static_cast<W>(~a[l] & m));
      break;
    case Op::kMux2:
      for (std::size_t l = 0; l < kLanes; ++l) {
        put(l, static_cast<W>(((c[l] & 1) != 0 ? b[l] : a[l]) & m));
      }
      break;
    case Op::kEq:
      for (std::size_t l = 0; l < kLanes; ++l) put(l, a[l] == b[l] ? 1 : 0);
      break;
    case Op::kLtU:
      for (std::size_t l = 0; l < kLanes; ++l) put(l, a[l] < b[l] ? 1 : 0);
      break;
    case Op::kPass:
      for (std::size_t l = 0; l < kLanes; ++l) put(l, static_cast<W>(a[l] & m));
      break;
    case Op::kTruth6: {
      const std::uint32_t* tin = &plan_->truth_inputs_[op.in_begin];
      const std::uint64_t table = op.init;
      for (std::size_t l = 0; l < kLanes; ++l) {
        std::uint64_t index = 0;
        for (std::uint32_t j = 0; j < op.in_count; ++j) {
          index |= static_cast<std::uint64_t>(state[tin[j] + l] & 1) << j;
        }
        put(l, static_cast<W>((table >> index) & 1));
      }
      break;
    }
    case Op::kAdd:
      for (std::size_t l = 0; l < kLanes; ++l) put(l, static_cast<W>((a[l] + b[l]) & m));
      break;
    case Op::kSub:
      for (std::size_t l = 0; l < kLanes; ++l) put(l, static_cast<W>((a[l] - b[l]) & m));
      break;
    case Op::kMax: {
      const int k = kSWBits - w;
      for (std::size_t l = 0; l < kLanes; ++l) {
        const SW sa = sx(a[l], k);
        const SW sb = sx(b[l], k);
        put(l, static_cast<W>(static_cast<W>(sa >= sb ? sa : sb) & m));
      }
      break;
    }
    case Op::kRelu: {
      const int k = kSWBits - w;
      for (std::size_t l = 0; l < kLanes; ++l) {
        const SW sa = sx(a[l], k);
        put(l, static_cast<W>(static_cast<W>(sa > 0 ? sa : 0) & m));
      }
      break;
    }
    case Op::kDsp: {
      const int shift = static_cast<int>(op.init & 0x3f);
      if (w >= 64) {  // sext and clamp are identities at full width
        for (std::size_t l = 0; l < kLanes; ++l) {
          // Unsigned-domain wrap multiply/add, matching eval_comb_cell.
          const std::int64_t prod =
              static_cast<std::int64_t>(static_cast<std::uint64_t>(a[l]) *
                                        static_cast<std::uint64_t>(b[l])) >> shift;
          put(l, static_cast<W>(static_cast<std::uint64_t>(prod) +
                                static_cast<std::uint64_t>(c[l])));
        }
        break;
      }
      // Fast path: a 16x16 MAC fits int32 exactly (|product| <= 2^30)
      // when the post-multiply shift keeps the int32 shift defined; int32
      // lanes vectorize ~4x denser than the general int64 path below.
      if (w <= 16 && shift <= 30) {
        const int k32 = 32 - w;
        const auto sx32 = [](W v, int kk) {
          return static_cast<std::int32_t>(static_cast<std::uint32_t>(v) << kk) >> kk;
        };
        const std::int32_t hi32 = (std::int32_t{1} << (w - 1)) - 1;
        const std::int32_t lo32 = -hi32 - 1;
        for (std::size_t l = 0; l < kLanes; ++l) {
          const std::int32_t sa = sx32(static_cast<W>(a[l] & m), k32);
          const std::int32_t sb = sx32(static_cast<W>(b[l] & m), k32);
          const std::int32_t sc = sx32(static_cast<W>(c[l] & m), k32);
          std::int32_t prod = (sa * sb) >> shift;
          prod = prod > hi32 ? hi32 : prod < lo32 ? lo32 : prod;
          std::int32_t sum = prod + sc;
          sum = sum > hi32 ? hi32 : sum < lo32 ? lo32 : sum;
          put(l, static_cast<W>(static_cast<std::uint32_t>(sum) & op.mask));
        }
        break;
      }
      // General: 64-bit intermediates (a 32x32 MAC overflows int32), with
      // hoisted sign-extension shift and branchless clamps so the 64-lane
      // loop vectorizes; semantics identical to eval_comb_cell.
      const int k = 64 - w;
      const auto sx64 = [](W v, int kk) {
        return static_cast<std::int64_t>(static_cast<std::uint64_t>(v) << kk) >> kk;
      };
      const std::int64_t hi = (std::int64_t{1} << (w - 1)) - 1;
      const std::int64_t lo = -hi - 1;
      for (std::size_t l = 0; l < kLanes; ++l) {
        const std::int64_t sa = sx64(a[l], k);
        const std::int64_t sb = sx64(b[l], k);
        const std::int64_t sc = sx64(c[l], k);
        // Wrap multiply in the unsigned domain (w up to 63 overflows int64).
        std::int64_t prod = static_cast<std::int64_t>(
                                static_cast<std::uint64_t>(sa) *
                                static_cast<std::uint64_t>(sb)) >> shift;
        prod = prod > hi ? hi : prod < lo ? lo : prod;
        std::int64_t sum = prod + sc;
        sum = sum > hi ? hi : sum < lo ? lo : sum;
        put(l, static_cast<W>(static_cast<std::uint64_t>(sum) & op.mask));
      }
      break;
    }
  }
  return diff != 0;
}

void SimContext::settle_if_dirty() const {
  if (!dirty_) return;
  if (plan_->narrow_) settle_impl<std::uint32_t>();
  else settle_impl<std::uint64_t>();
}

template <typename W>
void SimContext::settle_impl() const {
  const SimPlan& p = *plan_;
  const std::uint64_t e = epoch_;
  std::uint64_t* changed = changed_.data();
  const std::uint32_t* truth = p.truth_inputs_.data();
  W* state = state_base<W>();
  for (const SimPlan::CombOp& op : p.ops_) {
    // Levelized order: every input group is final by the time the op is
    // reached, so one pass sees every change it must react to.
    bool live = changed[op.a / kLanes] == e || changed[op.b / kLanes] == e ||
                changed[op.c / kLanes] == e;
    for (std::uint32_t j = 0; !live && j < op.in_count; ++j) {
      live = changed[truth[op.in_begin + j] / kLanes] == e;
    }
    if (!live) continue;
    ++comb_evals_;
    if (!eval_op<W>(op)) continue;
    changed[op.out / kLanes] = e;
    const W* o = state + op.out;
    for (std::uint32_t f = 0; f < op.fan_count; ++f) {
      const std::uint32_t slot = p.fanout_[op.fan_begin + f];
      std::copy_n(o, kLanes, state + slot);
      changed[slot / kLanes] = e;
    }
  }
  ++epoch_;
  dirty_ = false;
}

void SimContext::step() {
  if (plan_->narrow_) step_impl<std::uint32_t>();
  else step_impl<std::uint64_t>();
}

template <typename W>
void SimContext::step_impl() {
  settle_if_dirty();  // phase 1 must read a settled fabric
  const SimPlan& p = *plan_;
  W* state = state_base<W>();
  W* pipe_state = pipe_base<W>();
  W* seq_next = next_base<W>();
  W* ring_scratch = ring_base<W>();
  W* wmem_state = wmem_base<W>();
  std::uint64_t* dirty = dirty_pages_.data();
  const W* rom_state = p.rom_vec<W>().data();
  // Groups stamped at or after `since` changed after the previous edge's
  // capture read them (the fabric is settled, so every stamp is < epoch_).
  const std::uint64_t since = edge_epoch_;
  edge_epoch_ = epoch_;

  // Phase 1: capture next values and enables for every sequential op.
  for (std::size_t i = 0; i < p.seq_.size(); ++i) {
    const SimPlan::SeqOp& sq = p.seq_[i];
    // A quiet depth-1 register already holds what it would capture: the
    // previous edge wrote D to the lanes CE enabled, and neither has
    // changed since. Deeper pipes still shift, so they always run.
    if ((sq.type == CellType::kFf || sq.type == CellType::kSrl) && sq.depth == 1 &&
        changed_[sq.d / kLanes] < since &&
        (!sq.has_ce || changed_[sq.ce / kLanes] < since)) {
      seq_en_[i] = 0;
      continue;
    }
    W* next = &seq_next[i * kLanes];
    std::uint64_t en = ~0ULL;
    if (sq.has_ce) {
      const W* ce = state + sq.ce;
      en = 0;
      for (std::size_t l = 0; l < kLanes; ++l) {
        en |= static_cast<std::uint64_t>(ce[l] & 1) << l;
      }
    }
    seq_en_[i] = en;

    switch (sq.type) {
      case CellType::kFf:
      case CellType::kSrl: {
        const W* d = state + sq.d;
        const W mask = static_cast<W>(sq.mask);
        for (std::size_t l = 0; l < kLanes; ++l) next[l] = static_cast<W>(d[l] & mask);
        break;
      }
      case CellType::kDsp: {
        // Compute the MAC once per edge against the settled fabric (the
        // capture is not part of the settle schedule).
        eval_op<W>(p.dsp_capture_[sq.capture]);
        std::copy_n(state + sq.d, kLanes, next);
        break;
      }
      case CellType::kBram: {
        const W* raddr = state + sq.raddr;
        if (sq.mem_shared) {
          const W* mem = sq.mem_depth > 0 ? rom_state + sq.mem_base : nullptr;
          for (std::size_t l = 0; l < kLanes; ++l) {
            next[l] = raddr[l] < sq.mem_depth ? mem[raddr[l]] : 0;
          }
        } else {
          for (std::size_t l = 0; l < kLanes; ++l) {
            next[l] = raddr[l] < sq.mem_depth
                          ? wmem_state[sq.mem_base + raddr[l] * kLanes + l]
                          : 0;
          }
          // Read-first within the cell: the write lands after the capture.
          const W* we = state + sq.we;
          const W* waddr = state + sq.waddr;
          const W* wdata = state + sq.wdata;
          const W mask = static_cast<W>(sq.mask);
          for (std::size_t l = 0; l < kLanes; ++l) {
            if ((we[l] & 1) != 0 && waddr[l] < sq.mem_depth) {
              const std::size_t at = sq.mem_base + waddr[l] * kLanes + l;
              wmem_state[at] = static_cast<W>(wdata[l] & mask);
              const std::size_t page = at / SimPlan::kPageElems;
              dirty[page / 64] |= 1ULL << (page % 64);
            }
          }
        }
        break;
      }
      default:
        break;
    }
  }

  // Drives every output slot of `sq` from `src` when it differs from the
  // value they hold (all of them hold the same one), stamping them.
  const auto drive = [&](const SimPlan::SeqOp& sq, const W* src) {
    if (sq.fan_count == 0) return;
    const std::uint32_t* fan = &p.fanout_[sq.fan_begin];
    const W* held = state + fan[0];
    W diff = 0;
    for (std::size_t l = 0; l < kLanes; ++l) diff |= static_cast<W>(held[l] ^ src[l]);
    if (diff == 0) return;
    for (std::uint32_t f = 0; f < sq.fan_count; ++f) {
      std::copy_n(src, kLanes, state + fan[f]);
      stamp(fan[f]);
    }
  };

  // Phase 2: commit pipes and drive every connected output pin. The pipe
  // is a ring (logical slot s at physical (head + s) % depth): the common
  // all-lanes-enabled commit retreats the head and writes one group —
  // O(1) in depth, matching the interpreter's deque rotate.
  for (std::size_t i = 0; i < p.seq_.size(); ++i) {
    const SimPlan::SeqOp& sq = p.seq_[i];
    const W* next = &seq_next[i * kLanes];
    const std::uint64_t en = seq_en_[i];
    if (sq.depth == 1) {
      // Depth-1 pipes (plain FFs, BRAM output registers): the driven state
      // slots themselves are the storage — commit straight from the
      // capture, skipping the pipe write + tail read round-trip.
      if (en == ~0ULL) {
        drive(sq, next);
      } else if (en != 0) {
        // Partial-enable blend (lanes diverge on CE): rare, so it stamps
        // without comparing.
        for (std::uint32_t f = 0; f < sq.fan_count; ++f) {
          const std::uint32_t slot = p.fanout_[sq.fan_begin + f];
          W* dst = state + slot;
          for (std::size_t l = 0; l < kLanes; ++l) {
            if ((en >> l) & 1) dst[l] = next[l];
          }
          stamp(slot);
        }
      }
      continue;
    }
    W* pipe = &pipe_state[sq.pipe_base];
    std::uint32_t& head = seq_head_[i];
    if (en == ~0ULL) {
      head = head == 0 ? sq.depth - 1 : head - 1;
      std::copy_n(next, kLanes, &pipe[head * kLanes]);
    } else if (en != 0) {
      // Lanes diverge on CE: normalize the ring to head = 0, then shift
      // with an enable blend (a shared head cannot represent per-lane
      // rotation). Rare — only CE-gated pipes with divergent lane inputs.
      if (head != 0) {
        for (std::uint32_t s = 0; s < sq.depth; ++s) {
          const std::uint32_t phys = head + s < sq.depth ? head + s : head + s - sq.depth;
          std::copy_n(&pipe[phys * kLanes], kLanes, &ring_scratch[s * kLanes]);
        }
        std::copy_n(ring_scratch, static_cast<std::size_t>(sq.depth) * kLanes, pipe);
        head = 0;
      }
      for (std::uint32_t s = sq.depth - 1; s > 0; --s) {
        W* dst = &pipe[s * kLanes];
        const W* src = &pipe[(s - 1) * kLanes];
        for (std::size_t l = 0; l < kLanes; ++l) {
          if ((en >> l) & 1) dst[l] = src[l];
        }
      }
      for (std::size_t l = 0; l < kLanes; ++l) {
        if ((en >> l) & 1) pipe[l] = next[l];
      }
    }
    const std::uint32_t tail =
        head + sq.depth - 1 < sq.depth ? head + sq.depth - 1 : head - 1;
    drive(sq, &pipe[tail * kLanes]);
  }

  // Phase 3: re-settle the combinational fabric on the new state (a no-op
  // when no commit changed anything).
  settle_if_dirty();
  ++cycle_;
}

void LaneTrace::before_edge(const SimContext& ctx, std::span<const std::uint64_t> in_frame) {
  for (std::size_t i = 0; i < ctx.plan().input_count(); ++i) {
    inputs.push_back(in_frame[i * SimPlan::kLanes + lane]);
  }
  const int outputs = static_cast<int>(ctx.plan().output_count());
  for (int o = 0; o < outputs; ++o) pre.push_back(ctx.get_output(o, lane));
}

void LaneTrace::after_edge(const SimContext& ctx) {
  const int outputs = static_cast<int>(ctx.plan().output_count());
  for (int o = 0; o < outputs; ++o) post.push_back(ctx.get_output(o, lane));
  ++cycles;
}

void LaneTrace::end(const SimContext& ctx) {
  nets.resize(ctx.plan().net_count());
  for (std::size_t n = 0; n < nets.size(); ++n) nets[n] = ctx.peek_net(static_cast<NetId>(n), lane);
}

std::string replay_lane(Simulator& oracle, const SimPlan& plan, const LaneTrace& trace) {
  const std::size_t in_count = plan.input_count();
  const std::size_t out_count = plan.output_count();
  const auto mismatch = [](const std::string& where, std::uint64_t want, std::uint64_t have) {
    return where + ": interpreter " + std::to_string(want) + ", compiled " + std::to_string(have);
  };
  const auto compare_outputs = [&](std::size_t cycle, const std::vector<std::uint64_t>& got,
                                   const char* when) -> std::string {
    for (std::size_t o = 0; o < out_count; ++o) {
      const std::uint64_t want = oracle.get_output(plan.output_name(o));
      const std::uint64_t have = got[cycle * out_count + o];
      if (want != have) {
        return mismatch("cycle " + std::to_string(cycle) + " " + when + ", port '" +
                            plan.output_name(o) + "'",
                        want, have);
      }
    }
    return {};
  };
  for (std::size_t cycle = 0; cycle < trace.cycles; ++cycle) {
    for (std::size_t i = 0; i < in_count; ++i) {
      oracle.set_input(plan.input_name(i), trace.inputs[cycle * in_count + i]);
    }
    std::string diff = compare_outputs(cycle, trace.pre, "pre-edge");
    if (diff.empty()) {
      oracle.step();
      diff = compare_outputs(cycle, trace.post, "post-edge");
    }
    if (!diff.empty()) return diff;
  }
  for (std::size_t n = 0; n < trace.nets.size(); ++n) {
    const std::uint64_t want = oracle.peek_net(static_cast<NetId>(n));
    if (want != trace.nets[n]) {
      return mismatch("net " + std::to_string(n) + " at the end", want, trace.nets[n]);
    }
  }
  return {};
}

std::string compare_compiled_vs_interpreter(const Netlist& netlist, int cycles,
                                            std::uint64_t seed,
                                            std::span<const int> lanes_to_check,
                                            std::shared_ptr<const SimPlan> plan) {
  if (!plan) plan = SimPlan::compile(netlist);
  std::vector<LaneTrace> traces;
  for (const int lane : lanes_to_check) traces.push_back({.lane = static_cast<std::size_t>(lane)});
  for (std::size_t l = 0; lanes_to_check.empty() && l < SimPlan::kLanes; ++l) {
    traces.push_back({.lane = l});
  }

  // Compiled pass: every input port of every lane re-randomized each
  // cycle (values masked on both sides), the checked lanes traced.
  Rng rng(seed);
  SimContext cs(plan);
  std::vector<std::uint64_t> frame(plan->input_count() * SimPlan::kLanes);
  for (int cycle = 0; cycle < cycles; ++cycle) {
    for (std::uint64_t& v : frame) v = rng();
    cs.set_input_frame(frame);
    for (LaneTrace& trace : traces) trace.before_edge(cs, frame);
    cs.step();
    for (LaneTrace& trace : traces) trace.after_edge(cs);
  }
  for (LaneTrace& trace : traces) trace.end(cs);

  for (const LaneTrace& trace : traces) {
    Simulator sim(netlist);
    if (std::string diff = replay_lane(sim, *plan, trace); !diff.empty()) {
      return "divergence in '" + netlist.name() + "', lane " + std::to_string(trace.lane) +
             ": " + diff;
    }
  }
  return {};
}

}  // namespace fpgasim
