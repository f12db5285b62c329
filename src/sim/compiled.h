// Compiled levelized bit-parallel simulator, split into an immutable
// shared *plan* and cheap per-worker *contexts*.
//
// Where sim/simulator.h interprets the netlist cell-by-cell (one test
// vector at a time, per-eval pin resolution, std::deque sequential state),
// SimPlan compiles a Netlist ONCE into a flat execution plan and a
// SimContext evaluates kLanes (64) independent test vectors per pass:
//
//   - the combinational fabric becomes a topologically *levelized*
//     schedule of fixed-size ops with pre-resolved input/output state
//     slots (no per-eval std::min, no branching on inputs.size(), no
//     name lookups);
//   - every net's value lives in one contiguous 64-wide word group of a
//     single flat arena (lane-major: slot = net * kLanes + lane), so each
//     op kernel is a tight 64-iteration loop the compiler vectorizes;
//   - sequential state (FF/SRL pipes, DSP pipeline stages, BRAM
//     memories) is laid out at compile time — read-only BRAMs (ROMs) keep
//     a single copy in the PLAN, shared by every context (a VGG weight set
//     is ~hundreds of MB); writable BRAMs get a private lane-major copy in
//     each context, which for VGG is ~447 MB of mostly untouched rows;
//   - constant cells are folded into the plan's initial state image and
//     dropped from the schedule.
//
// Evaluation is activity-gated. In a dataflow accelerator most of the
// fabric waits on a handshake in any given cycle (a few percent of comb
// ops see an input change per settle), so a context keeps a change epoch
// per net group: every write that may change a group — an input port
// write, a comb op whose output moved, a register or BRAM commit that
// changed its output — stamps it with the current epoch. The settle walks the levelized schedule once and
// evaluates only the ops with a stamped input group, stamping their
// outputs only when the value actually changed; the clock edge skips a
// depth-1 FF/SRL whose D and CE groups are unchanged since the previous
// edge, since capturing would rewrite the value it already holds. The
// result is identical to evaluating everything, at a cost proportional
// to the logic that changed.
//
// The plan/state split is what makes traffic-scale serving cheap: compile
// once, then instantiate N contexts with no re-levelization. A context's
// cost tracks the memory rows it writes, not the size of its memories:
// writable memories come from a zero-filled allocation whose untouched
// pages the OS maps lazily, and the plan keeps only a sparse list of
// ROM-preloaded writable rows (applied once at construction). Contexts
// are fully independent (the plan is immutable after compile), so N of
// them can run on N threads with no synchronization; each context's
// storage is cache-line aligned so parallel contexts never false-share.
// reset() returns a context to the plan's initial state reusing its
// allocations: the small net/pipe sections are re-imaged in full and
// every group is stamped (so the first settle and edge run everything),
// and of the writable memories only the fixed-size pages written since
// the last reset are zeroed and re-preloaded — the per-batch path of
// src/sim/engine allocates nothing and pays for the rows a batch touched.
//
// Semantics are pinned by the sim/eval.h contract; the interpreter stays
// the A/B oracle (see compare_compiled_vs_interpreter and
// tests/test_sim_compiled.cpp). Evaluation of one context is
// single-threaded and deterministic: identical results at any
// FPGASIM_THREADS width.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "util/aligned.h"

namespace fpgasim {

class Simulator;

/// Immutable compiled execution plan: levelized schedule, slot layout,
/// port tables, shared ROM images, the initial state image and the sparse
/// writable-memory preloads. Thread-safe
/// to share (const after construction); one plan serves any number of
/// concurrent SimContexts.
class SimPlan {
 public:
  /// Number of independent test vectors evaluated per pass.
  static constexpr std::size_t kLanes = 64;

  /// Compiles the netlist. Throws std::runtime_error on combinational
  /// loops (same contract as the interpreter).
  explicit SimPlan(const Netlist& netlist);

  /// Convenience: compile into the shared-ownership form every multi-
  /// context consumer wants.
  static std::shared_ptr<const SimPlan> compile(const Netlist& netlist) {
    return std::make_shared<const SimPlan>(netlist);
  }

  /// Process-wide count of plan compilations — the reuse oracle: benches
  /// and tests assert a measurement loop compiled exactly one plan.
  static std::uint64_t plans_compiled();

  const std::string& name() const { return name_; }

  // -- port resolution (do once, drive by index) ----------------------------
  /// Index for set_inputs(); throws when `name` is not an input port.
  int input_index(const std::string& name) const;
  /// Index for get_outputs(); throws when `name` is not an output port.
  int output_index(const std::string& name) const;
  std::size_t input_count() const { return inputs_.size(); }
  std::size_t output_count() const { return outputs_.size(); }
  const std::string& input_name(std::size_t i) const { return inputs_[i].name; }
  const std::string& output_name(std::size_t i) const { return outputs_[i].name; }

  // -- compiled-plan statistics ----------------------------------------------
  std::size_t comb_ops() const { return ops_.size(); }
  std::size_t seq_ops() const { return seq_.size(); }
  /// Number of levels in the levelized schedule (independent cells share
  /// a level; the schedule runs levels in order).
  std::size_t levels() const { return level_begin_.empty() ? 0 : level_begin_.size() - 1; }
  /// Bytes per lane element: 4 when the whole design fits 32-bit lanes.
  std::size_t lane_bytes() const { return narrow_ ? 4 : 8; }
  /// Elements held once in the plan and shared by all contexts (ROMs).
  std::size_t shared_words() const { return rom32_.size() + rom64_.size(); }
  /// Lane elements each context owns privately (nets + pipes + scratch +
  /// writable memories, whether or not their pages are resident).
  std::size_t context_words() const { return layout_.total; }
  /// Nets in the compiled design (slot = net * kLanes + lane).
  std::size_t net_count() const { return net_count_; }

 private:
  friend class SimContext;

  // Compiled combinational opcode: CellType x LutOp flattened, constants
  // folded out.
  enum class Op : std::uint8_t {
    kAnd, kOr, kXor, kNot, kMux2, kEq, kLtU, kPass, kTruth6,
    kAdd, kSub, kMax, kRelu, kDsp,
  };

  struct CombOp {
    Op op = Op::kPass;
    std::uint16_t width = 1;
    std::uint32_t a = 0, b = 0, c = 0;  // input slot bases (kZeroSlot when absent)
    std::uint32_t out = 0;              // output slot base
    std::uint64_t mask = ~0ULL;         // precomputed mask_width(., width)
    std::uint64_t init = 0;             // truth table / DSP shift
    std::uint32_t fan_begin = 0, fan_count = 0;  // extra output slot bases
    std::uint32_t in_begin = 0, in_count = 0;    // kTruth6 input slot bases
  };

  // Sequential plan entry. Every kind owns a pipe of `depth` 64-wide
  // groups in the context's pipe section, addressed as a ring: logical
  // slot s (0 = newest, depth-1 = the visible tail) lives at physical slot
  // (seq_head_[i] + s) % depth, so an all-lanes-enabled commit is O(1)
  // like the interpreter's deque rotate instead of an O(depth) shift.
  // kBram additionally owns a memory region: lane-shared ROMs live in the
  // plan (rom32_/rom64_), writable memories in the context's zeroed
  // writable-memory block.
  struct SeqOp {
    CellType type = CellType::kFf;
    bool has_ce = false;
    bool has_we = false;
    bool mem_shared = false;  // ROM without write port: one plan-shared copy
    std::uint16_t width = 1;
    std::uint32_t d = 0;      // capture slot base (FF/SRL d, DSP hidden MAC slot)
    std::uint32_t ce = 0;
    std::uint32_t capture = 0;  // kDsp: index into dsp_capture_
    std::uint32_t waddr = 0, wdata = 0, we = 0, raddr = 0;  // kBram
    std::uint32_t pipe_base = 0, depth = 1;
    std::uint32_t mem_base = 0, mem_depth = 0;  // into rom (shared) or wmem
    std::uint64_t mask = ~0ULL;
    std::uint32_t fan_begin = 0, fan_count = 0;  // ALL connected output slot bases
  };

  struct PortPlan {
    std::string name;
    std::uint32_t slot = 0;  // net slot base
    std::uint16_t width = 1;
  };

  // Per-context arena layout, element offsets (lane words). Every section
  // starts on a cache-line boundary so two contexts — and the hot state /
  // pipe sections within one — never straddle a shared line. Writable BRAM
  // contents live in a separate zeroed allocation of wmem_elems.
  struct ArenaLayout {
    std::size_t state = 0;  // net values + hidden DSP slots + zero group
    std::size_t pipe = 0;   // ring-buffer pipes
    std::size_t next = 0;   // phase-1 capture scratch
    std::size_t ring = 0;   // CE-divergence normalize scratch
    std::size_t arena = 0;  // end of the arena sections
    std::size_t total = 0;  // arena + writable memories (context_words)
    std::size_t state_elems = 0, pipe_elems = 0, next_elems = 0, ring_elems = 0,
                wmem_elems = 0;
  };

  // Writable memory is tracked for reset in pages of kPageRows rows (all
  // lanes), indexed from the start of the writable-memory block; a page
  // may straddle two memories.
  static constexpr std::size_t kPageRows = 16;
  static constexpr std::size_t kPageElems = kPageRows * kLanes;

  // One ROM-preloaded row of a writable BRAM: `value` in every lane of the
  // row starting at writable-memory element `offset`. Zero rows are
  // omitted (the block starts zeroed).
  struct Preload {
    std::size_t offset = 0;
    std::uint64_t value = 0;
  };

  template <typename W> void build_init_images(const Netlist& netlist);
  template <typename W> const std::vector<W>& rom_vec() const {
    if constexpr (sizeof(W) == 4) return rom32_; else return rom64_;
  }
  template <typename W> const std::vector<W>& init_state_vec() const {
    if constexpr (sizeof(W) == 4) return init_state32_; else return init_state64_;
  }

  std::vector<CombOp> ops_;            // levelized order
  std::vector<std::size_t> level_begin_;  // ops_ index of each level + end sentinel
  std::vector<CombOp> dsp_capture_;    // per-edge MAC captures (not in settle)
  std::vector<SeqOp> seq_;
  std::vector<std::uint32_t> fanout_;  // extra/all output slot bases
  std::vector<std::uint32_t> truth_inputs_;

  // Initial state image: zeros with constants folded in. Contexts copy it
  // on construction and on reset().
  std::vector<std::uint32_t> init_state32_;
  std::vector<std::uint64_t> init_state64_;
  // Shared read-only memories (ROMs), one copy for every context.
  std::vector<std::uint32_t> rom32_;
  std::vector<std::uint64_t> rom64_;
  // Nonzero initial rows of writable memories, sorted by offset.
  std::vector<Preload> preloads_;

  std::vector<PortPlan> inputs_;
  std::vector<PortPlan> outputs_;

  ArenaLayout layout_;
  std::size_t net_count_ = 0;
  bool narrow_ = false;
  std::string name_;
};

/// One evaluation context over a shared plan: the mutable lane state. The
/// construction cost is state-only (one cache-aligned arena allocation +
/// the plan's initial-image copy, and one zeroed writable-memory block +
/// its preloads); reset() reuses both. Not thread-safe per instance — use
/// one context per worker.
class SimContext {
 public:
  static constexpr std::size_t kLanes = SimPlan::kLanes;

  explicit SimContext(std::shared_ptr<const SimPlan> plan);

  const SimPlan& plan() const { return *plan_; }

  /// Returns to the plan's initial state (cycle 0, pipes flushed, nets
  /// re-imaged, writable-memory pages written since the last reset zeroed
  /// and re-preloaded) without reallocating. Costs the small sections plus
  /// the dirty pages, independent of total memory size.
  void reset();
  /// Number of reset() calls since construction (engine telemetry).
  std::size_t resets() const { return resets_; }
  /// Comb ops the gated settle evaluated since construction (not reset by
  /// reset()). Deterministic: after a reset it advances as a pure function
  /// of the stimulus, so it diffs across runs and thread widths.
  std::uint64_t comb_evals() const { return comb_evals_; }

  // -- batch driver API -----------------------------------------------------
  /// Drives an input port: lanes[l] becomes the port value of test vector
  /// l (masked to the port width). Fewer than kLanes entries leave the
  /// remaining lanes unchanged.
  void set_inputs(int input, std::span<const std::uint64_t> lanes);
  void set_inputs(const std::string& name, std::span<const std::uint64_t> lanes) {
    set_inputs(plan_->input_index(name), lanes);
  }
  /// Broadcasts one value to every lane of an input port.
  void set_inputs(int input, std::uint64_t value_all_lanes);

  /// Batch-amortized frame path: drives EVERY input port from one
  /// port-major buffer (frame[i * kLanes + l] = port i, lane l) with a
  /// single dirty transition — the serving engine's hot path.
  void set_input_frame(std::span<const std::uint64_t> frame);
  /// Reads every output port into one port-major buffer.
  void get_output_frame(std::span<std::uint64_t> frame) const;

  /// Advances one clock cycle for all lanes: settle -> capture -> commit
  /// -> settle, the same two-phase edge as Simulator::step(). Each settle
  /// evaluates only ops whose inputs changed, and the capture skips quiet
  /// depth-1 registers (see the header comment).
  void step();
  void run(int n) {
    for (int i = 0; i < n; ++i) step();
  }

  /// Reads an output port into lanes[0..min(size, kLanes)).
  void get_outputs(int output, std::span<std::uint64_t> lanes) const;
  void get_outputs(const std::string& name, std::span<std::uint64_t> lanes) const {
    get_outputs(plan_->output_index(name), lanes);
  }
  std::uint64_t get_output(int output, std::size_t lane) const;

  /// Raw net value of one lane (debug / white-box tests).
  std::uint64_t peek_net(NetId net, std::size_t lane) const;

  /// FNV-style fold over every net's value in every lane (settles pending
  /// inputs first). A long-latency accelerator may not raise an output
  /// port for thousands of cycles, so serving checksums fold this full
  /// datapath digest at batch end — any diverging net anywhere in the
  /// fabric changes it.
  std::uint64_t state_digest() const;

  std::uint64_t cycle() const { return cycle_; }

 private:
  // The one settle loop: a levelized sweep over all 64 lanes that
  // evaluates only the ops with an input group stamped in the current
  // epoch, then advances the epoch. Every stamping write sets dirty_, so a
  // context with nothing stamped skips the sweep entirely — after a quiet
  // edge, and between observations with no set_inputs().
  void settle_if_dirty() const;
  template <typename W> void reset_impl();
  // Writes the plan's preloaded rows in writable-memory range [begin, end).
  template <typename W> void apply_preloads(std::size_t begin, std::size_t end);
  template <typename W> void settle_impl() const;
  template <typename W> void step_impl();
  // Evaluates one op into its primary output slot; returns whether any
  // lane of that output changed.
  template <typename W> bool eval_op(const SimPlan::CombOp& op) const;
  // Stamps net group `slot / kLanes` as changed in the current epoch.
  void stamp(std::uint32_t slot) const {
    changed_[slot / kLanes] = epoch_;
    dirty_ = true;
  }
  // Arena section bases. The evaluation core is templated on the lane
  // word: when every cell and port fits 32 bits (the CNN accelerators do —
  // Q8.8 datapaths with 24-bit accumulators), lanes are stored as
  // uint32_t, halving the memory traffic of the lane-major arrays and
  // doubling the lanes per vector register. Wide or unknown designs use
  // the general uint64_t engine. The choice was made at plan compile time;
  // the public API always speaks uint64_t and converts at the port
  // boundary. DSP MACs always use 64-bit intermediates.
  template <typename W> W* arena() const {
    if constexpr (sizeof(W) == 4) return const_cast<std::uint32_t*>(arena32_.data());
    else return const_cast<std::uint64_t*>(arena64_.data());
  }
  template <typename W> W* state_base() const { return arena<W>() + plan_->layout_.state; }
  template <typename W> W* pipe_base() const { return arena<W>() + plan_->layout_.pipe; }
  template <typename W> W* next_base() const { return arena<W>() + plan_->layout_.next; }
  template <typename W> W* ring_base() const { return arena<W>() + plan_->layout_.ring; }
  template <typename W> W* wmem_base() const { return wmem_.as<W>(); }

  std::shared_ptr<const SimPlan> plan_;
  // One cache-aligned allocation per context: net state, pipes, capture
  // scratch and ring scratch, each section itself cache-line aligned
  // (exactly one of the two is allocated, by lane width). Logically
  // const-observable: reads settle pending inputs first.
  CacheAlignedVector<std::uint32_t> arena32_;
  CacheAlignedVector<std::uint64_t> arena64_;
  // Writable BRAM contents (lane words of the plan's width) and one bit
  // per kPageRows page written since the last reset.
  ZeroedBuffer wmem_;
  std::vector<std::uint64_t> dirty_pages_;
  std::vector<std::uint32_t> seq_head_;  // ring head (physical slot of logical 0)
  std::vector<std::uint64_t> seq_en_;    // phase-1 enable bitmasks (bit = lane)
  // Change epoch per state group (net, hidden DSP slot, zero group): the
  // epoch of the last write that changed it. Groups stamped with epoch_
  // are pending for the next settle; 64-bit epochs never wrap.
  mutable std::vector<std::uint64_t> changed_;
  mutable std::uint64_t epoch_ = 1;
  std::uint64_t edge_epoch_ = 0;  // epoch_ at the previous edge's capture
  mutable bool dirty_ = false;    // some group carries epoch_
  mutable std::uint64_t comb_evals_ = 0;
  std::uint64_t cycle_ = 0;
  std::size_t resets_ = 0;
};

/// One lane's run on a compiled context, in plan port order, as the
/// interpreter oracle replays it. Per cycle, before_edge records the driven
/// `in_frame` (port-major, as set_input_frame takes it) and the outputs,
/// after_edge the outputs after step(); end() records the final nets.
struct LaneTrace {
  std::size_t lane = 0;
  std::size_t cycles = 0;
  std::vector<std::uint64_t> inputs;  // cycles x input_count
  std::vector<std::uint64_t> pre;     // cycles x output_count, read before each edge
  std::vector<std::uint64_t> post;    // cycles x output_count, read after each edge
  std::vector<std::uint64_t> nets;    // every net's value after the last edge

  void before_edge(const SimContext& ctx, std::span<const std::uint64_t> in_frame);
  void after_edge(const SimContext& ctx);
  void end(const SimContext& ctx);
};

/// The lane replay both A/B checks share (compare_compiled_vs_interpreter
/// and the engine audit, src/sim/engine). Drives `oracle` — an interpreter
/// in its constructed state over the netlist `plan` was compiled from —
/// with the trace's inputs and compares every output port before and
/// after every edge, then every net after the last one. Returns the first
/// divergence ("cycle 3 post-edge, port 'out_data': interpreter 5,
/// compiled 4"), or the empty string when the lane matches.
std::string replay_lane(Simulator& oracle, const SimPlan& plan, const LaneTrace& trace);

/// A/B oracle check. Drives `netlist` through the compiled simulator with
/// `cycles` cycles of seeded random stimulus (kLanes independent vectors,
/// every input port re-randomized each cycle), then replays each lane in
/// `lanes_to_check` (empty = all lanes) through the interpreter with
/// replay_lane. Returns the empty string when bit-identical, else a
/// description of the first divergence. When `plan` is given it is reused
/// (no recompilation); it must have been compiled from `netlist`.
std::string compare_compiled_vs_interpreter(const Netlist& netlist, int cycles,
                                            std::uint64_t seed,
                                            std::span<const int> lanes_to_check = {},
                                            std::shared_ptr<const SimPlan> plan = nullptr);

}  // namespace fpgasim
