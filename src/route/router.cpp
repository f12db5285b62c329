#include "route/router.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "util/aligned.h"
#include "util/log.h"
#include "util/timer.h"

namespace fpgasim {
namespace {

/// A zero-filled array over a ZeroedBuffer: a route that touches a few
/// tiles of a device-sized area pays for those pages only.
template <typename T>
class ZeroedArray {
 public:
  explicit ZeroedArray(std::size_t n)
      : buf_(n * sizeof(T)), data_(buf_.template as<T>()), size_(n) {}
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  std::size_t size() const { return size_; }

 private:
  ZeroedBuffer buf_;
  T* data_;
  std::size_t size_;
};

/// The tiles a route may use: opt.region clipped to the device when
/// bounded, else the whole device.
Pblock routed_area(const Device& device, const RouteOptions& opt) {
  Pblock area{0, 0, device.width() - 1, device.height() - 1};
  if (!opt.bounded) return area;
  return Pblock{std::max(area.x0, opt.region.x0), std::max(area.y0, opt.region.y0),
                std::min(area.x1, opt.region.x1), std::min(area.y1, opt.region.y1)};
}

/// The routed area's channel graph. Only tiles of `area` exist: every array
/// is indexed by area-local coordinates, so a bounded component route costs
/// what its pblock needs, not the device.
struct Graph {
  Pblock area;       // device coordinates
  int w = 0, h = 0;  // area extent; local (x, y) = device - (area.x0, area.y0)
  const RouteOptions& opt;
  // Undirected edge arrays: horizontal (x,y)-(x+1,y) and vertical
  // (x,y)-(x,y+1).
  ZeroedArray<std::int16_t> use_h, use_v;
  ZeroedArray<float> hist_h, hist_v;
  std::vector<float> base_h, base_v;
  // Per-edge -> routing-job reverse index (open nets only; locked nets
  // charge usage but are never ripped up, so they are not tracked). Drives
  // incremental rip-up: an overused edge dirties exactly its user jobs.
  // Each edge heads a singly linked list of `links` entries; 0 ends a list.
  struct UserLink { std::int32_t job, next; };
  ZeroedArray<std::int32_t> users_h, users_v;
  std::vector<UserLink> links{UserLink{}};
  std::vector<std::int32_t> free_links;

  Graph(const Device& device, const RouteOptions& options, const DelayModel& dm)
      : area(routed_area(device, options)),
        w(std::max(0, area.width())),
        h(std::max(0, area.height())),
        opt(options),
        use_h(h_edges()),
        use_v(v_edges()),
        hist_h(h_edges()),
        hist_v(v_edges()),
        base_h(h_edges()),
        base_v(v_edges(), static_cast<float>(dm.wire_per_tile)),
        users_h(h_edges()),
        users_v(v_edges()) {
    for (int x = 0; x + 1 < w; ++x) {
      double d = dm.wire_per_tile;
      if (device.column_type(area.x0 + x + 1) == ColumnType::kIo) d += dm.wire_discontinuity;
      for (int y = 0; y < h; ++y) base_h[h_idx(x, y)] = static_cast<float>(d);
    }
  }

  std::size_t h_edges() const { return static_cast<std::size_t>(std::max(0, w - 1)) * h; }
  std::size_t v_edges() const { return static_cast<std::size_t>(w) * std::max(0, h - 1); }
  std::size_t h_idx(int x, int y) const { return static_cast<std::size_t>(y) * (w - 1) + x; }
  std::size_t v_idx(int x, int y) const { return static_cast<std::size_t>(y) * w + x; }
  bool contains(TileCoord t) const { return area.contains(t.x, t.y); }
  /// Local node id of a device tile inside the area. Row-major like the
  /// device's own numbering, so node-id tie-breaks order tiles identically.
  int node(TileCoord t) const { return (t.y - area.y0) * w + (t.x - area.x0); }
  TileCoord tile(int node) const { return TileCoord{area.x0 + node % w, area.y0 + node / w}; }

  /// Canonical (horizontal?, index) of the undirected edge between the
  /// adjacent local tiles a and b.
  std::pair<bool, std::size_t> edge_index(int ax, int ay, int bx, int by) const {
    if (ay == by) return {true, h_idx(std::min(ax, bx), ay)};
    return {false, v_idx(ax, std::min(ay, by))};
  }
  std::pair<bool, std::size_t> edge_index(TileCoord a, TileCoord b) const {
    return edge_index(a.x - area.x0, a.y - area.y0, b.x - area.x0, b.y - area.y0);
  }

  /// Negotiated cost of traversing one edge in the current iteration.
  double edge_cost(bool horizontal, std::size_t idx, double pressure) const {
    const float base = horizontal ? base_h[idx] : base_v[idx];
    const float hist = horizontal ? hist_h[idx] : hist_v[idx];
    const int use = horizontal ? use_h[idx] : use_v[idx];
    const int over = std::max(0, use + 1 - opt.channel_capacity);
    return base * (1.0 + hist) * (1.0 + pressure * over);
  }

  /// Final (post-negotiation) delay of an edge including congestion slowdown.
  double edge_delay(bool horizontal, std::size_t idx) const {
    const float base = horizontal ? base_h[idx] : base_v[idx];
    const int use = horizontal ? use_h[idx] : use_v[idx];
    const double load = static_cast<double>(use) / opt.channel_capacity;
    return base * (1.0 + opt.congestion_delay_factor * load * load);
  }

  /// Usage of locked / pre-routed nets: no rip-up, so no reverse index.
  /// Edges outside the area cannot meet a routed net and are not charged.
  void charge_locked(const RouteInfo& route) {
    for (const auto& [a, b] : route.edges) {
      if (!contains(a) || !contains(b)) continue;
      const auto [horizontal, idx] = edge_index(a, b);
      std::int16_t& use = horizontal ? use_h[idx] : use_v[idx];
      use = static_cast<std::int16_t>(use + 1);
    }
  }

  /// Usage + reverse index of an open routing job's current route.
  void charge_job(std::int32_t job, const RouteInfo& route, int delta) {
    for (const auto& [a, b] : route.edges) {
      const auto [horizontal, idx] = edge_index(a, b);
      std::int16_t& use = horizontal ? use_h[idx] : use_v[idx];
      use = static_cast<std::int16_t>(use + delta);
      std::int32_t& head = horizontal ? users_h[idx] : users_v[idx];
      if (delta > 0) {
        std::int32_t slot = static_cast<std::int32_t>(links.size());
        if (free_links.empty()) {
          links.emplace_back();
        } else {
          slot = free_links.back();
          free_links.pop_back();
        }
        links[static_cast<std::size_t>(slot)] = UserLink{job, head};
        head = slot;
      } else {
        std::int32_t* at = &head;
        while (links[static_cast<std::size_t>(*at)].job != job) {
          at = &links[static_cast<std::size_t>(*at)].next;
        }
        const std::int32_t slot = *at;
        *at = links[static_cast<std::size_t>(slot)].next;
        free_links.push_back(slot);
      }
    }
  }
};

struct PqEntry {
  double f;
  double g;
  int node;
  // Min-heap on f with a full deterministic order: ties prefer the larger
  // g (deeper, closer to the goal), then the smaller node id, so heap
  // order never depends on insertion order.
  bool operator<(const PqEntry& o) const {
    if (f != o.f) return f > o.f;
    if (g != o.g) return g < o.g;
    return node > o.node;
  }
};

/// Search scratch: flat epoch-stamped arrays over the area's tiles, so
/// neither the A* search, the seed-tree walk nor the commit re-walk
/// allocates or hashes per node. One Scratch serves every net of a
/// route_design call in turn.
struct Scratch {
  // Stamps start at 0 and epochs at 1, so zero-filled arrays need no
  // clearing; values are read only under a matching stamp.
  ZeroedArray<double> dist;      // A* best g per node        (search epoch)
  ZeroedArray<int> visit_stamp;  // dist/parent validity
  ZeroedArray<int> parent;
  ZeroedArray<int> target_stamp;       // goal nodes of the search
  ZeroedArray<int> target_dist;        // hops to nearest remaining target
  ZeroedArray<int> target_dist_stamp;  // (search epoch)
  ZeroedArray<double> tree_delay;      // driver->node delay   (tree epoch)
  ZeroedArray<int> tree_stamp;
  ZeroedArray<int> adj;                // 4 slots/node: route-tree adjacency
  ZeroedArray<std::uint8_t> adj_count;
  ZeroedArray<int> adj_stamp;          // (tree epoch)
  std::vector<int> frontier, next_frontier;  // BFS worklists
  std::vector<PqEntry> heap;                 // A* priority queue storage
  int epoch = 0;

  explicit Scratch(std::size_t nodes)
      : dist(nodes),
        visit_stamp(nodes),
        parent(nodes),
        target_stamp(nodes),
        target_dist(nodes),
        target_dist_stamp(nodes),
        tree_delay(nodes),
        tree_stamp(nodes),
        adj(nodes * 4),
        adj_count(nodes),
        adj_stamp(nodes) {}

  /// Loads `edges` into the adjacency arrays under `tree_epoch` and walks
  /// the tree from `root`, stamping tree_delay with the accumulated edge
  /// delay. Nodes reached beyond the root are appended to `out` when set.
  void walk_tree(const Graph& g, const std::vector<std::pair<TileCoord, TileCoord>>& edges,
                 int root, int tree_epoch, std::vector<std::pair<int, double>>* out) {
    auto link = [&](int from, int to) {
      const std::size_t n = static_cast<std::size_t>(from);
      if (adj_stamp[n] != tree_epoch) {
        adj_stamp[n] = tree_epoch;
        adj_count[n] = 0;
      }
      if (adj_count[n] < 4) adj[n * 4 + adj_count[n]++] = to;
    };
    for (const auto& [a, b] : edges) {
      const int na = g.node(a), nb = g.node(b);
      link(na, nb);
      link(nb, na);
    }
    tree_stamp[static_cast<std::size_t>(root)] = tree_epoch;
    tree_delay[static_cast<std::size_t>(root)] = 0.0;
    frontier.clear();
    frontier.push_back(root);
    while (!frontier.empty()) {
      const int v = frontier.back();
      frontier.pop_back();
      const std::size_t vn = static_cast<std::size_t>(v);
      const double dv = tree_delay[vn];
      if (adj_stamp[vn] != tree_epoch) continue;  // leaf beyond the edges
      for (std::uint8_t k = 0; k < adj_count[vn]; ++k) {
        const int u = adj[vn * 4 + k];
        const std::size_t un = static_cast<std::size_t>(u);
        if (tree_stamp[un] == tree_epoch) continue;
        const auto [horizontal, eidx] = g.edge_index(v % g.w, v / g.w, u % g.w, u / g.w);
        const double du = dv + g.edge_delay(horizontal, eidx);
        tree_stamp[un] = tree_epoch;
        tree_delay[un] = du;
        if (out != nullptr) out->emplace_back(u, du);
        frontier.push_back(u);
      }
    }
  }
};

// One net to route: terminals as local tile nodes.
struct Job {
  NetId net = kInvalidNet;
  int driver_node = -1;
  std::vector<int> sink_nodes;         // deduplicated, still to reach
  std::vector<int> sink_node_of_sink;  // per netlist sink: its node
  // Partial nets (stitched component ports): the locked part of the
  // route tree plus the delays of the sinks it already serves.
  std::vector<std::pair<TileCoord, TileCoord>> seed_edges;
  std::vector<double> old_delays;
  // A* search region (local coordinates): the terminal/seed bounding box
  // expanded by `margin` tiles and clamped to the area. The margin grows
  // every time congestion rips the net up, so detours always eventually
  // fit.
  Pblock base_box;
  Pblock box;
  int margin = 0;
};

void clamp_box(Job& job, const Graph& graph) {
  job.box = Pblock{std::max(job.base_box.x0 - job.margin, 0),
                   std::max(job.base_box.y0 - job.margin, 0),
                   std::min(job.base_box.x1 + job.margin, graph.w - 1),
                   std::min(job.base_box.y1 + job.margin, graph.h - 1)};
}

void grow_box(Job& job, int node, const Graph& graph) {
  const int x = node % graph.w, y = node / graph.w;
  job.base_box.x0 = std::min(job.base_box.x0, x);
  job.base_box.y0 = std::min(job.base_box.y0, y);
  job.base_box.x1 = std::max(job.base_box.x1, x);
  job.base_box.y1 = std::max(job.base_box.y1, y);
}

/// The order in which `worklist` (ascending job indices) is routed. Jobs
/// are dealt into rounds: each joins the first open round (at most 64 are
/// probed) none of whose boxes it overlaps, and rounds are routed one after
/// another, each in net-index order. Jobs of one round touch disjoint
/// edges, so only the order across rounds matters, and a job may route
/// ahead of an earlier one whose box it overlaps. Every pinned route
/// depends on this order; plain net-index order changes them. A coarse
/// 8-tile occupancy bitmap per round prefilters the exact rectangle tests.
std::vector<std::size_t> route_order(const std::vector<Job>& jobs,
                                     const std::vector<std::size_t>& worklist, int w, int h) {
  constexpr int kCell = 8;
  constexpr std::size_t kMaxProbe = 64;
  const int gw = (w + kCell - 1) / kCell;
  const std::size_t words = (static_cast<std::size_t>(gw) * ((h + kCell - 1) / kCell) + 63) / 64;
  struct Round {
    std::vector<std::size_t> members;
    std::vector<std::uint64_t> bits;
  };
  std::vector<Round> rounds;
  auto for_cells = [&](const Pblock& box, auto&& fn) {
    for (int cy = box.y0 / kCell; cy <= box.y1 / kCell; ++cy) {
      for (int cx = box.x0 / kCell; cx <= box.x1 / kCell; ++cx) {
        fn(static_cast<std::size_t>(cy) * gw + cx);
      }
    }
  };
  for (std::size_t j : worklist) {
    const Pblock& box = jobs[j].box;
    Round* home = nullptr;
    for (std::size_t r = 0; r < std::min(rounds.size(), kMaxProbe) && home == nullptr; ++r) {
      bool coarse_hit = false;
      for_cells(box, [&](std::size_t cell) {
        coarse_hit = coarse_hit || ((rounds[r].bits[cell >> 6] >> (cell & 63)) & 1) != 0;
      });
      const auto overlaps = [&](std::size_t m) { return box.overlaps(jobs[m].box); };
      const std::vector<std::size_t>& members = rounds[r].members;
      if (!coarse_hit || std::none_of(members.begin(), members.end(), overlaps)) {
        home = &rounds[r];
      }
    }
    if (home == nullptr) {
      home = &rounds.emplace_back();
      home->bits.assign(words, 0);
    }
    home->members.push_back(j);
    for_cells(box, [&](std::size_t cell) {
      home->bits[cell >> 6] |= std::uint64_t{1} << (cell & 63);
    });
  }
  std::vector<std::size_t> order;
  order.reserve(worklist.size());
  for (const Round& round : rounds) {
    order.insert(order.end(), round.members.begin(), round.members.end());
  }
  return order;
}

/// Routes one net inside its bounding box against the current usage,
/// writing only `route` and the scratch.
bool route_job(const Graph& graph, const Netlist& netlist, const DelayModel& dm,
               const Job& job, RouteInfo& route, double pressure, Scratch& s) {
  const int w = graph.w;
  const Pblock& box = job.box;
  route.edges = job.seed_edges;
  route.sink_delays_ns.clear();

  // Grow a Steiner tree: tree nodes with accumulated delay from driver.
  const int tree_epoch = ++s.epoch;
  std::vector<std::pair<int, double>> tree;
  tree.reserve(job.sink_nodes.size() + job.seed_edges.size() + 1);
  tree.emplace_back(job.driver_node, 0.0);
  s.tree_stamp[static_cast<std::size_t>(job.driver_node)] = tree_epoch;
  s.tree_delay[static_cast<std::size_t>(job.driver_node)] = 0.0;
  // Seed with the locked part of a partial net (delay accumulates outward
  // from the driver along its edges).
  if (!job.seed_edges.empty()) {
    s.walk_tree(graph, job.seed_edges, job.driver_node, tree_epoch, &tree);
  }

  std::vector<int> remaining = job.sink_nodes;
  while (!remaining.empty()) {
    const int search = ++s.epoch;
    for (int t : remaining) s.target_stamp[static_cast<std::size_t>(t)] = search;

    // Admissible A* heuristic: distance to the nearest remaining target.
    // Small fanouts use a direct min-scan; wide fanouts precompute a
    // nearest-target distance grid with one multi-source BFS across the
    // box (exact min-Manhattan on the unobstructed rectangle), so the
    // heuristic stays O(1) per node instead of degenerating to Dijkstra.
    const bool small_fanout = remaining.size() <= 8;
    if (!small_fanout) {
      s.frontier.clear();
      for (int t : remaining) {
        const std::size_t tn = static_cast<std::size_t>(t);
        if (s.target_dist_stamp[tn] != search) {
          s.target_dist_stamp[tn] = search;
          s.target_dist[tn] = 0;
          s.frontier.push_back(t);
        }
      }
      int level = 0;
      while (!s.frontier.empty()) {
        s.next_frontier.clear();
        ++level;
        for (int v : s.frontier) {
          const int x = v % w, y = v / w;
          auto visit = [&](int nx, int ny) {
            const std::size_t nn = static_cast<std::size_t>(ny * w + nx);
            if (s.target_dist_stamp[nn] != search) {
              s.target_dist_stamp[nn] = search;
              s.target_dist[nn] = level;
              s.next_frontier.push_back(static_cast<int>(nn));
            }
          };
          if (x + 1 <= box.x1) visit(x + 1, y);
          if (x - 1 >= box.x0) visit(x - 1, y);
          if (y + 1 <= box.y1) visit(x, y + 1);
          if (y - 1 >= box.y0) visit(x, y - 1);
        }
        s.frontier.swap(s.next_frontier);
      }
    }
    auto heuristic = [&](int node) -> double {
      const std::size_t n = static_cast<std::size_t>(node);
      if (small_fanout) {
        const int x = node % w, y = node / w;
        int best = 1 << 30;
        for (int t : remaining) {
          best = std::min(best, std::abs(x - t % w) + std::abs(y - t / w));
        }
        return best * dm.wire_per_tile;
      }
      return s.target_dist_stamp[n] == search ? s.target_dist[n] * dm.wire_per_tile : 0.0;
    };

    // Multi-source: seed with every tree node at its true delay.
    s.heap.clear();
    for (const auto& [node, delay] : tree) {
      const std::size_t n = static_cast<std::size_t>(node);
      s.dist[n] = delay;
      s.visit_stamp[n] = search;
      s.parent[n] = -1;
      s.heap.push_back({delay + heuristic(node), delay, node});
    }
    std::make_heap(s.heap.begin(), s.heap.end());

    int reached = -1;
    while (!s.heap.empty()) {
      std::pop_heap(s.heap.begin(), s.heap.end());
      const PqEntry top = s.heap.back();
      s.heap.pop_back();
      if (top.g > s.dist[static_cast<std::size_t>(top.node)] + 1e-12) continue;
      if (s.target_stamp[static_cast<std::size_t>(top.node)] == search) {
        reached = top.node;
        break;
      }
      const int x = top.node % w;
      const int y = top.node / w;
      auto relax = [&](int nx, int ny, bool horizontal, std::size_t eidx) {
        const int nn = ny * w + nx;
        const std::size_t n = static_cast<std::size_t>(nn);
        const double ng = top.g + graph.edge_cost(horizontal, eidx, pressure);
        if (s.visit_stamp[n] != search || ng < s.dist[n] - 1e-12) {
          s.visit_stamp[n] = search;
          s.dist[n] = ng;
          s.parent[n] = top.node;
          s.heap.push_back({ng + heuristic(nn), ng, nn});
          std::push_heap(s.heap.begin(), s.heap.end());
        }
      };
      if (x + 1 <= box.x1) relax(x + 1, y, true, graph.h_idx(x, y));
      if (x - 1 >= box.x0) relax(x - 1, y, true, graph.h_idx(x - 1, y));
      if (y + 1 <= box.y1) relax(x, y + 1, false, graph.v_idx(x, y));
      if (y - 1 >= box.y0) relax(x, y - 1, false, graph.v_idx(x, y - 1));
    }
    if (reached < 0) return false;  // target outside the bounded region

    // Walk back, add path edges to the tree with *delay* accumulation.
    std::vector<int> path;
    for (int v = reached; v != -1; v = s.parent[static_cast<std::size_t>(v)]) {
      path.push_back(v);
      if (s.tree_stamp[static_cast<std::size_t>(v)] == tree_epoch) break;
    }
    std::reverse(path.begin(), path.end());
    double delay = s.tree_delay[static_cast<std::size_t>(path.front())];
    for (std::size_t i = 1; i < path.size(); ++i) {
      const int a = path[i - 1], b = path[i];
      const auto [horizontal, eidx] = graph.edge_index(a % w, a / w, b % w, b / w);
      delay += graph.edge_delay(horizontal, eidx);
      route.edges.emplace_back(graph.tile(a), graph.tile(b));
      const std::size_t bn = static_cast<std::size_t>(b);
      if (s.tree_stamp[bn] != tree_epoch) {
        s.tree_stamp[bn] = tree_epoch;
        s.tree_delay[bn] = delay;
        tree.emplace_back(b, delay);
      }
    }
    remaining.erase(std::remove(remaining.begin(), remaining.end(), reached),
                    remaining.end());
  }

  // Per-sink delays in netlist sink order.
  const Net& net = netlist.net(job.net);
  route.sink_delays_ns.resize(net.sinks.size(), dm.wire_unplaced);
  const double fanout_term =
      dm.wire_per_fanout *
      (net.sinks.size() > 1 ? static_cast<double>(net.sinks.size() - 1) : 0.0);
  for (std::size_t sk = 0; sk < net.sinks.size(); ++sk) {
    if (sk < job.old_delays.size()) {
      route.sink_delays_ns[sk] = job.old_delays[sk];  // locked internal sink
      continue;
    }
    const int node = job.sink_node_of_sink[sk];
    if (node < 0) continue;
    const std::size_t n = static_cast<std::size_t>(node);
    const double tree_d = s.tree_stamp[n] == tree_epoch ? s.tree_delay[n] : 0.0;
    route.sink_delays_ns[sk] = dm.wire_base + tree_d + fanout_term;
  }
  route.routed = true;
  return true;
}

}  // namespace

std::string RouteResult::iteration_summary() const {
  std::string out;
  char buf[112];
  for (std::size_t i = 0; i < iteration_stats.size(); ++i) {
    const RouteIterationStats& s = iteration_stats[i];
    std::snprintf(buf, sizeof(buf), "%si%zu: %d rerouted/%ld over/%.2fms wall/%.2fms cpu",
                  i == 0 ? "" : "; ", i + 1, s.nets_rerouted, s.overused_edges,
                  s.wall_seconds * 1e3, s.cpu_seconds * 1e3);
    out += buf;
  }
  return out;
}

RouteResult route_design(const Device& device, const Netlist& netlist, PhysState& phys,
                         const RouteOptions& opt, const DelayModel& dm) {
  RouteResult result;
  Stopwatch route_wall;
  CpuStopwatch route_cpu;
  auto fail = [&](std::string error) {
    result.error = std::move(error);
    result.wall_seconds = route_wall.seconds();
    result.cpu_seconds = route_cpu.seconds();
    return result;
  };
  phys.resize_for(netlist);
  Graph graph(device, opt, dm);
  const std::size_t nodes = static_cast<std::size_t>(graph.w) * graph.h;
  auto outside = [&](NetId n, const char* what, TileCoord t) {
    return fail("net #" + std::to_string(n) + " '" + netlist.net(n).name + "': " + what + " (" +
                std::to_string(t.x) + "," + std::to_string(t.y) +
                ") lies outside the routing area " + graph.area.to_string());
  };

  // Collect the nets to route. `sink_seen` deduplicates sink tiles in O(1)
  // per sink (stamped with the per-net sequence number).
  std::vector<Job> jobs;
  ZeroedArray<int> sink_seen(nodes);
  int job_seq = 0;
  for (NetId n = 0; n < netlist.net_count(); ++n) {
    const Net& net = netlist.net(n);
    const RouteInfo& existing = phys.routes[n];
    const bool partial = existing.routed && existing.sink_delays_ns.size() < net.sinks.size();
    if (existing.routed && !partial) {
      graph.charge_locked(existing);  // fully locked: usage only
      continue;
    }
    // A routing_locked net with no recorded route has nothing to preserve:
    // a component output port net has no sinks inside its checkpoint, so it
    // is only routable once stitching gives it inter-component sinks.
    if (net.sinks.empty()) continue;

    const auto fixed = opt.fixed_terminals.find(n);
    TileCoord driver_loc = kUnplaced;
    if (net.driver != kInvalidCell) {
      driver_loc = phys.cell_loc[net.driver];
    } else if (fixed != opt.fixed_terminals.end()) {
      driver_loc = fixed->second;
    }
    if (driver_loc == kUnplaced) continue;  // unplaced endpoints: STA estimates
    if (!graph.contains(driver_loc)) return outside(n, "driver", driver_loc);

    ++job_seq;
    Job job;
    job.net = n;
    job.driver_node = graph.node(driver_loc);
    job.base_box = Pblock{driver_loc.x - graph.area.x0, driver_loc.y - graph.area.y0,
                          driver_loc.x - graph.area.x0, driver_loc.y - graph.area.y0};
    sink_seen[static_cast<std::size_t>(job.driver_node)] = job_seq;
    if (partial) {
      job.seed_edges = existing.edges;
      job.old_delays = existing.sink_delays_ns;
      for (const auto& [a, b] : job.seed_edges) {
        if (!graph.contains(a)) return outside(n, "locked route tile", a);
        if (!graph.contains(b)) return outside(n, "locked route tile", b);
        grow_box(job, graph.node(a), graph);
        grow_box(job, graph.node(b), graph);
      }
    }
    // Sinks, then the extra fixed terminal (partition pin) of a driven net,
    // which routes like one more sink.
    auto add_target = [&](int node) {
      if (sink_seen[static_cast<std::size_t>(node)] == job_seq) return;
      sink_seen[static_cast<std::size_t>(node)] = job_seq;
      job.sink_nodes.push_back(node);
      grow_box(job, node, graph);
    };
    job.sink_node_of_sink.reserve(net.sinks.size());
    for (std::size_t sk = 0; sk < net.sinks.size(); ++sk) {
      const TileCoord loc = phys.cell_loc[net.sinks[sk].first];
      if (loc == kUnplaced) {
        job.sink_node_of_sink.push_back(-1);
        continue;
      }
      if (!graph.contains(loc)) return outside(n, "sink", loc);
      const int node = graph.node(loc);
      job.sink_node_of_sink.push_back(node);
      if (sk >= job.old_delays.size()) add_target(node);  // else served by the seed
    }
    if (net.driver != kInvalidCell && fixed != opt.fixed_terminals.end()) {
      if (!graph.contains(fixed->second)) return outside(n, "fixed terminal", fixed->second);
      add_target(graph.node(fixed->second));
    }
    job.margin = std::max(0, opt.bbox_margin);
    clamp_box(job, graph);
    jobs.push_back(std::move(job));
  }

  // Per-job routing state kept across iterations for incremental rip-up.
  std::vector<RouteInfo> job_routes(jobs.size());
  std::vector<char> dirty(jobs.size(), 1);  // iteration 1 routes everything
  Scratch scratch(jobs.empty() ? 0 : nodes);

  // PathFinder negotiation.
  for (int iter = 0; iter < opt.max_iterations; ++iter) {
    Stopwatch iter_wall;
    CpuStopwatch iter_cpu;
    const double pressure = opt.present_factor * (iter + 1);

    std::vector<std::size_t> worklist;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (dirty[j] != 0) worklist.push_back(j);
    }
    // Rip up every dirty net before any reroutes: each reroute negotiates
    // against the usage of the clean nets and of the nets rerouted before
    // it this iteration.
    for (std::size_t j : worklist) {
      if (job_routes[j].routed) graph.charge_job(static_cast<std::int32_t>(j), job_routes[j], -1);
      job_routes[j].routed = false;
    }
    for (std::size_t j : route_order(jobs, worklist, graph.w, graph.h)) {
      if (!route_job(graph, netlist, dm, jobs[j], job_routes[j], pressure, scratch)) {
        return fail("unroutable net #" + std::to_string(jobs[j].net));
      }
      graph.charge_job(static_cast<std::int32_t>(j), job_routes[j], +1);
    }

    // Overuse accounting, history update and incremental dirty marking:
    // an overused edge dirties exactly the jobs in its reverse index.
    std::fill(dirty.begin(), dirty.end(), 0);
    int max_over = 0;
    long over_edges = 0;
    bool job_congestion = false;
    auto scan = [&](const ZeroedArray<std::int16_t>& use, ZeroedArray<float>& hist,
                    const ZeroedArray<std::int32_t>& users) {
      for (std::size_t e = 0; e < use.size(); ++e) {
        const int over = use[e] - opt.channel_capacity;
        if (over > 0) {
          ++over_edges;
          max_over = std::max(max_over, over);
          hist[e] += static_cast<float>(opt.history_factor * over);
          for (std::int32_t l = users[e]; l != 0;) {
            const Graph::UserLink& link = graph.links[static_cast<std::size_t>(l)];
            dirty[static_cast<std::size_t>(link.job)] = 1;
            job_congestion = true;
            l = link.next;
          }
        }
      }
    };
    scan(graph.use_h, graph.hist_h, graph.users_h);
    scan(graph.use_v, graph.hist_v, graph.users_v);
    // Congestion-induced rips get a wider search box: the escape route may
    // not fit the current rectangle.
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (dirty[j] != 0) {
        jobs[j].margin += std::max(0, opt.bbox_growth);
        clamp_box(jobs[j], graph);
      }
    }
    if (!opt.incremental && over_edges > 0) std::fill(dirty.begin(), dirty.end(), 1);

    RouteIterationStats stats;
    stats.nets_rerouted = static_cast<int>(worklist.size());
    stats.overused_edges = over_edges;
    stats.max_overuse = max_over;
    stats.wall_seconds = iter_wall.seconds();
    stats.cpu_seconds = iter_cpu.seconds();
    result.iteration_stats.push_back(stats);
    result.iterations = iter + 1;
    result.max_overuse = max_over;
    if (over_edges == 0) break;
    // Residual overuse that involves no open net (locked routes alone
    // oversubscribe an edge) cannot be negotiated away: stop early.
    if (!job_congestion) break;
  }

  // Commit: recompute per-sink delays with the settled usage. During
  // negotiation each net computed its delays while its own usage was ripped
  // up and other nets were still mid-iteration, so the recorded values
  // reflect a stale congestion snapshot. Re-walk every final route tree
  // from the driver against the final use_h/use_v before committing.
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    RouteInfo& route = job_routes[j];
    const Job& job = jobs[j];
    const int settled_epoch = ++scratch.epoch;
    scratch.tree_stamp[static_cast<std::size_t>(job.driver_node)] = settled_epoch;
    scratch.tree_delay[static_cast<std::size_t>(job.driver_node)] = 0.0;
    if (!route.edges.empty()) {
      scratch.walk_tree(graph, route.edges, job.driver_node, settled_epoch, nullptr);
    }
    const Net& net = netlist.net(job.net);
    const double fanout_term =
        dm.wire_per_fanout *
        (net.sinks.size() > 1 ? static_cast<double>(net.sinks.size() - 1) : 0.0);
    for (std::size_t sk = job.old_delays.size(); sk < net.sinks.size(); ++sk) {
      const int node = job.sink_node_of_sink[sk];
      if (node < 0) continue;  // unplaced sink: keep the fallback estimate
      const std::size_t nn = static_cast<std::size_t>(node);
      if (scratch.tree_stamp[nn] != settled_epoch) continue;
      route.sink_delays_ns[sk] = dm.wire_base + scratch.tree_delay[nn] + fanout_term;
    }
    result.edges_used += route.edges.size();
    result.total_wirelength += static_cast<double>(route.edges.size());
    ++result.nets_routed;
    phys.routes[job.net] = std::move(route);
  }
  result.success = true;
  result.wall_seconds = route_wall.seconds();
  result.cpu_seconds = route_cpu.seconds();
  if (result.max_overuse > 0) {
    LOG_DEBUG("router: residual overuse %d after %d iterations", result.max_overuse,
              result.iterations);
  }
  return result;
}

}  // namespace fpgasim
