#include "mapper/cost.hpp"

#include <algorithm>
#include <numeric>

#include "mapping/rebalance.hpp"

namespace cgra::mapper {

using interconnect::LinkConfig;
using mapping::Binding;
using mapping::Placement;
using procnet::ProcessNetwork;

namespace {

/// Worst replica pair of an inter-group edge: the pipeline is gated by its
/// slowest path, so that pair is the one routed and costed (the same rule
/// mapping::evaluate_placement applies).  Deterministic: the first pair of
/// maximal distance in replica order wins.  Returns that distance.
int worst_pair(const LinkConfig& mesh, const std::vector<int>& from_tiles,
               const std::vector<int>& to_tiles, int* from, int* to) {
  int best = -1;
  for (const int ta : from_tiles) {
    for (const int tb : to_tiles) {
      const int d = interconnect::manhattan_distance(mesh, ta, tb);
      if (d > best) {
        best = d;
        *from = ta;
        *to = tb;
      }
    }
  }
  return best;
}

}  // namespace

LinkPlan plan_links(const ProcessNetwork& net, const Binding& binding,
                    const Placement& placement, const CostModel& cost) {
  LinkPlan plan;
  const LinkConfig mesh = placement.mesh();
  plan.steady = mesh;  // all links initially unassigned
  const std::vector<int> owner = mapping::owner_of_processes(net, binding);

  // Hottest edge first: per-item word volume is the bandwidth proxy (every
  // edge moves words * 6 bytes per pipeline item).
  std::vector<int> order;
  for (int e = 0; e < static_cast<int>(net.edges().size()); ++e) {
    const auto& edge = net.edges()[static_cast<std::size_t>(e)];
    const int ga = owner[static_cast<std::size_t>(edge.from)];
    const int gb = owner[static_cast<std::size_t>(edge.to)];
    if (ga < 0 || gb < 0 || ga == gb) continue;  // in-tile communication
    order.push_back(e);
  }
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return net.edges()[static_cast<std::size_t>(a)].words >
           net.edges()[static_cast<std::size_t>(b)].words;
  });

  for (const int e : order) {
    const auto& edge = net.edges()[static_cast<std::size_t>(e)];
    const int ga = owner[static_cast<std::size_t>(edge.from)];
    const int gb = owner[static_cast<std::size_t>(edge.to)];
    RoutedEdge r;
    r.edge = e;
    r.words = edge.words;
    worst_pair(mesh, placement.tile_of[static_cast<std::size_t>(ga)],
               placement.tile_of[static_cast<std::size_t>(gb)], &r.from_tile,
               &r.to_tile);
    const auto route =
        interconnect::shortest_route(mesh, r.from_tile, r.to_tile);
    if (!route.has_value()) continue;  // unreachable on a valid mesh
    int cur = r.from_tile;
    r.path.push_back(cur);
    for (const auto dir : route->hops) {
      const auto claimed = plan.steady.output(cur);
      if (!claimed.has_value()) {
        // This edge wins the tile's 48-wire link: free steady transfer.
        plan.steady.set_output(cur, dir);
        ++r.owned_links;
      } else if (*claimed == dir) {
        ++r.owned_links;  // shares the already-won wire direction
      } else {
        ++r.switched_links;  // must flip a busier edge's link every item
      }
      cur = *mesh.neighbor(cur, dir);
      r.path.push_back(cur);
    }
    const int hops = route->length();
    r.copy_ns = cost.copy.transfer_ns(edge.words, hops - 1);
    r.link_ns = cost.link.links_ns(r.switched_links);
    plan.copy_ns += r.copy_ns;
    plan.link_ns += r.link_ns;
    plan.routes.push_back(std::move(r));
  }
  return plan;
}

MappedCost score_mapping(const ProcessNetwork& net, const Binding& binding,
                         const Placement& placement, const CostModel& cost) {
  MappedCost out;
  out.ii_ns = mapping::evaluate(net, binding, cost.params).ii_ns;
  const LinkPlan plan = plan_links(net, binding, placement, cost);
  out.copy_ns = plan.copy_ns;
  out.link_ns = plan.link_ns;
  return out;
}

Scorer::Scorer(const ProcessNetwork& net, int mesh_rows, int mesh_cols,
               const CostModel& cost)
    : net_(net),
      cost_(cost),
      mesh_(mesh_rows, mesh_cols),
      hot_(net.edges().size()),
      owner_(static_cast<std::size_t>(net.size())),
      steady_(static_cast<std::size_t>(mesh_rows * mesh_cols)) {
  // plan_links stable-sorts the inter-group edges; filtering this order
  // per call yields the same sequence.
  std::iota(hot_.begin(), hot_.end(), 0);
  std::stable_sort(hot_.begin(), hot_.end(), [&](int a, int b) {
    return net.edges()[static_cast<std::size_t>(a)].words >
           net.edges()[static_cast<std::size_t>(b)].words;
  });
}

MappedCost Scorer::score(const Binding& binding, const Placement& placement) {
  MappedCost out = route(binding, placement.tile_of);
  // mapping::evaluate's II fold: max(busy / replication) from 0.0.
  for (const auto& g : binding.groups) {
    out.ii_ns = std::max(out.ii_ns,
                         mapping::group_busy_ns(net_, g.procs, cost_.params) /
                             static_cast<double>(g.replication));
  }
  return out;
}

MappedCost Scorer::route(const Binding& binding,
                         const std::vector<std::vector<int>>& tile_of) {
  constexpr std::uint8_t kFree = 0xFF;
  std::fill(owner_.begin(), owner_.end(), -1);
  for (std::size_t g = 0; g < binding.groups.size(); ++g) {
    for (const int p : binding.groups[g].procs) {
      owner_[static_cast<std::size_t>(p)] = static_cast<int>(g);
    }
  }
  std::fill(steady_.begin(), steady_.end(), kFree);
  MappedCost out;
  for (const int e : hot_) {
    const auto& edge = net_.edges()[static_cast<std::size_t>(e)];
    const int ga = owner_[static_cast<std::size_t>(edge.from)];
    const int gb = owner_[static_cast<std::size_t>(edge.to)];
    if (ga < 0 || gb < 0 || ga == gb) continue;
    int from = 0;
    int to = 0;
    const int hops =
        mesh_.worst_pair(tile_of[static_cast<std::size_t>(ga)],
                         tile_of[static_cast<std::size_t>(gb)], &from, &to);
    // shortest_route's row-first hops, claiming links as plan_links does.
    int switched = 0;
    auto hop = [&](int& cur, interconnect::Direction dir, int step) {
      std::uint8_t& claimed = steady_[static_cast<std::size_t>(cur)];
      if (claimed == kFree) {
        claimed = static_cast<std::uint8_t>(dir);
      } else if (claimed != static_cast<std::uint8_t>(dir)) {
        ++switched;
      }
      cur += step;
    };
    using interconnect::Direction;
    int cur = from;
    const int cols = mesh_.cols;
    const int to_row = to / cols;
    while (cur / cols < to_row) hop(cur, Direction::kSouth, cols);
    while (cur / cols > to_row) hop(cur, Direction::kNorth, -cols);
    while (cur < to) hop(cur, Direction::kEast, 1);
    while (cur > to) hop(cur, Direction::kWest, -1);
    out.copy_ns += cost_.copy.transfer_ns(edge.words, hops - 1);
    out.link_ns += cost_.link.links_ns(switched);
  }
  return out;
}

MeshDistances::MeshDistances(int mesh_rows, int mesh_cols)
    : rows(mesh_rows),
      cols(mesh_cols),
      tiles(mesh_rows * mesh_cols),
      dist(static_cast<std::size_t>(tiles * tiles)),
      kth(static_cast<std::size_t>(tiles), tiles) {
  const interconnect::LinkConfig mesh(mesh_rows, mesh_cols);
  std::vector<int> others;
  kth[0] = 0;
  for (int a = 0; a < tiles; ++a) {
    others.clear();
    for (int b = 0; b < tiles; ++b) {
      const int d = interconnect::manhattan_distance(mesh, a, b);
      dist[static_cast<std::size_t>(a * tiles + b)] = d;
      if (b != a) others.push_back(d);
    }
    std::sort(others.begin(), others.end());
    for (std::size_t k = 1; k < kth.size(); ++k) {
      kth[k] = std::min(kth[k], others[k - 1]);
    }
  }
}

std::vector<int> topological_order(const ProcessNetwork& net) {
  return procnet::topological_order(net);
}

int water_fill_replicas(const ProcessNetwork& net, Binding& binding, int extra,
                        const mapping::CostParams& params) {
  std::vector<Nanoseconds> busy(binding.groups.size());
  for (std::size_t g = 0; g < binding.groups.size(); ++g) {
    busy[g] = mapping::group_busy_ns(net, binding.groups[g].procs, params);
  }
  int added = 0;
  for (int k = 0; k < extra; ++k) {
    std::size_t heaviest = 0;
    double worst = -1.0;
    for (std::size_t g = 0; g < binding.groups.size(); ++g) {
      const double eff =
          busy[g] / static_cast<double>(binding.groups[g].replication);
      if (eff > worst) {
        worst = eff;
        heaviest = g;
      }
    }
    auto& grp = binding.groups[heaviest];
    // Only replicating the bottleneck can lower II; if it cannot be
    // replicated, further replicas anywhere just add placement cost.
    if (grp.procs.size() != 1 ||
        !net.process(grp.procs.front()).replicable) {
      break;
    }
    ++grp.replication;
    ++added;
  }
  return added;
}

std::vector<Binding> seed_bindings(const ProcessNetwork& net, int budget,
                                   const mapping::CostParams& params) {
  std::vector<Binding> out;
  const std::vector<int> order = procnet::topological_order(net);
  const int max_groups = std::min(budget, net.size());
  for (int g = 1; g <= max_groups; ++g) {
    Binding b;
    for (auto& part : mapping::optimal_partition(net, order, g, params)) {
      b.groups.push_back({std::move(part), 1});
    }
    // Replication lifts compute-bound shapes and sinks copy-bound ones
    // (every replica pair pays placement cost), so offer the caller both
    // the plain partition and the water-filled variant.
    Binding filled = b;
    out.push_back(std::move(b));
    if (water_fill_replicas(net, filled, budget - g, params) > 0) {
      out.push_back(std::move(filled));
    }
  }
  return out;
}

}  // namespace cgra::mapper
