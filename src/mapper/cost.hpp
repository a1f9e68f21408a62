// Shared cost model of the automatic mapper.
//
// Both solvers (mapper::ExactMapper, mapper::AnnealMapper) minimise the same
// per-item makespan:
//
//   total = II(binding)              epoch makespan from mapping::evaluate
//         + copy_ns                  mesh distance x byte-rate (Eq. 1 term C)
//         + link_ns                  per-item link flips for edges that lost
//                                    the bandwidth race for a 48-wire link
//
// The link term is the BandMap policy (PAPERS.md): inter-process edges are
// sorted hottest-first by their per-item word volume, and each tile's single
// steady output link is granted to the first edge that asks for it.  Colder
// edges crossing the same tile must flip the link every pipeline item and
// are charged the swept per-link reconfiguration cost L for every such hop.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "interconnect/routing.hpp"
#include "mapping/placement.hpp"

namespace cgra::mapper {

/// The three cost-model ingredients every mapper call shares.
struct CostModel {
  mapping::CostParams params{};          ///< II / pinning / ICAP model.
  interconnect::CopyCostModel copy{};    ///< Routed copy cost per word-hop.
  /// Per-link reconfiguration cost L.  Nonzero by default (the paper sweeps
  /// L; 50 ns matches the executed-schedule benches) so bandwidth-aware
  /// link allocation actually differentiates placements.
  interconnect::LinkCostModel link{50.0};
};

/// One inter-group edge after routing and link allocation.
struct RoutedEdge {
  int edge = -1;       ///< Index into net.edges().
  int from_tile = -1;  ///< Costed (worst) producer replica.
  int to_tile = -1;    ///< Costed (worst) consumer replica.
  int words = 0;       ///< 48-bit words per pipeline item.
  std::vector<int> path;   ///< Tile indices from producer to consumer.
  int owned_links = 0;     ///< Hops riding a steady 48-wire link for free.
  int switched_links = 0;  ///< Hops flipping a busier tile's link per item.
  Nanoseconds copy_ns = 0.0;  ///< Relay copies beyond the adjacent hop.
  Nanoseconds link_ns = 0.0;  ///< Per-item link reconfiguration charge.

  [[nodiscard]] Nanoseconds ns_per_item() const noexcept {
    return copy_ns + link_ns;
  }
};

/// Bandwidth-aware link assignment for a placed binding.
struct LinkPlan {
  interconnect::LinkConfig steady;  ///< Who owns each tile's output link.
  std::vector<RoutedEdge> routes;   ///< Inter-group edges, hottest first.
  Nanoseconds copy_ns = 0.0;        ///< Sum of per-edge relay copies.
  Nanoseconds link_ns = 0.0;        ///< Sum of per-edge link flips.
};

/// Per-item cost of a complete mapping.
struct MappedCost {
  Nanoseconds ii_ns = 0.0;    ///< Binding epoch makespan (mapping::evaluate).
  Nanoseconds copy_ns = 0.0;  ///< Routed copy cost of the placement.
  Nanoseconds link_ns = 0.0;  ///< Link flips for edges without a steady wire.
  [[nodiscard]] Nanoseconds total_ns() const noexcept {
    return ii_ns + copy_ns + link_ns;
  }
};

/// Route every inter-group edge (worst replica pair, matching the placement
/// cost model) and allocate steady links hottest-edge-first.
LinkPlan plan_links(const procnet::ProcessNetwork& net,
                    const mapping::Binding& binding,
                    const mapping::Placement& placement,
                    const CostModel& cost);

/// Score a complete mapping under the shared cost model.
MappedCost score_mapping(const procnet::ProcessNetwork& net,
                         const mapping::Binding& binding,
                         const mapping::Placement& placement,
                         const CostModel& cost);

/// Mesh distance tables, built once per map() call: the scorer routes
/// with them and the exact search bounds with them.
struct MeshDistances {
  MeshDistances(int mesh_rows, int mesh_cols);

  /// Floor on the worst replica-pair distance of an edge between groups of
  /// `ra` and `rb` replicas, however they are placed (ra + rb <= tiles):
  /// each replica of one side reaches as many distinct other tiles as the
  /// other side has replicas.
  [[nodiscard]] int pair_floor(int ra, int rb) const {
    return std::max(kth[static_cast<std::size_t>(ra)],
                    kth[static_cast<std::size_t>(rb)]);
  }

  /// plan_links' worst replica pair, read from `dist`: the first pair of
  /// maximal distance in replica order.  Returns that distance.
  int worst_pair(const std::vector<int>& from_tiles,
                 const std::vector<int>& to_tiles, int* from,
                 int* to) const {
    int best = -1;
    for (const int ta : from_tiles) {
      const int* row = &dist[static_cast<std::size_t>(ta * tiles)];
      for (const int tb : to_tiles) {
        if (row[tb] > best) {
          best = row[tb];
          *from = ta;
          *to = tb;
        }
      }
    }
    return best;
  }

  int rows = 0;
  int cols = 0;
  int tiles = 0;
  std::vector<int> dist;  ///< dist[a * tiles + b]: Manhattan distance.
  /// kth[k] (0 < k < tiles): the smallest k-th-nearest-other-tile distance
  /// over every tile of the mesh; kth[0] = 0.
  std::vector<int> kth;
};

/// Allocation-free scorer for one (network, mesh, cost model): the
/// annealer scores every proposal with it and the exact search every
/// placement leaf.  It reuses its scratch (process owners, steady links)
/// across calls, orders the edges hottest-first once, reads replica
/// distances from its MeshDistances, walks each row-first route in place,
/// and sums copy and link costs in plan_links' order, so its doubles are
/// bit-equal to score_mapping's.  plan_links stays the output path (it
/// also records routes) and bench_mapper's yardstick.
class Scorer {
 public:
  Scorer(const procnet::ProcessNetwork& net, int mesh_rows, int mesh_cols,
         const CostModel& cost);

  /// score_mapping(net, binding, placement, cost), bit for bit.
  [[nodiscard]] MappedCost score(const mapping::Binding& binding,
                                 const mapping::Placement& placement);

  /// The copy_ns and link_ns of plan_links for these replica tiles (one
  /// row of valid mesh tiles per group), bit for bit; ii_ns stays 0.
  [[nodiscard]] MappedCost route(const mapping::Binding& binding,
                                 const std::vector<std::vector<int>>& tile_of);

  /// The mesh's distance tables, shared with the exact search's bounds.
  [[nodiscard]] const MeshDistances& distances() const { return mesh_; }

 private:
  const procnet::ProcessNetwork& net_;
  const CostModel& cost_;
  MeshDistances mesh_;
  std::vector<int> hot_;             ///< Edge ids, hottest first (stable).
  std::vector<int> owner_;           ///< Group of each process.
  std::vector<std::uint8_t> steady_; ///< Claimed output direction per tile.
};

/// Deterministic topological order (procnet::topological_order, re-exported
/// here because both solvers seed from it).
std::vector<int> topological_order(const procnet::ProcessNetwork& net);

/// List-scheduling seed: min-makespan contiguous partition of the
/// topological order into g groups for every g <= budget, returned both
/// plain and (when the leftover budget adds any) water-filled with replicas
/// — replication lifts compute-bound shapes and sinks copy-bound ones, so
/// the caller scores both.  Never empty for a valid network and budget >= 1.
std::vector<mapping::Binding> seed_bindings(const procnet::ProcessNetwork& net,
                                            int budget,
                                            const mapping::CostParams& params);

/// Grow `binding` by `extra` replicas, one at a time, always replicating the
/// group with the highest effective busy time.  Stops early when that group
/// is not a replicable singleton.  Returns how many replicas were added.
int water_fill_replicas(const procnet::ProcessNetwork& net,
                        mapping::Binding& binding, int extra,
                        const mapping::CostParams& params);

}  // namespace cgra::mapper
