// Exact mapper: branch-and-bound over set partitions composed with a
// placement branch-and-bound, both under admissible lower bounds.
//
// Candidate space (documented in docs/MAPPING.md):
//   * bindings: every set partition of the processes into at most
//     `budget` groups (canonical enumeration in topological order, each
//     partition generated exactly once), crossed with every replication
//     vector that is minimal for its makespan level — a replica that does
//     not lower II can only add placement cost, so non-minimal vectors are
//     dominated and skipped;
//   * placements: every injective assignment of group replicas to mesh
//     tiles, searched with an incremental worst-replica-pair copy-cost
//     bound (the link term is evaluated at leaves; it is nonnegative, so
//     the bound stays admissible).  The bound charges each edge at least
//     its replica-distance floor (MeshDistances::pair_floor), the distance
//     its worst pair reaches however the rest is placed.
//
// Candidates are placement-searched in order of rising II and the search
// stops as soon as the next candidate's II cannot beat the best total —
// II is a lower bound on any placement's total.  A candidate whose II plus
// its edges' floor costs already reaches the best total is skipped without
// a search.  `optimal` reports whether that proof ran to completion inside
// the node budgets.
//
// Most candidates are never placement-searched, so a candidate is stored
// compactly (a partition row and a replication vector in flat pools, plus
// its II and tile count) and becomes a Binding only when it is searched.
#include <algorithm>
#include <cmath>
#include <cstdint>

#include "mapper/mapper.hpp"

namespace cgra::mapper {

namespace {

using mapping::Binding;
using mapping::Placement;
using procnet::ProcessNetwork;

/// A candidate binding: the partition and replication vector it names in
/// the CandidatePool, and the II and tile count it would evaluate to.
struct Candidate {
  int partition = 0;    ///< Row of CandidatePool::labels.
  int replication = 0;  ///< Offset of its vector in CandidatePool::reps.
  Nanoseconds ii_ns = 0.0;
  int tiles = 0;
};

/// Flat storage behind every Candidate of one map() call.
struct CandidatePool {
  std::vector<int> order;         ///< Topological order of the processes.
  std::vector<int> labels;        ///< Group of order[i]; one row/partition.
  std::vector<int> group_counts;  ///< Groups per partition row.
  std::vector<int> reps;          ///< Concatenated replication vectors.
  std::vector<int> position;      ///< Index of each process in `order`.

  /// The Binding a candidate names (groups list processes in topological
  /// order, exactly as the partition search built them).
  [[nodiscard]] Binding binding(const Candidate& c) const {
    const std::size_t n = order.size();
    const int g = group_counts[static_cast<std::size_t>(c.partition)];
    const int* label = &labels[static_cast<std::size_t>(c.partition) * n];
    Binding b;
    b.groups.resize(static_cast<std::size_t>(g));
    for (std::size_t i = 0; i < n; ++i) {
      b.groups[static_cast<std::size_t>(label[i])].procs.push_back(order[i]);
    }
    for (int i = 0; i < g; ++i) {
      b.groups[static_cast<std::size_t>(i)].replication =
          reps[static_cast<std::size_t>(c.replication + i)];
    }
    return b;
  }

  /// The copy cost any placement of a candidate pays at least: every
  /// inter-group edge charged at its replica-distance floor.
  [[nodiscard]] Nanoseconds floor_ns(const Candidate& c,
                                     const ProcessNetwork& net,
                                     const CostModel& cost,
                                     const MeshDistances& mesh) const {
    const int* label =
        &labels[static_cast<std::size_t>(c.partition) * order.size()];
    const int* r = &reps[static_cast<std::size_t>(c.replication)];
    Nanoseconds sum = 0.0;
    for (const auto& edge : net.edges()) {
      const int ga = label[position[static_cast<std::size_t>(edge.from)]];
      const int gb = label[position[static_cast<std::size_t>(edge.to)]];
      if (ga == gb) continue;
      sum += cost.copy.transfer_ns(edge.words,
                                   mesh.pair_floor(r[ga], r[gb]) - 1);
    }
    return sum;
  }
};

/// Inter-group edge of one candidate binding.
struct GroupEdge {
  int a = 0;  ///< Producer group.
  int b = 0;  ///< Consumer group.
  int words = 0;
  int floor = 0;  ///< MeshDistances::pair_floor of the two groups.
};

/// Placement branch-and-bound for one candidate binding.
class PlacementSearch {
 public:
  PlacementSearch(const ProcessNetwork& net, const Binding& binding,
                  Nanoseconds ii_ns, const CostModel& cost,
                  const MeshDistances& mesh, Scorer* scorer,
                  std::int64_t* nodes_left)
      : binding_(binding),
        ii_ns_(ii_ns),
        mesh_(mesh),
        scorer_(scorer),
        nodes_left_(nodes_left) {
    const auto owner = mapping::owner_of_processes(net, binding);
    const auto& groups = binding.groups;
    for (const auto& edge : net.edges()) {
      const int ga = owner[static_cast<std::size_t>(edge.from)];
      const int gb = owner[static_cast<std::size_t>(edge.to)];
      if (ga == gb) continue;
      const int floor =
          mesh.pair_floor(groups[static_cast<std::size_t>(ga)].replication,
                          groups[static_cast<std::size_t>(gb)].replication);
      edges_.push_back({ga, gb, edge.words, floor});
      // A floor of 0 or 1 hop costs nothing, like an unplaced edge.
      has_floor_ = has_floor_ || floor >= 2;
    }
    // edge_ns_[e * stride + d + 1] = transfer_ns(words, d - 1) for every
    // distance d the search can hold, -1 ("nothing placed yet") included:
    // transfer_ns is 0 for hops <= 0, the same 0.0 the bound charged an
    // edge before its first placed pair.
    stride_ = mesh.rows + mesh.cols;
    edge_ns_.reserve(edges_.size() * static_cast<std::size_t>(stride_));
    for (const auto& ge : edges_) {
      for (int d = -1; d + 1 < stride_; ++d) {
        edge_ns_.push_back(cost.copy.transfer_ns(ge.words, d - 1));
      }
    }
    std::size_t undo_max = 0;
    for (int g = 0; g < static_cast<int>(groups.size()); ++g) {
      edges_of_group_.emplace_back();
      for (int e = 0; e < static_cast<int>(edges_.size()); ++e) {
        if (edges_[static_cast<std::size_t>(e)].a == g ||
            edges_[static_cast<std::size_t>(e)].b == g) {
          edges_of_group_.back().push_back(e);
        }
      }
      const int r = groups[static_cast<std::size_t>(g)].replication;
      for (int k = 0; k < r; ++k) units_.push_back(g);
      undo_max += edges_of_group_.back().size() * static_cast<std::size_t>(r);
    }
    worst_.assign(edges_.size(), -1);
    // Each placed replica logs at most one undo entry per touched edge.
    undo_.reserve(undo_max);
    placed_.resize(groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
      placed_[g].reserve(static_cast<std::size_t>(groups[g].replication));
    }
  }

  /// Search; updates *best_total/*best_placement on improvement.  Returns
  /// false if the node budget ran out (proof incomplete).  `floor_ns` is
  /// CandidatePool::floor_ns of the binding.
  bool run(Nanoseconds floor_ns, Nanoseconds* best_total,
           Placement* best_placement) {
    best_total_ = best_total;
    best_placement_ = best_placement;
    complete_ = true;
    if (has_floor_) {
      descend<true>(0, 0u, 0.0, floor_ns);
    } else {
      descend<false>(0, 0u, 0.0, 0.0);
    }
    return complete_;
  }

 private:
  /// `partial` sums each edge's copy cost at its worst placed pair, which
  /// is what a leaf totals.  With kFloor, `bound` sums it at
  /// max(worst placed pair, floor) instead: no placement below this node
  /// can pay less.  Once the last replica is placed every floor is met, so
  /// there the leaf's own `partial` sum is tested, not the differently
  /// rounded `bound`.  Without a floor of 2 or more hops the two sums are
  /// bit-equal, and skipping the floor arithmetic spares fan-in shapes
  /// such as bench_mapper's gather_fanin about a sixth of their solve time.
  template <bool kFloor>
  void descend(std::size_t unit, std::uint32_t used, Nanoseconds partial,
               Nanoseconds bound) {
    if (*nodes_left_ <= 0) {
      complete_ = false;
      return;
    }
    --*nodes_left_;
    if (unit == units_.size()) {
      leaf(partial);
      return;
    }
    const int n = mesh_.tiles;
    const int g = units_[unit];
    auto& placed_g = placed_[static_cast<std::size_t>(g)];
    // Replicas of one group are interchangeable: force ascending tile
    // indices within the group to break the r! symmetry.
    const int floor_tile =
        (unit > 0 && units_[unit - 1] == g) ? placed_g.back() + 1 : 0;
    const auto& group_edges = edges_of_group_[static_cast<std::size_t>(g)];
    const bool last = unit + 1 == units_.size();
    for (int t = floor_tile; t < n; ++t) {
      if ((used >> t) & 1u) continue;
      const int* dist_t = &mesh_.dist[static_cast<std::size_t>(t * n)];
      // Incrementally lift each touched edge's worst placed replica pair.
      // Recursion below reuses the shared worst_ array and undo stack, so
      // each frame restores exactly its own writes, down to its own base.
      const std::size_t undo_base = undo_.size();
      Nanoseconds delta = 0.0;
      Nanoseconds bound_delta = 0.0;
      for (const int e : group_edges) {
        const auto& ge = edges_[static_cast<std::size_t>(e)];
        const int other = ge.a == g ? ge.b : ge.a;
        const int old = worst_[static_cast<std::size_t>(e)];
        int far = old;
        for (const int t2 : placed_[static_cast<std::size_t>(other)]) {
          far = std::max(far, dist_t[t2]);
        }
        // The same-group placed replicas never pair with t (an edge always
        // crosses groups), so `far` only reflects cross-group pairs.
        if (far != old) {
          const Nanoseconds* ns =
              &edge_ns_[static_cast<std::size_t>(e * stride_ + 1)];
          delta += ns[far] - ns[old];
          if constexpr (kFloor) {
            bound_delta += ns[std::max(far, ge.floor)] -
                           ns[std::max(old, ge.floor)];
          }
          undo_.emplace_back(e, old);
          worst_[static_cast<std::size_t>(e)] = far;
        }
      }
      const Nanoseconds lower = kFloor && !last
                                    ? ii_ns_ + bound + bound_delta
                                    : ii_ns_ + partial + delta;
      if (lower < *best_total_) {
        placed_g.push_back(t);
        descend<kFloor>(unit + 1, used | (1u << t), partial + delta,
                        bound + bound_delta);
        placed_g.pop_back();
      }
      while (undo_.size() > undo_base) {
        worst_[static_cast<std::size_t>(undo_.back().first)] =
            undo_.back().second;
        undo_.pop_back();
      }
      if (!complete_) return;
    }
  }

  void leaf(Nanoseconds partial) {
    const Nanoseconds total =
        ii_ns_ + partial + scorer_->route(binding_, placed_).link_ns;
    if (total < *best_total_) {
      *best_total_ = total;
      best_placement_->mesh_rows = mesh_.rows;
      best_placement_->mesh_cols = mesh_.cols;
      best_placement_->tile_of = placed_;
    }
  }

  const Binding& binding_;
  Nanoseconds ii_ns_;
  const MeshDistances& mesh_;
  Scorer* scorer_;
  std::int64_t* nodes_left_;
  std::vector<GroupEdge> edges_;
  bool has_floor_ = false;                  ///< Some edge's floor >= 2.
  int stride_ = 0;                          ///< Row length of edge_ns_.
  std::vector<Nanoseconds> edge_ns_;        ///< Per-edge cost by distance.
  std::vector<std::vector<int>> edges_of_group_;
  std::vector<int> units_;                  ///< Group id per placed replica.
  std::vector<int> worst_;                  ///< Per-edge worst placed pair.
  std::vector<std::pair<int, int>> undo_;   ///< (edge, previous worst_).
  std::vector<std::vector<int>> placed_;    ///< Tiles per group so far.
  Nanoseconds* best_total_ = nullptr;
  Placement* best_placement_ = nullptr;
  bool complete_ = true;
};

/// Canonical set-partition enumeration with busy-time lower bounds.
class PartitionSearch {
 public:
  PartitionSearch(const ProcessNetwork& net, int budget,
                  const mapping::CostParams& params, CandidatePool* pool,
                  std::int64_t* nodes_left)
      : net_(net),
        budget_(budget),
        params_(params),
        pool_(pool),
        nodes_left_(nodes_left) {
    label_.assign(pool->order.size(), 0);
  }

  /// Enumerate partitions whose II lower bound stays below `prune_above`,
  /// emitting every (partition x minimal replication) candidate whose II
  /// is below it too.  Returns false if the node budget ran out.
  bool run(Nanoseconds prune_above, std::vector<Candidate>* out) {
    prune_above_ = prune_above;
    out_ = out;
    complete_ = true;
    assign(0);
    return complete_;
  }

 private:
  void assign(std::size_t idx) {
    if (*nodes_left_ <= 0) {
      complete_ = false;
      return;
    }
    --*nodes_left_;
    const auto& order = pool_->order;
    if (idx == order.size()) {
      emit();
      return;
    }
    const int p = order[idx];
    const int g = static_cast<int>(groups_.size());
    for (int target = 0; target <= g && complete_; ++target) {
      if (target == g && g >= budget_) break;
      // A group's busy time depends only on its process list, so the value
      // saved before the push is exactly what a pop restores.
      Nanoseconds saved = 0.0;
      if (target == g) {
        groups_.emplace_back(1, p);
        busy_.push_back(mapping::group_busy_ns(net_, groups_.back(), params_));
      } else {
        auto& group = groups_[static_cast<std::size_t>(target)];
        saved = busy_[static_cast<std::size_t>(target)];
        group.push_back(p);
        busy_[static_cast<std::size_t>(target)] =
            mapping::group_busy_ns(net_, group, params_);
      }
      label_[idx] = target;
      if (lower_bound() < prune_above_) assign(idx + 1);
      if (target == g) {
        groups_.pop_back();
        busy_.pop_back();
      } else {
        groups_[static_cast<std::size_t>(target)].pop_back();
        busy_[static_cast<std::size_t>(target)] = saved;
      }
    }
  }

  /// Group i may replicate: a singleton whose process is replicable.
  [[nodiscard]] bool replicable(std::size_t i) const {
    return groups_[i].size() == 1 &&
           net_.process(groups_[i].front()).replicable;
  }

  /// Admissible II bound of any completion of the partial partition: a
  /// multi-process group can never replicate; a singleton may replicate up
  /// to the tiles no other group needs.
  [[nodiscard]] Nanoseconds lower_bound() const {
    const int g = static_cast<int>(groups_.size());
    const int cap = std::max(1, budget_ - g + 1);
    Nanoseconds lb = 0.0;
    for (std::size_t i = 0; i < groups_.size(); ++i) {
      lb = std::max(lb, replicable(i) ? busy_[i] / cap : busy_[i]);
    }
    return lb;
  }

  /// Emit the complete partition's candidates: one per replication vector
  /// minimal for its makespan level, r_i(t) = ceil(busy_i / t) over
  /// replicable singletons, for every level t drawn from {busy_i / k}.
  /// The all-ones vector comes first; vectors are deduplicated, and only
  /// those whose tile sum fits the budget and whose II is below the prune
  /// bound are kept.
  ///
  /// Every r_i(t) is nonincreasing in t, so one partition's vectors form
  /// a chain: of two levels, the lower one's vector is at least the other
  /// one's in every group.  Hence a lower level never needs fewer tiles
  /// (a group's levels stop at the first one over budget), and two of the
  /// vectors are equal exactly when their tile sums are (dedup by tiles).
  void emit() {
    const std::size_t g = groups_.size();
    auto& reps = pool_->reps;
    const std::size_t first_rep = reps.size();
    const int partition = static_cast<int>(pool_->group_counts.size());
    r_.resize(g);
    // Bit n set: a stored vector has n tiles (n <= budget <= 16).
    std::uint32_t stored_tiles = 0;
    // Returns false when level t needs more tiles than the budget.
    auto add_level = [&](double t) {
      if (t <= 0.0) return true;
      int tiles = 0;
      for (std::size_t i = 0; i < g; ++i) {
        r_[i] = 1;
        if (replicable(i) && busy_[i] > t) {
          r_[i] = static_cast<int>(std::ceil(busy_[i] / t - 1e-9));
        }
        tiles += r_[i];
      }
      if (tiles > budget_) return false;
      // A vector whose II misses the bound is not stored; a duplicate of
      // it is recomputed and dropped again.
      if ((stored_tiles >> tiles) & 1u) return true;
      // II folds max(busy / r) from 0.0 in group order, as
      // mapping::evaluate does, so it is bit-equal to evaluate's ii_ns.
      Nanoseconds ii = 0.0;
      for (std::size_t i = 0; i < g; ++i) {
        ii = std::max(ii, busy_[i] / static_cast<double>(r_[i]));
      }
      if (!(ii < prune_above_)) return true;
      stored_tiles |= 1u << tiles;
      out_->push_back({partition, static_cast<int>(reps.size()), ii, tiles});
      reps.insert(reps.end(), r_.begin(), r_.end());
      return true;
    };
    add_level(*std::max_element(busy_.begin(), busy_.end()));  // all ones
    // Every group's busy/k is a candidate level, k = 1 included: a slow
    // non-replicable (or unsplit) group sets the makespan floor the OTHER
    // groups replicate down to, so its k = 1 level demands a vector of its
    // own (e.g. the diamond: join's floor asks left and right for 2 replicas
    // each even though join itself never replicates).
    for (std::size_t i = 0; i < g; ++i) {
      const int k_max =
          replicable(i) ? budget_ - static_cast<int>(g) + 1 : 1;
      // busy_i / k falls as k grows, so past the first level over budget
      // every level is over budget too.
      for (int k = 1; k <= k_max; ++k) {
        if (!add_level(busy_[i] / static_cast<double>(k))) break;
      }
    }
    if (reps.size() > first_rep) {
      pool_->labels.insert(pool_->labels.end(), label_.begin(), label_.end());
      pool_->group_counts.push_back(static_cast<int>(g));
    }
  }

  const ProcessNetwork& net_;
  int budget_;
  const mapping::CostParams& params_;
  CandidatePool* pool_;
  std::int64_t* nodes_left_;
  std::vector<std::vector<int>> groups_;
  std::vector<Nanoseconds> busy_;
  std::vector<int> label_;  ///< Group of order[i] in the partial partition.
  std::vector<int> r_;      ///< Replication vector being built by emit().
  Nanoseconds prune_above_ = 0.0;
  std::vector<Candidate>* out_ = nullptr;
  bool complete_ = true;
};

}  // namespace

MappedNetwork ExactMapper::map(const ProcessNetwork& net, int mesh_rows,
                               int mesh_cols,
                               const MapperOptions& options) const {
  MappedNetwork out;
  out.solver = name();
  out.status = validate_map_inputs(net, mesh_rows, mesh_cols, options);
  if (!out.status.ok()) return out;
  const int mesh_tiles = mesh_rows * mesh_cols;
  if (mesh_tiles > 16 || net.size() > 12) {
    out.status = Status::errorf(
        "exact mapper handles meshes of <= 16 tiles and <= 12 processes "
        "(got %dx%d, %d processes); use the annealing solver",
        mesh_rows, mesh_cols, net.size());
    return out;
  }
  const int budget =
      options.max_tiles > 0 ? std::min(options.max_tiles, mesh_tiles)
                            : mesh_tiles;
  const CostModel& cost = options.cost;

  // Greedy seed: best list-scheduling binding under snake + local search —
  // a finite incumbent that makes the bounds bite from the first node.
  Nanoseconds best_total = 0.0;
  bool have_best = false;
  Binding best_binding;
  Placement best_placement;
  for (const auto& seed : seed_bindings(net, budget, cost.params)) {
    Placement p = mapping::improve_placement(
        net, seed,
        mapping::place(seed, mesh_rows, mesh_cols,
                       mapping::PlacementStrategy::kSnake),
        cost.copy);
    const Nanoseconds total = score_mapping(net, seed, p, cost).total_ns();
    if (!have_best || total < best_total) {
      have_best = true;
      best_total = total;
      best_binding = seed;
      best_placement = std::move(p);
    }
  }

  std::int64_t nodes_left = options.node_budget;
  CandidatePool pool;
  pool.order = procnet::topological_order(net);
  pool.position.resize(pool.order.size());
  for (std::size_t i = 0; i < pool.order.size(); ++i) {
    pool.position[static_cast<std::size_t>(pool.order[i])] =
        static_cast<int>(i);
  }
  std::vector<Candidate> candidates;
  PartitionSearch partitions(net, budget, cost.params, &pool, &nodes_left);
  bool proof = partitions.run(best_total, &candidates);

  // Candidates are visited by rising (II, tiles), ties in emission order,
  // which is the order of their replication offsets: a min-heap pops them
  // in the order a stable sort would list them, and the search below
  // usually stops after a small fraction of them.
  const auto later = [](const Candidate& a, const Candidate& b) {
    if (a.ii_ns != b.ii_ns) return a.ii_ns > b.ii_ns;
    if (a.tiles != b.tiles) return a.tiles > b.tiles;
    return a.replication > b.replication;
  };
  std::make_heap(candidates.begin(), candidates.end(), later);

  // When no candidate's II beats the seed (as in most small cases), no
  // placement tables are built.
  if (!candidates.empty()) {
    Scorer scorer(net, mesh_rows, mesh_cols, cost);
    const MeshDistances& mesh = scorer.distances();
    int searched = 0;
    while (!candidates.empty()) {
      std::pop_heap(candidates.begin(), candidates.end(), later);
      const Candidate cand = candidates.back();
      candidates.pop_back();
      // II bounds any placement's total, and with the replica-distance
      // floors so does II + floor_ns; a candidate ruled out by the latter is
      // neither searched nor counted.
      if (cand.ii_ns >= best_total) break;
      const Nanoseconds floor_ns = pool.floor_ns(cand, net, cost, mesh);
      if (cand.ii_ns + floor_ns >= best_total) continue;
      if (searched >= options.binding_budget || nodes_left <= 0) {
        proof = false;
        break;
      }
      ++searched;
      Nanoseconds before = best_total;
      Binding binding = pool.binding(cand);
      Placement found;
      if (!PlacementSearch(net, binding, cand.ii_ns, cost, mesh, &scorer,
                           &nodes_left)
               .run(floor_ns, &best_total, &found)) {
        proof = false;
      }
      if (best_total < before) {
        best_binding = std::move(binding);
        best_placement = std::move(found);
      }
    }
  }

  out.binding = std::move(best_binding);
  out.placement = std::move(best_placement);
  out.links = plan_links(net, out.binding, out.placement, cost);
  out.eval = mapping::evaluate(net, out.binding, cost.params);
  out.cost = score_mapping(net, out.binding, out.placement, cost);
  out.optimal = proof;
  out.nodes_explored = options.node_budget - nodes_left;
  return out;
}

}  // namespace cgra::mapper
