// Annealing mapper: deterministic seeded simulated annealing over joint
// (binding, placement) states, list-scheduling seeded.
//
// The move set covers the whole search space the exact solver enumerates:
//   * move a process to another (or a fresh) group,
//   * replicate / dereplicate a replicable singleton group,
//   * relocate a replica to a free tile or swap two replicas' tiles.
// Every proposal is scored with the shared cost model and accepted under
// the Metropolis rule with geometric cooling; restarts walk the different
// list-scheduling seeds.  Scoring is incremental: a state carries each
// group's busy time, so a relocation keeps its II, a (de)replication
// refolds it, and only a process move recomputes the two busy times it
// changes; mapper::Scorer re-routes every proposal without allocating.  All
// randomness flows from options.seed through SplitMix64, so the same call
// always returns the same mapping, and the result is never worse than the
// best seed.
#include <algorithm>
#include <cmath>

#include "common/prng.hpp"
#include "mapper/mapper.hpp"

namespace cgra::mapper {

namespace {

using mapping::Binding;
using mapping::Placement;
using procnet::ProcessNetwork;

/// One annealing state: a legal binding, a placement row per group, and
/// what its II is folded from.  `busy[g]` is mapping::group_busy_ns of
/// group g's process list, which only a process move changes.
struct State {
  Binding binding;
  Placement placement;
  std::vector<Nanoseconds> busy;
  Nanoseconds ii_ns = 0.0;  ///< Set by fold_ii().

  /// mapping::evaluate's II fold: max(busy / replication) from 0.0.
  void fold_ii() {
    ii_ns = 0.0;
    for (std::size_t g = 0; g < busy.size(); ++g) {
      ii_ns = std::max(ii_ns, busy[g] / static_cast<double>(
                                            binding.groups[g].replication));
    }
  }
};

/// The proposal moves, each applied in place.  A move returns false if
/// the sampled move does not apply to the state.  The free-tile list is
/// scratch reused across calls.
class Moves {
 public:
  Moves(const ProcessNetwork& net, const mapping::CostParams& params,
        int budget, int mesh_tiles)
      : net_(net),
        params_(params),
        budget_(budget),
        used_(static_cast<std::size_t>(mesh_tiles)) {
    free_.reserve(static_cast<std::size_t>(mesh_tiles));
  }

  /// Move a random process to another (possibly new) group.  Only this
  /// move changes a group's process list, so only it computes busy times.
  bool move_process(State& s, SplitMix64& rng) {
    const std::size_t groups = s.binding.groups.size();
    const std::size_t gs = static_cast<std::size_t>(rng.next_below(groups));
    const std::size_t pi = static_cast<std::size_t>(
        rng.next_below(s.binding.groups[gs].procs.size()));
    // Destination `groups` means "open a fresh group".
    const std::size_t gd =
        static_cast<std::size_t>(rng.next_below(groups + 1));
    if (gd == gs) return false;
    const int proc = s.binding.groups[gs].procs[pi];
    if (gd == groups) {
      if (static_cast<int>(groups) >= budget_) return false;
      const auto& free = free_tiles(s);
      if (free.empty() || s.binding.tile_count() >= budget_) return false;
      s.binding.groups.push_back({{proc}, 1});
      s.placement.tile_of.push_back(
          {free[static_cast<std::size_t>(rng.next_below(free.size()))]});
      s.busy.push_back(busy_of(s.binding.groups.back().procs));
    } else {
      auto& dst = s.binding.groups[gd];
      if (dst.replication > 1) {
        // A multi-process group cannot replicate: collapse to one replica.
        dst.replication = 1;
        s.placement.tile_of[gd].resize(1);
      }
      dst.procs.push_back(proc);
      std::sort(dst.procs.begin(), dst.procs.end());
      s.busy[gd] = busy_of(dst.procs);
    }
    auto& src = s.binding.groups[gs];  // push_back above may reallocate
    src.procs.erase(src.procs.begin() + static_cast<std::ptrdiff_t>(pi));
    if (src.procs.empty()) {
      const auto at = static_cast<std::ptrdiff_t>(gs);
      s.binding.groups.erase(s.binding.groups.begin() + at);
      s.placement.tile_of.erase(s.placement.tile_of.begin() + at);
      s.busy.erase(s.busy.begin() + at);
    } else {
      s.busy[gs] = busy_of(src.procs);
    }
    s.fold_ii();
    return true;
  }

  bool replicate(State& s, SplitMix64& rng) {
    const std::size_t g =
        static_cast<std::size_t>(rng.next_below(s.binding.groups.size()));
    auto& grp = s.binding.groups[g];
    if (grp.procs.size() != 1 || !net_.process(grp.procs.front()).replicable) {
      return false;
    }
    if (s.binding.tile_count() >= budget_) return false;
    const auto& free = free_tiles(s);
    if (free.empty()) return false;
    ++grp.replication;
    s.placement.tile_of[g].push_back(
        free[static_cast<std::size_t>(rng.next_below(free.size()))]);
    s.fold_ii();
    return true;
  }

  static bool dereplicate(State& s, SplitMix64& rng) {
    const std::size_t g =
        static_cast<std::size_t>(rng.next_below(s.binding.groups.size()));
    auto& grp = s.binding.groups[g];
    if (grp.replication <= 1) return false;
    --grp.replication;
    auto& row = s.placement.tile_of[g];
    row.erase(row.begin() + static_cast<std::ptrdiff_t>(
                                rng.next_below(row.size())));
    s.fold_ii();
    return true;
  }

  /// Relocate one replica to a random tile: to a free tile directly, or by
  /// swapping with whichever replica currently sits there.  The binding,
  /// and so the II, stays as it is.
  static bool relocate(State& s, SplitMix64& rng) {
    // Replicas are numbered group by group, in row order.
    auto& rows = s.placement.tile_of;
    std::size_t units = 0;
    for (const auto& row : rows) units += row.size();
    std::size_t r = static_cast<std::size_t>(rng.next_below(units));
    std::size_t g = 0;
    while (r >= rows[g].size()) r -= rows[g++].size();
    const int mesh_tiles = s.placement.mesh_rows * s.placement.mesh_cols;
    const int target = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(mesh_tiles)));
    int& mine = rows[g][r];
    if (target == mine) return false;
    for (auto& row : rows) {
      for (int& t : row) {
        if (t == target) {
          std::swap(t, mine);
          return true;
        }
      }
    }
    mine = target;  // target tile was free
    return true;
  }

 private:
  [[nodiscard]] Nanoseconds busy_of(const std::vector<int>& procs) const {
    return mapping::group_busy_ns(net_, procs, params_);
  }

  /// The mesh tiles no replica of `s` occupies, in ascending order.
  const std::vector<int>& free_tiles(const State& s) {
    std::fill(used_.begin(), used_.end(), 0);
    for (const auto& row : s.placement.tile_of) {
      for (const int t : row) used_[static_cast<std::size_t>(t)] = 1;
    }
    free_.clear();
    for (std::size_t t = 0; t < used_.size(); ++t) {
      if (used_[t] == 0) free_.push_back(static_cast<int>(t));
    }
    return free_;
  }

  const ProcessNetwork& net_;
  const mapping::CostParams& params_;
  int budget_;
  std::vector<std::uint8_t> used_;
  std::vector<int> free_;
};

}  // namespace

MappedNetwork AnnealMapper::map(const ProcessNetwork& net, int mesh_rows,
                                int mesh_cols,
                                const MapperOptions& options) const {
  MappedNetwork out;
  out.solver = name();
  out.status = validate_map_inputs(net, mesh_rows, mesh_cols, options);
  if (!out.status.ok()) return out;
  const int mesh_tiles = mesh_rows * mesh_cols;
  const int budget =
      options.max_tiles > 0 ? std::min(options.max_tiles, mesh_tiles)
                            : mesh_tiles;
  const CostModel& cost = options.cost;

  Scorer scorer(net, mesh_rows, mesh_cols, cost);
  // Scorer::score's total: the state's II plus its routed copy and link
  // costs, summed in the same order.
  auto score = [&](const State& s) {
    MappedCost c = scorer.route(s.binding, s.placement.tile_of);
    c.ii_ns = s.ii_ns;
    return c.total_ns();
  };

  // List-scheduling seeds, placed and locally improved.
  std::vector<State> seeds;
  for (auto& b : seed_bindings(net, budget, cost.params)) {
    State s;
    s.placement = mapping::improve_placement(
        net, b,
        mapping::place(b, mesh_rows, mesh_cols,
                       mapping::PlacementStrategy::kSnake),
        cost.copy);
    for (const auto& g : b.groups) {
      s.busy.push_back(mapping::group_busy_ns(net, g.procs, cost.params));
    }
    s.binding = std::move(b);
    s.fold_ii();
    seeds.push_back(std::move(s));
  }
  State best = seeds.front();
  Nanoseconds best_score = score(best);
  for (std::size_t i = 1; i < seeds.size(); ++i) {
    const Nanoseconds sc = score(seeds[i]);
    if (sc < best_score) {
      best_score = sc;
      best = seeds[i];
    }
  }

  std::int64_t evaluations = static_cast<std::int64_t>(seeds.size());
  const int restarts = std::max(1, options.anneal_restarts);
  const int iterations = std::max(1, options.anneal_iterations);
  Moves moves(net, cost.params, budget, mesh_tiles);
  State next;  // proposal storage, reused: each proposal copies into it
  for (int restart = 0; restart < restarts; ++restart) {
    State cur = seeds[static_cast<std::size_t>(restart) % seeds.size()];
    Nanoseconds cur_score = score(cur);
    SplitMix64 rng(options.seed + 0x9E3779B97F4A7C15ULL *
                                      static_cast<std::uint64_t>(restart + 1));
    const double t0 = std::max(1.0, 0.15 * cur_score);
    const double t_end = std::max(1e-6, 1e-4 * cur_score);
    const double alpha = std::pow(t_end / t0, 1.0 / iterations);
    double temp = t0;
    for (int it = 0; it < iterations; ++it, temp *= alpha) {
      next = cur;
      const std::uint64_t kind = rng.next_below(6);
      bool changed = false;
      switch (kind) {
        case 0:
          changed = moves.move_process(next, rng);
          break;
        case 1:
          changed = moves.replicate(next, rng);
          break;
        case 2:
          changed = Moves::dereplicate(next, rng);
          break;
        default:
          changed = Moves::relocate(next, rng);  // weighted 3/6
          break;
      }
      if (!changed) continue;
      const Nanoseconds next_score = score(next);
      ++evaluations;
      const double delta = next_score - cur_score;
      if (delta <= 0.0 || rng.next_double() < std::exp(-delta / temp)) {
        std::swap(cur, next);
        cur_score = next_score;
        if (cur_score < best_score) {
          best_score = cur_score;
          best = cur;
        }
      }
    }
  }

  out.binding = std::move(best.binding);
  out.placement = std::move(best.placement);
  out.links = plan_links(net, out.binding, out.placement, cost);
  out.eval = mapping::evaluate(net, out.binding, cost.params);
  out.cost = score_mapping(net, out.binding, out.placement, cost);
  out.optimal = false;
  out.nodes_explored = evaluations;
  return out;
}

}  // namespace cgra::mapper
