// Annealing mapper: deterministic seeded simulated annealing over joint
// (binding, placement) states, list-scheduling seeded.
//
// The move set covers the whole search space the exact solver enumerates:
//   * move a process to another (or a fresh) group,
//   * replicate / dereplicate a replicable singleton group,
//   * relocate a replica to a free tile or swap two replicas' tiles.
// Every proposal is scored with the shared cost model (mapper::Scorer, which
// does not allocate) and accepted under the Metropolis rule with geometric
// cooling; restarts walk the different list-scheduling seeds.  All
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

/// One annealing state: a legal binding and a placement row per group.
struct State {
  Binding binding;
  Placement placement;
};

std::vector<int> free_tiles(const State& s, int mesh_tiles) {
  std::vector<bool> used(static_cast<std::size_t>(mesh_tiles), false);
  for (const auto& row : s.placement.tile_of) {
    for (const int t : row) used[static_cast<std::size_t>(t)] = true;
  }
  std::vector<int> out;
  for (int t = 0; t < mesh_tiles; ++t) {
    if (!used[static_cast<std::size_t>(t)]) out.push_back(t);
  }
  return out;
}

/// Move a random process to another (possibly new) group.  Returns false if
/// the sampled move is not applicable to `s`.
bool move_process(State& s, const ProcessNetwork& net, int budget,
                  SplitMix64& rng) {
  const std::size_t groups = s.binding.groups.size();
  const std::size_t gs = static_cast<std::size_t>(rng.next_below(groups));
  const std::size_t pi = static_cast<std::size_t>(
      rng.next_below(s.binding.groups[gs].procs.size()));
  // Destination `groups` means "open a fresh group".
  const std::size_t gd = static_cast<std::size_t>(rng.next_below(groups + 1));
  if (gd == gs) return false;
  const int proc = s.binding.groups[gs].procs[pi];
  if (gd == groups) {
    if (static_cast<int>(groups) >= budget) return false;
    const auto free = free_tiles(s, s.placement.mesh_rows *
                                        s.placement.mesh_cols);
    if (free.empty() || s.binding.tile_count() >= budget) return false;
    s.binding.groups.push_back({{proc}, 1});
    s.placement.tile_of.push_back(
        {free[static_cast<std::size_t>(rng.next_below(free.size()))]});
  } else {
    auto& dst = s.binding.groups[gd];
    if (dst.replication > 1) {
      // A multi-process group cannot replicate: collapse to one replica.
      dst.replication = 1;
      s.placement.tile_of[gd].resize(1);
    }
    dst.procs.push_back(proc);
    std::sort(dst.procs.begin(), dst.procs.end());
  }
  auto& src = s.binding.groups[gs];  // push_back above may reallocate
  src.procs.erase(src.procs.begin() + static_cast<std::ptrdiff_t>(pi));
  if (src.procs.empty()) {
    s.binding.groups.erase(s.binding.groups.begin() +
                           static_cast<std::ptrdiff_t>(gs));
    s.placement.tile_of.erase(s.placement.tile_of.begin() +
                              static_cast<std::ptrdiff_t>(gs));
  }
  (void)net;
  return true;
}

bool replicate(State& s, const ProcessNetwork& net, int budget,
               SplitMix64& rng) {
  const std::size_t g =
      static_cast<std::size_t>(rng.next_below(s.binding.groups.size()));
  auto& grp = s.binding.groups[g];
  if (grp.procs.size() != 1 || !net.process(grp.procs.front()).replicable) {
    return false;
  }
  if (s.binding.tile_count() >= budget) return false;
  const auto free =
      free_tiles(s, s.placement.mesh_rows * s.placement.mesh_cols);
  if (free.empty()) return false;
  ++grp.replication;
  s.placement.tile_of[g].push_back(
      free[static_cast<std::size_t>(rng.next_below(free.size()))]);
  return true;
}

bool dereplicate(State& s, SplitMix64& rng) {
  const std::size_t g =
      static_cast<std::size_t>(rng.next_below(s.binding.groups.size()));
  auto& grp = s.binding.groups[g];
  if (grp.replication <= 1) return false;
  --grp.replication;
  auto& row = s.placement.tile_of[g];
  row.erase(row.begin() + static_cast<std::ptrdiff_t>(
                              rng.next_below(row.size())));
  return true;
}

/// Relocate one replica to a random tile: to a free tile directly, or by
/// swapping with whichever replica currently sits there.
bool relocate(State& s, SplitMix64& rng) {
  std::vector<std::pair<std::size_t, std::size_t>> units;
  for (std::size_t g = 0; g < s.placement.tile_of.size(); ++g) {
    for (std::size_t r = 0; r < s.placement.tile_of[g].size(); ++r) {
      units.emplace_back(g, r);
    }
  }
  const auto [g, r] =
      units[static_cast<std::size_t>(rng.next_below(units.size()))];
  const int mesh_tiles = s.placement.mesh_rows * s.placement.mesh_cols;
  const int target = static_cast<int>(
      rng.next_below(static_cast<std::uint64_t>(mesh_tiles)));
  int& mine = s.placement.tile_of[g][r];
  if (target == mine) return false;
  for (auto& row : s.placement.tile_of) {
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
  auto score = [&](const State& s) {
    return scorer.score(s.binding, s.placement).total_ns();
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
    s.binding = std::move(b);
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
          changed = move_process(next, net, budget, rng);
          break;
        case 1:
          changed = replicate(next, net, budget, rng);
          break;
        case 2:
          changed = dereplicate(next, rng);
          break;
        default:
          changed = relocate(next, rng);  // placement moves weighted 3/6
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
