#include "apps/fft/fabric_fft.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>

#include "apps/fft/programs.hpp"
#include "common/fixed_complex.hpp"
#include "config/profiler.hpp"
#include "fabric/fabric.hpp"
#include "interconnect/link.hpp"

namespace cgra::fft {

using config::EpochConfig;
using config::ReconfigController;
using config::TileUpdate;
using interconnect::Direction;
using interconnect::LinkConfig;

ElementPos element_position(const FftGeometry& g, int stage, int e) {
  const int h = g.half_span(stage);
  const int span2 = 2 * h;
  const int r_in = e % span2;
  const bool b_side = r_in >= h;
  const int t = (e / span2) * h + (b_side ? r_in - h : r_in);
  const int half = g.m / 2;
  ElementPos pos;
  pos.row = t / half;
  pos.slot = (t % half) + (b_side ? half : 0);
  return pos;
}

namespace {

/// Twiddle patches for stage `stage` of row `row`: W[k] holds the factor of
/// butterfly r*M/2 + k.
std::vector<isa::DataPatch> twiddle_patches(const FftGeometry& g,
                                            const TileLayout& lay, int row,
                                            int stage) {
  const int h = g.half_span(stage);
  const int step = g.n / (2 * h);
  std::vector<isa::DataPatch> patches;
  patches.reserve(static_cast<std::size_t>(g.m / 2));
  for (int k = 0; k < g.m / 2; ++k) {
    const int t = row * (g.m / 2) + k;
    const std::size_t exponent =
        static_cast<std::size_t>((t % h) * step) % static_cast<std::size_t>(g.n);
    patches.push_back(isa::DataPatch{
        lay.w + k,
        pack_complex(to_fixed(twiddle(static_cast<std::size_t>(g.n),
                                      exponent)))});
  }
  return patches;
}

/// One pending inter-stage element move (between physical tiles).
struct Move {
  int src_tile = 0, src_slot = 0;
  int dst_tile = 0, dst_slot = 0;
  int cur_tile = 0;
  bool in_transit = false;  ///< Value sits in P[dst_slot] of cur_tile.
  bool delivered = false;   ///< Arrived at dst_tile's P (awaiting apply).
  bool applied = false;
};

}  // namespace

TwiddleTable twiddle_patch_table(const FftGeometry& g) {
  const TileLayout lay = make_layout(g.m);
  TwiddleTable table;
  table.rows = g.rows;
  table.patches.reserve(static_cast<std::size_t>(g.stages * g.rows));
  for (int s = 0; s < g.stages; ++s) {
    for (int row = 0; row < g.rows; ++row) {
      table.patches.push_back(twiddle_patches(g, lay, row, s));
    }
  }
  return table;
}

FabricFftPlan compile_plan(
    const FftGeometry& g, int cols,
    const std::function<isa::Program(const std::string&)>& assemble_override,
    const TwiddleTable* twiddles) {
  FabricFftPlan plan;
  plan.geometry = g;
  plan.cols = cols;
  if (cols < 1 || g.stages % cols != 0) {
    plan.status = Status::errorf(
        "cols=%d must be positive and divide log2(n)=%d", cols, g.stages);
    return plan;
  }
  const int spc = g.stages / cols;  // stage slots per column
  const auto stage_col = [spc](int stage) { return stage / spc; };

  const TileLayout lay = make_layout(g.m);
  // Each distinct program is assembled and prepared (predecoded) once, and
  // every update that streams it shares that one image.  One image per
  // update would keep a decoded copy per reload (~300 at N=1024, M=128).
  std::map<std::string, isa::ImagePtr> images;
  const auto prepare = [&](const std::string& src) {
    isa::ImagePtr& image = images[src];
    if (image == nullptr) {
      image = isa::prepare(assemble_override ? assemble_override(src)
                                             : must_assemble(src));
    }
    return image;
  };
  const auto tidx = [cols](int row, int col) { return row * cols + col; };
  const LinkConfig no_links(g.rows, cols);
  const auto add_epoch = [&plan](EpochConfig epoch, bool redistribution) {
    plan.epochs.push_back(PlanEpoch{std::move(epoch), redistribution});
    if (redistribution) ++plan.redistribution_subepochs;
  };

  // ---- preprocessing: where each input lands in the stage-0 arrangement ----
  plan.scatter.reserve(static_cast<std::size_t>(g.n));
  for (int e = 0; e < g.n; ++e) {
    const ElementPos pos = element_position(g, 0, e);
    plan.scatter.push_back(WordSlot{tidx(pos.row, 0), lay.x + pos.slot});
  }

  const isa::ImagePtr bf_prog = prepare(bf_pair_source(lay));
  // Instruction pinning: the BF kernel stays resident in a tile until a
  // redistribution epoch overwrites that tile's instruction memory.
  std::vector<bool> kernel_resident(
      static_cast<std::size_t>(g.rows * cols), false);

  for (int s = 0; s < g.stages; ++s) {
    const int sc = stage_col(s);
    // ---- butterfly epoch on column sc: twiddles patched, kernel reloaded
    // only where a copy program clobbered it ----
    EpochConfig bf;
    bf.name = "bf-stage-" + std::to_string(s);
    bf.links = no_links;
    for (int row = 0; row < g.rows; ++row) {
      const int tile = tidx(row, sc);
      TileUpdate update;
      if (!kernel_resident[static_cast<std::size_t>(tile)]) {
        update.program = bf_prog;
        kernel_resident[static_cast<std::size_t>(tile)] = true;
      }
      update.patches = twiddles != nullptr ? twiddles->at(s, row)
                                           : twiddle_patches(g, lay, row, s);
      update.restart = true;
      bf.tiles[tile] = std::move(update);
    }
    add_epoch(std::move(bf), false);
    if (s + 1 == g.stages) break;

    // ---- redistribution to the stage-(s+1) arrangement ----
    // When the next stage lives in the next column this also performs the
    // hcp horizontal transfer; within a column it is the vcp exchange.
    const int next_col = stage_col(s + 1);
    std::vector<Move> moves;
    for (int e = 0; e < g.n; ++e) {
      const ElementPos from = element_position(g, s, e);
      const ElementPos to = element_position(g, s + 1, e);
      const int src_tile = tidx(from.row, sc);
      const int dst_tile = tidx(to.row, next_col);
      if (src_tile == dst_tile && from.slot == to.slot) continue;
      Move mv;
      mv.src_tile = src_tile;
      mv.src_slot = from.slot;
      mv.dst_tile = dst_tile;
      mv.dst_slot = to.slot;
      mv.cur_tile = src_tile;
      moves.push_back(mv);
    }
    // P-region occupancy: (tile, slot) held by an unapplied in-transit move.
    std::set<std::pair<int, int>> occupied;
    // X slots that are still the source of a not-yet-departed move.
    auto x_busy = [&](int tile, int slot) {
      for (const auto& mv : moves) {
        if (!mv.in_transit && !mv.delivered && mv.src_tile == tile &&
            mv.src_slot == slot) {
          return true;
        }
      }
      return false;
    };

    auto all_done = [&]() {
      return std::all_of(moves.begin(), moves.end(),
                         [](const Move& m) { return m.applied; });
    };

    // Next hop of a move: vertical first, then horizontal.
    auto next_hop = [&](const Move& mv) -> std::optional<Direction> {
      const auto cur = no_links.coord(mv.cur_tile);
      const auto dst = no_links.coord(mv.dst_tile);
      if (dst.row < cur.row) return Direction::kNorth;
      if (dst.row > cur.row) return Direction::kSouth;
      if (dst.col > cur.col) return Direction::kEast;
      if (dst.col < cur.col) return Direction::kWest;
      return std::nullopt;
    };

    int guard = 0;
    while (!all_done()) {
      if (++guard > 8 * (g.rows + cols) + 64) {
        plan.status =
            Status::errorf("redistribution livelock after stage %d", s);
        return plan;
      }
      bool progress = false;

      // One hop sub-epoch per direction.
      for (const Direction dir :
           {Direction::kNorth, Direction::kSouth, Direction::kEast,
            Direction::kWest}) {
        EpochConfig hop;
        hop.name = "redistribute-s" + std::to_string(s);
        hop.links = no_links;
        std::map<int, std::vector<std::pair<int, int>>> remote_moves;
        std::map<int, std::vector<std::pair<int, int>>> local_moves;
        std::vector<Move*> advancing;
        std::set<std::pair<int, int>> claimed;  // P slots claimed this hop

        for (auto& mv : moves) {
          if (mv.delivered) continue;
          if (mv.dst_tile == mv.cur_tile) {
            // Local move X -> P (only before transit; first batch).
            if (dir == Direction::kNorth && !mv.in_transit) {
              const auto key = std::make_pair(mv.cur_tile, mv.dst_slot);
              if (occupied.count(key) != 0 || claimed.count(key) != 0) continue;
              claimed.insert(key);
              local_moves[mv.cur_tile].push_back(
                  {lay.x + mv.src_slot, lay.p + mv.dst_slot});
              advancing.push_back(&mv);
            }
            continue;
          }
          const auto want = next_hop(mv);
          if (!want || *want != dir) continue;
          // A tile drives one link per sub-epoch: if this tile already
          // queued sends this batch they share `dir`, which is fine.
          const auto next = no_links.neighbor(mv.cur_tile, dir);
          if (!next) continue;
          const auto key = std::make_pair(*next, mv.dst_slot);
          if (occupied.count(key) != 0 || claimed.count(key) != 0) continue;
          claimed.insert(key);
          const int src_addr =
              mv.in_transit ? lay.p + mv.dst_slot : lay.x + mv.src_slot;
          remote_moves[mv.cur_tile].push_back({src_addr, lay.p + mv.dst_slot});
          advancing.push_back(&mv);
        }
        if (advancing.empty()) continue;

        for (const auto& [tile, entries] : remote_moves) {
          hop.links.set_output(tile, dir);
        }
        std::set<int> tiles;
        for (const auto& [tile, entries] : remote_moves) tiles.insert(tile);
        for (const auto& [tile, entries] : local_moves) tiles.insert(tile);
        for (int tile : tiles) {
          std::vector<std::pair<int, int>> remote =
              remote_moves.count(tile) != 0
                  ? remote_moves[tile]
                  : std::vector<std::pair<int, int>>{};
          std::vector<std::pair<int, int>> local =
              local_moves.count(tile) != 0
                  ? local_moves[tile]
                  : std::vector<std::pair<int, int>>{};
          // One straight-line program covering both kinds.
          std::string src = copy_straight_source(remote, true);
          if (!local.empty()) {
            // Strip trailing halt and append the local moves.
            src = src.substr(0, src.rfind("  halt"));
            src += copy_straight_source(local, false);
          }
          TileUpdate update;
          update.program = prepare(src);
          update.restart = true;
          hop.tiles[tile] = std::move(update);
          kernel_resident[static_cast<std::size_t>(tile)] = false;
        }
        add_epoch(std::move(hop), true);

        for (Move* mv : advancing) {
          if (mv->in_transit) {
            occupied.erase({mv->cur_tile, mv->dst_slot});
          }
          if (mv->dst_tile != mv->cur_tile) {
            mv->cur_tile = *no_links.neighbor(mv->cur_tile, dir);
          }
          mv->in_transit = true;
          occupied.insert({mv->cur_tile, mv->dst_slot});
          if (mv->cur_tile == mv->dst_tile) mv->delivered = true;
          progress = true;
        }
      }

      // Partial apply: commit delivered values whose X slot is safe.
      {
        std::map<int, std::vector<std::pair<int, int>>> applies;
        std::vector<Move*> applying;
        for (auto& mv : moves) {
          if (!mv.delivered || mv.applied) continue;
          if (x_busy(mv.dst_tile, mv.dst_slot)) continue;
          applies[mv.dst_tile].push_back(
              {lay.p + mv.dst_slot, lay.x + mv.dst_slot});
          applying.push_back(&mv);
        }
        if (!applying.empty()) {
          EpochConfig apply;
          apply.name = "apply-s" + std::to_string(s);
          apply.links = no_links;
          for (const auto& [tile, entries] : applies) {
            TileUpdate update;
            update.program = prepare(copy_straight_source(entries, false));
            update.restart = true;
            apply.tiles[tile] = std::move(update);
            kernel_resident[static_cast<std::size_t>(tile)] = false;
          }
          add_epoch(std::move(apply), true);
          for (Move* mv : applying) {
            occupied.erase({mv->dst_tile, mv->dst_slot});
            mv->applied = true;
            progress = true;
          }
        }
      }

      if (!progress) {
        plan.status = Status::errorf("redistribution stuck after stage %d", s);
        return plan;
      }
    }
  }

  // ---- readback: stage-(S-1) arrangement, then bit-reversal ----
  plan.readback.resize(static_cast<std::size_t>(g.n));
  const int last_col = stage_col(g.stages - 1);
  for (int e = 0; e < g.n; ++e) {
    const ElementPos pos = element_position(g, g.stages - 1, e);
    plan.readback[bit_reverse(static_cast<std::size_t>(e), g.stages)] =
        WordSlot{tidx(pos.row, last_col), lay.x + pos.slot};
  }
  plan.status = Status();
  return plan;
}

FabricFftResult run_fabric_fft(const FftGeometry& g,
                               const std::vector<Cplx>& input,
                               const FabricFftOptions& opt) {
  FabricFftResult result;
  if (static_cast<int>(input.size()) != g.n) {
    result.status = Status::errorf("input size %zu does not match n=%d",
                                   input.size(), g.n);
    return result;
  }
  std::optional<FabricFftPlan> compiled;
  if (opt.plan == nullptr) {
    compiled.emplace(compile_plan(g, opt.cols, opt.assemble, opt.twiddles));
  }
  const FabricFftPlan& plan = opt.plan != nullptr ? *opt.plan : *compiled;
  if (!plan.ok()) {
    result.status = plan.status;
    return result;
  }
  if (plan.geometry.n != g.n || plan.geometry.m != g.m ||
      plan.cols != opt.cols) {
    result.status = Status::errorf(
        "plan is for n=%d m=%d cols=%d, the run needs n=%d m=%d cols=%d",
        plan.geometry.n, plan.geometry.m, plan.cols, g.n, g.m, opt.cols);
    return result;
  }
  const int cols = plan.cols;

  std::optional<fabric::Fabric> local;
  if (opt.fabric == nullptr) local.emplace(g.rows, cols);
  fabric::Fabric& fab = opt.fabric != nullptr ? *opt.fabric : *local;
  if (fab.rows() != g.rows || fab.cols() != cols) {
    result.status = Status::errorf(
        "borrowed fabric is %dx%d, geometry needs %dx%d", fab.rows(),
        fab.cols(), g.rows, cols);
    return result;
  }
  ReconfigController ctrl(IcapModel{},
                          interconnect::LinkCostModel{opt.link_cost_ns},
                          opt.partial_reconfiguration);
  ctrl.set_fault_options(opt.icap_faults);
  ctrl.attach_timeline(opt.spans);
  fab.attach_metrics(opt.metrics);
  config::Timeline& timeline = result.timeline;

  /// Every exit past this point goes through finish() so the profile is
  /// available even for runs that end early on a fault.
  auto finish = [&]() -> FabricFftResult& {
    if (opt.collect_profile) {
      result.profile = config::build_profile(fab, timeline);
    }
    return result;
  };

  auto run_epoch = [&](const EpochConfig& epoch) -> bool {
    const auto run = config::run_epoch(fab, ctrl, epoch,
                                       opt.max_cycles_per_epoch, timeline);
    ++result.epochs;
    if (!run.ok()) {
      result.faults = run.faults;
      result.status =
          run.faults.empty()
              ? Status::errorf("epoch '%s' exceeded the %lld-cycle budget",
                               epoch.name.c_str(),
                               static_cast<long long>(
                                   opt.max_cycles_per_epoch))
              : Status::errorf("epoch '%s' ended with %zu fault(s): %s",
                               epoch.name.c_str(), run.faults.size(),
                               run.faults.front().describe().c_str());
      return false;
    }
    return true;
  };

  // The job's own data: the scaled inputs, patched into the stage-0 slots.
  {
    EpochConfig load;
    load.name = "input-scramble";
    load.links = LinkConfig(g.rows, cols);
    const double scale = 1.0 / static_cast<double>(g.n);
    for (std::size_t e = 0; e < plan.scatter.size(); ++e) {
      const WordSlot slot = plan.scatter[e];
      TileUpdate& update = load.tiles[slot.tile];
      update.restart = false;
      update.patches.push_back(isa::DataPatch{
          slot.addr, pack_complex(to_fixed(input[e] * scale))});
    }
    if (!run_epoch(load)) return finish();
  }

  for (const PlanEpoch& epoch : plan.epochs) {
    if (!run_epoch(epoch.config)) return finish();
    if (epoch.redistribution) ++result.redistribution_subepochs;
  }

  result.output.resize(plan.readback.size());
  for (std::size_t k = 0; k < plan.readback.size(); ++k) {
    const WordSlot slot = plan.readback[k];
    result.output[k] =
        to_double(unpack_complex(fab.tile(slot.tile).dmem(slot.addr)));
  }
  result.status = Status();
  return finish();
}

std::int64_t measure_bf_cycles(const FftGeometry& g, int stage) {
  const TileLayout lay = make_layout(g.m);
  const int h = g.half_span(stage);
  const std::string src =
      h >= g.m / 2 ? bf_pair_source(lay) : bf_local_source(lay, h);
  fabric::Fabric fab(1, 1);
  fab.tile(0).load_program(must_assemble(src));
  fab.tile(0).restart();
  const auto run = fab.run(10'000'000);
  return run.ok() ? run.cycles : -1;
}

std::int64_t measure_copy_cycles(int m, int words) {
  const TileLayout lay = make_layout(m);
  fabric::Fabric fab(2, 1);
  fab.links().set_output(0, Direction::kSouth);
  fab.tile(0).load_program(
      must_assemble(copy_loop_source(lay, words, lay.x, lay.x, true)));
  fab.tile(0).restart();
  const auto run = fab.run(10'000'000);
  return run.ok() ? run.cycles : -1;
}

}  // namespace cgra::fft
