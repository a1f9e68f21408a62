// ThreadedEngine: per-block superinstruction specialization.
//
// Each tile's decoded program is compiled (cheaply, at attach / reload
// time) into an array of function pointers — one templated specialization
// of the shared step core per instruction, with the opcode, remote flag
// and immediate choice folded in — plus, per basic block, the length of
// the pure straight-line run starting at each pc.  The per-cycle sweep is
// the shared ExecAccess::run_cycle, so traces, fault accounting and
// remote-write commit order are the interpreter's by construction.
//
// When exactly one tile is runnable (the common tail of dataflow kernels
// and the whole life of 1x1 meshes) and no tracer is attached, run()
// enters a burst loop: pure straight-line runs execute with no per-cycle
// sweep, no remote-buffer traffic and no fault checks — those are
// statically impossible for pure instructions — with cycle/stat/metric
// totals settled in batches to the same end state.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "engine/dispatch.hpp"
#include "engine/engine.hpp"
#include "fabric/exec_access.hpp"
#include "fabric/step_core.hpp"
#include "isa/blocks.hpp"

namespace cgra::engine {

using fabric::ExecAccess;
using fabric::Fabric;
using fabric::LinkState;
using fabric::RunResult;
using fabric::Tile;
using fabric::TileExec;
using fabric::TileView;

struct ThreadedEngine::Impl {
  struct TileSpec {
    std::uint64_t version = ~std::uint64_t{0};  ///< code_version it matches.
    std::vector<detail::StepFn> fn;  ///< Per pc.
    /// Per pc: length of the pure straight-line run starting there,
    /// bounded by the enclosing basic block (0 = not pure).
    std::vector<std::int32_t> fast_run;
  };

  const Fabric* bound = nullptr;
  std::vector<TileSpec> spec;

  void sync(Fabric& f) {
    if (bound != &f ||
        spec.size() != static_cast<std::size_t>(f.tile_count())) {
      bound = &f;
      spec.assign(static_cast<std::size_t>(f.tile_count()), TileSpec{});
    }
    for (int t = 0; t < f.tile_count(); ++t) {
      TileSpec& sp = spec[static_cast<std::size_t>(t)];
      const Tile& tile = f.tile(t);
      if (sp.version != tile.code_version()) rebuild(sp, tile);
    }
  }

  static void rebuild(TileSpec& sp, const Tile& tile) {
    const auto& dec = TileExec::decoded(tile);
    const int n = static_cast<int>(dec.size());
    sp.fn.resize(static_cast<std::size_t>(n));
    sp.fast_run.assign(static_cast<std::size_t>(n), 0);
    for (int i = 0; i < n; ++i) {
      sp.fn[static_cast<std::size_t>(i)] =
          detail::select_step_fn(dec[static_cast<std::size_t>(i)]);
    }
    for (const auto& b : isa::segment_blocks(dec)) {
      std::int32_t run = 0;
      for (int i = b.end - 1; i >= b.begin; --i) {
        run = detail::pure_instr(dec[static_cast<std::size_t>(i)]) ? run + 1
                                                                   : 0;
        sp.fast_run[static_cast<std::size_t>(i)] = run;
      }
    }
    sp.version = tile.code_version();
  }

  /// Replicates Tile::step exactly, with the switch replaced by the
  /// specialized dispatch.  Same prologue (halted, stalled, pc checks and
  /// their stat bumps), same raise points.
  bool step_tile(Fabric& f, Tile& tile, int i, int pc_before) {
    auto& stats = TileExec::stats(tile);
    if (tile.halted() || tile.faulted()) {
      ++stats.cycles_halted;
      return false;
    }
    if (ExecAccess::cycle(f) < tile.stalled_until()) {
      ++stats.cycles_stalled;
      return false;
    }
    TileView v(tile, i, ExecAccess::cycle(f), ExecAccess::remote_buffer(f));
    const auto& dec = TileExec::decoded(tile);
    if (pc_before < 0 || pc_before >= static_cast<int>(dec.size())) {
      v.raise(FaultKind::kPcOutOfRange);
      return false;
    }
    const TileSpec& sp = spec[static_cast<std::size_t>(i)];
    return sp.fn[static_cast<std::size_t>(pc_before)](
        v, dec[static_cast<std::size_t>(pc_before)],
        ExecAccess::link_state(f, i));
  }

  /// Lone-runner burst: tile `t` is the only runnable tile and no tracer
  /// is attached.  Executes up to `budget` cycles (bounded by the next
  /// stall-wake event) and returns the cycles consumed (>= 1).
  std::int64_t burst(Fabric& f, int t, std::int64_t budget) {
    Tile& tile = f.tile(t);
    const TileSpec& sp = spec[static_cast<std::size_t>(t)];
    auto& buf = ExecAccess::remote_buffer(f);
    const LinkState link = ExecAccess::link_state(f, t);
    const auto& dec = TileExec::decoded(tile);
    const int n = static_cast<int>(dec.size());

    std::int64_t limit = budget;
    const std::int64_t next_wake = f.next_wake_cycle();
    if (next_wake >= 0) {
      limit = std::min(limit, next_wake - ExecAccess::cycle(f));
    }

    std::int64_t done = 0;
    std::int64_t retired = 0;
    std::int64_t committed = 0;
    ExecAccess::set_stepping(f, true);
    while (done < limit) {
      const int pc = tile.pc();
      if (pc < 0 || pc >= n) {
        // Same raise as the Tile::step prologue; the fault transition gets
        // the same cycle accounting as ExecAccess::run_cycle gives it.
        buf.clear();
        TileView v(tile, t, ExecAccess::cycle(f), buf);
        v.raise(FaultKind::kPcOutOfRange);
        tile.count_fault_cycle();
        ExecAccess::count_fault(f);
        ++ExecAccess::cycle(f);
        ++done;
        break;
      }
      const std::int64_t run = std::min<std::int64_t>(
          sp.fast_run[static_cast<std::size_t>(pc)], limit - done);
      if (run > 0) {
        // Pure straight line: no fault, branch, halt or remote write can
        // occur, so nothing but this tile's state is touched.
        TileView v(tile, t, ExecAccess::cycle(f), buf);
        for (std::int64_t k = 0; k < run; ++k) {
          const int p = tile.pc();
          sp.fn[static_cast<std::size_t>(p)](
              v, dec[static_cast<std::size_t>(p)], link);
        }
        ExecAccess::cycle(f) += run;
        done += run;
        retired += run;
        continue;
      }
      // General single cycle (branch / halt / remote / non-fast instr).
      buf.clear();
      TileView v(tile, t, ExecAccess::cycle(f), buf);
      if (sp.fn[static_cast<std::size_t>(pc)](
              v, dec[static_cast<std::size_t>(pc)], link)) {
        ++retired;
      } else if (tile.faulted()) {
        tile.count_fault_cycle();
        ExecAccess::count_fault(f);
      }
      for (const auto& w : buf) {
        const int dst = ExecAccess::link_target(f, w.src_tile);
        if (dst >= 0) {
          f.tile(dst).set_dmem(w.addr, w.value);
          ++committed;
        }
      }
      ++ExecAccess::cycle(f);
      ++done;
      if (tile.halted()) break;
    }
    ExecAccess::finish_sweep(f);
    ExecAccess::flush_cycle_metrics(f, done, retired, committed);
    return done;
  }
};

ThreadedEngine::ThreadedEngine() : impl_(std::make_unique<Impl>()) {}
ThreadedEngine::~ThreadedEngine() = default;

RunResult ThreadedEngine::run(Fabric& f, std::int64_t max_cycles) {
  impl_->sync(f);
  RunResult result;
  ExecAccess::begin(f);
  const bool can_burst = f.tracer() == nullptr;
  while (result.cycles < max_cycles) {
    if (f.all_halted()) break;
    ExecAccess::process_wakes(f);
    const auto& active = ExecAccess::active(f);
    if (active.empty()) {
      // Only stalled tiles remain: fast-forward to the next wake event,
      // exactly as the interpreter does.
      const std::int64_t next = f.next_wake_cycle();
      if (next < 0) break;
      const std::int64_t skip =
          std::min(next - ExecAccess::cycle(f), max_cycles - result.cycles);
      ExecAccess::cycle(f) += skip;
      result.cycles += skip;
      ExecAccess::add_skipped_cycles(f, skip);
      continue;
    }
    if (can_burst && active.size() == 1) {
      result.cycles += impl_->burst(f, active.front(),
                                    max_cycles - result.cycles);
      continue;
    }
    ExecAccess::run_cycle(f, [this, &f](Tile& tile, int i, int pc_before) {
      return impl_->step_tile(f, tile, i, pc_before);
    });
    ++result.cycles;
  }
  ExecAccess::settle_all(f);
  result.all_halted = f.all_halted();
  result.faults = f.faults();
  return result;
}

int ThreadedEngine::step(Fabric& f) {
  impl_->sync(f);
  ExecAccess::begin(f);
  ExecAccess::process_wakes(f);
  const int retired =
      ExecAccess::run_cycle(f, [this, &f](Tile& tile, int i, int pc_before) {
        return impl_->step_tile(f, tile, i, pc_before);
      });
  ExecAccess::settle_all(f);
  return retired;
}

}  // namespace cgra::engine
