// ExecAccess: the single audited backdoor execution engines (src/engine)
// use to drive a Fabric's scheduler machinery.
//
// Everything an engine may touch is enumerated here — active list, wake
// queue, remote-write buffer, cycle counter, link cache, metrics flush —
// so the bit-identity contract has one reviewable surface instead of ad
// hoc friendships.  The interpreter itself routes through begin() and
// run_cycle(), so the per-cycle sweep (trace events, fault accounting,
// remote-write commit order) exists exactly once.
#pragma once

#include <cstdint>
#include <vector>

#include "fabric/fabric.hpp"

namespace cgra::fabric {

struct ExecAccess {
  /// Shared engine entry: every run()/step() implementation — the
  /// interpreter and every pluggable engine — calls this first.  It is the
  /// ONE place the per-tile output-link cache is re-derived from the live
  /// LinkConfig, so rewiring between calls is picked up identically by all
  /// engines (tests/test_engine.cpp, RewiringBetweenSteps).
  static void begin(Fabric& f) { f.refresh_link_cache(); }

  static void process_wakes(Fabric& f) { f.process_wakes(); }
  static void settle_all(Fabric& f) { f.settle_all(); }

  [[nodiscard]] static std::int64_t& cycle(Fabric& f) noexcept {
    return f.cycle_;
  }
  [[nodiscard]] static const std::vector<int>& active(
      const Fabric& f) noexcept {
    return f.active_;
  }
  [[nodiscard]] static std::vector<RemoteWrite>& remote_buffer(
      Fabric& f) noexcept {
    return f.remote_buffer_;
  }
  [[nodiscard]] static LinkState link_state(const Fabric& f, int tile) {
    return f.link_state_[static_cast<std::size_t>(tile)];
  }
  [[nodiscard]] static int link_target(const Fabric& f, int tile) {
    return f.link_target_[static_cast<std::size_t>(tile)];
  }

  /// Mark a sweep in flight: tile state transitions settle at cycle_+1 and
  /// active-list removals are deferred to finish_sweep().
  static void set_stepping(Fabric& f, bool on) noexcept { f.stepping_ = on; }
  static void finish_sweep(Fabric& f) {
    f.stepping_ = false;
    if (f.active_dirty_) f.compact_active();
  }

  // --- metrics (no-ops when no registry is attached) ---
  static void add_skipped_cycles(Fabric& f, std::int64_t n) {
    if (f.metrics_ != nullptr) f.metrics_->add(f.m_cycles_, n);
  }
  static void count_fault(Fabric& f) {
    if (f.metrics_ != nullptr) f.metrics_->add(f.m_faults_);
  }
  /// Batched equivalent of the per-cycle counter bumps the interpreter
  /// does; engines that execute many cycles between scheduler visits flush
  /// the totals once (counter end states are identical).
  static void flush_cycle_metrics(Fabric& f, std::int64_t cycles,
                                  std::int64_t retired, std::int64_t remote) {
    if (f.metrics_ == nullptr) return;
    f.metrics_->add(f.m_cycles_, cycles);
    f.metrics_->add(f.m_retired_, retired);
    f.metrics_->add(f.m_remote_writes_, remote);
  }

  /// One synchronous cycle over the active list with a pluggable per-tile
  /// dispatcher: `step_tile(tile, index, pc_before)` executes the tile's
  /// instruction for this cycle (true = retired, false + tile.faulted() =
  /// the raising transition).  Everything around the dispatch — sweep
  /// order, trace events, fault-cycle accounting, end-of-cycle remote
  /// commit in ascending source order, cycle/metrics bumps — is THIS
  /// function for every engine, so those observables cannot diverge.
  /// Exactly the former Fabric::step_cycle with the dispatch abstracted.
  template <class StepTile>
  static int run_cycle(Fabric& f, StepTile&& step_tile) {
    f.remote_buffer_.clear();
    int retired = 0;
    f.stepping_ = true;
    // Snapshot the active list: a sweep never grows it (transitions during
    // a sweep only mark entries stale), but the compiler cannot see that
    // through the dispatch call, and reloading size() per tile costs.
    const int* const act = f.active_.data();
    const std::size_t n_active = f.active_.size();
    for (std::size_t idx = 0; idx < n_active; ++idx) {
      const int i = act[idx];
      if (f.class_[static_cast<std::size_t>(i)] != Fabric::TileClass::kActive) {
        continue;
      }
      auto& tile = f.tiles_[static_cast<std::size_t>(i)];
      const int pc_before = tile.pc();
      if (step_tile(tile, i, pc_before)) {
        ++retired;
        if (f.tracer_ != nullptr) {
          const isa::Instruction* in = tile.instruction_at(pc_before);
          TraceEvent ev;
          ev.cycle = f.cycle_;
          ev.tile = i;
          ev.pc = pc_before;
          if (in != nullptr) ev.opcode = in->opcode;
          ev.kind = (in != nullptr && in->opcode == isa::Opcode::kHalt)
                        ? TraceEventKind::kHalt
                        : TraceEventKind::kRetire;
          f.tracer_->record(ev);
        }
      } else if (tile.faulted()) {
        // An active tile cannot have entered the cycle faulted, so this is
        // the raising transition.  The cycle the fault is raised mid-step
        // would otherwise be missing from the tile's cycle accounting
        // (TileStats invariant).
        tile.count_fault_cycle();
        if (f.metrics_ != nullptr) f.metrics_->add(f.m_faults_);
        if (f.tracer_ != nullptr) {
          TraceEvent ev;
          ev.cycle = f.cycle_;
          ev.kind = TraceEventKind::kFault;
          ev.tile = i;
          ev.pc = pc_before;
          const isa::Instruction* in = tile.instruction_at(pc_before);
          if (in != nullptr) ev.opcode = in->opcode;
          f.tracer_->record(ev);
        }
      }
    }
    f.stepping_ = false;
    if (f.active_dirty_) f.compact_active();
    // Commit remote writes synchronously at end of cycle, in ascending
    // source-tile order (the order the tiles were stepped).  Two writes to
    // the same destination word in the same cycle therefore resolve
    // deterministically: the write from the higher source-tile index
    // commits last, so its value persists — documented semantics.
    int committed = 0;
    for (const auto& w : f.remote_buffer_) {
      const int dst = f.link_target_[static_cast<std::size_t>(w.src_tile)];
      if (dst >= 0) {
        f.tiles_[static_cast<std::size_t>(dst)].set_dmem(w.addr, w.value);
        ++committed;
        if (f.tracer_ != nullptr) {
          TraceEvent ev;
          ev.cycle = f.cycle_;
          ev.kind = TraceEventKind::kRemoteWrite;
          ev.tile = w.src_tile;
          ev.dst_tile = dst;
          ev.addr = w.addr;
          ev.value = w.value;
          f.tracer_->record(ev);
        }
      }
    }
    ++f.cycle_;
    if (f.metrics_ != nullptr) {
      f.metrics_->add(f.m_cycles_);
      f.metrics_->add(f.m_retired_, retired);
      f.metrics_->add(f.m_remote_writes_, committed);
    }
    return retired;
  }
};

}  // namespace cgra::fabric
