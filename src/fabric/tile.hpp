// One coarse-grain processing element (tile / grain / CGRM).
//
// Geometry and timing follow the paper: 512 x 48-bit data memory with two
// reads + one write per cycle, 512 x 72-bit instruction memory, one
// instruction per 2.5 ns cycle.  A tile reads only its own data memory but
// can write either its own memory or — via the active output link — the
// data memory of the connected neighbour.
//
// Fast path: step() dispatches on flat isa::DecodedInstr records (flags
// pre-split, immediates pre-converted, operand roles resolved).  They are
// decoded once, when a program is prepared as an isa::Image; load() copies
// the image's code and decoded records into the tile's own vectors, so a
// reconfiguration decodes nothing and the hot loop indexes tile-owned
// memory.  The isa::Instruction image is kept alongside for
// readback-verify, tracing and fault injection; flip_inst_bit re-predecodes
// the poked slot so the two never diverge.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/fixed_complex.hpp"
#include "common/status.hpp"
#include "common/timing.hpp"
#include "common/word.hpp"
#include "isa/decoded.hpp"
#include "isa/image.hpp"
#include "isa/program.hpp"

namespace cgra::fabric {

/// State of a tile's outgoing link as seen by the interpreter.
enum class LinkState : std::uint8_t {
  kNone,  ///< No output link configured this epoch.
  kUp,    ///< Link configured and healthy.
  kDown,  ///< Link configured but physically failed (fault injection).
};

/// A remote write emitted during a cycle; the Fabric commits it at cycle end
/// (synchronous semi-systolic transfer).
struct RemoteWrite {
  int src_tile = 0;
  int addr = 0;   ///< Destination address in the *neighbour's* data memory.
  Word value = 0;
};

/// Per-tile execution counters.
///
/// Cycle accounting invariant (the basis of obs::ProfileReport): every
/// fabric cycle a tile is stepped lands in exactly one of `instructions`
/// (retired), `cycles_stalled` (reconfiguration stall) or `cycles_halted`
/// (halted / faulted / the one cycle a fault is raised), so the three sum
/// to the fabric's global cycle counter.  The active-tile scheduler settles
/// the stalled/halted buckets of tiles it skips in batches, preserving the
/// invariant at every Fabric API boundary.
struct TileStats {
  std::int64_t instructions = 0;  ///< Instructions retired.
  std::int64_t remote_writes = 0;
  std::int64_t cycles_stalled = 0;  ///< Cycles spent stalled for reconfig.
  std::int64_t cycles_halted = 0;   ///< Cycles halted or faulted.
};

/// Observer of tile run-state transitions (halted / stalled / runnable).
///
/// The Fabric implements this to keep its active list, stall wake-queue and
/// halted counter exact even when external layers (reconfiguration
/// controller, fault injector, recovery) mutate tiles directly.  Transitions
/// are rare — configuration events, faults, halts — so the virtual call is
/// never on the per-cycle path.
class TileScheduler {
 public:
  /// `tile` (the bound linear index) may have changed halted/stalled state
  /// or its instruction image.
  virtual void tile_state_changed(int tile) = 0;

 protected:
  ~TileScheduler() = default;
};

class TileView;
struct TileExec;

/// One processing element.
class Tile {
 public:
  Tile() { dmem_.fill(0); }

  // A copied tile is a standalone value: the scheduler binding names a slot
  // in the source fabric and must not travel with the copy.
  Tile(const Tile& other) { *this = other; }
  Tile& operator=(const Tile& other);
  Tile(Tile&&) noexcept = default;
  Tile& operator=(Tile&&) noexcept = default;

  /// Install a prepared image: replaces the instruction image (copying
  /// its decoded records, reusing this tile's capacity), applies its data
  /// patches, clears any fault and resets the PC.  The tile stays halted
  /// until restart() — mirroring the runtime system configuring a
  /// partition before releasing it.  Returns false (and loads nothing) if
  /// the image exceeds the memories or the tile is dead.
  bool load(const isa::Image& image);

  /// Prepare `prog` (isa::Image) and load() it.
  bool load_program(const isa::Program& prog);

  /// Apply data patches only (e.g. reloading twiddle factors or copy-process
  /// variables during partial reconfiguration).
  bool patch_data(std::span<const isa::DataPatch> patches);

  /// Restart execution at `pc` (default 0) and clear the halted flag.
  /// A dead tile ignores the restart and stays faulted.
  void restart(int pc = 0);

  /// Restore construction state: zeroed data memory, empty instruction
  /// image, cleared accumulator/PC/stats/fault, halted.  Unlike every
  /// in-mission path this also revives a dead tile — reset models taking
  /// the hardware out of service and re-provisioning the slot (fabric-pool
  /// reuse), not repair under fire.  The scheduler binding survives and is
  /// notified like any other state transition.
  void reset();

  /// Data memory access for harness / test code.
  [[nodiscard]] Word dmem(int addr) const { return dmem_.at(static_cast<std::size_t>(addr)); }
  void set_dmem(int addr, Word v) { dmem_.at(static_cast<std::size_t>(addr)) = v; }

  /// Checkpoint support: copy-out / copy-in the whole data memory.
  [[nodiscard]] std::vector<Word> snapshot_dmem() const {
    return {dmem_.begin(), dmem_.end()};
  }
  /// Restores a snapshot taken with snapshot_dmem(); returns false (and
  /// restores nothing) on size mismatch or a dead tile.
  bool restore_dmem(std::span<const Word> image);

  [[nodiscard]] bool halted() const noexcept { return halted_; }
  [[nodiscard]] const Fault& fault() const noexcept { return fault_; }
  [[nodiscard]] bool faulted() const noexcept { return fault_.is_fault(); }
  [[nodiscard]] bool dead() const noexcept { return dead_; }
  [[nodiscard]] int pc() const noexcept { return pc_; }
  [[nodiscard]] const TileStats& stats() const noexcept { return stats_; }

  /// Attribute the cycle a fault was raised mid-step to the halted bucket
  /// (the fabric calls this on the fault transition, keeping the TileStats
  /// cycle-accounting invariant exact).
  void count_fault_cycle() noexcept { ++stats_.cycles_halted; }
  /// Batch-settle cycles the scheduler skipped for this tile.
  void account_idle_cycles(std::int64_t stalled, std::int64_t halted) noexcept {
    stats_.cycles_stalled += stalled;
    stats_.cycles_halted += halted;
  }
  [[nodiscard]] int code_size() const noexcept {
    return static_cast<int>(code_.size());
  }
  /// Monotonic counter bumped whenever the instruction image may have
  /// changed (load, flip_inst_bit, reset, copy-assign).  Execution
  /// engines key per-tile specialization caches on it and re-specialize
  /// when it moves — the "re-specialized on imem pokes" contract.
  [[nodiscard]] std::uint64_t code_version() const noexcept {
    return code_version_;
  }
  /// Instruction at `pc`, or nullptr when out of range (used by tracing and
  /// by the readback-verify pass of the reconfiguration controller).
  [[nodiscard]] const isa::Instruction* instruction_at(int pc) const noexcept {
    return pc >= 0 && pc < code_size()
               ? &code_[static_cast<std::size_t>(pc)]
               : nullptr;
  }

  // --- fault injection (SEU model) ---

  /// Flip one bit of a data-memory word (single-event upset).  Returns
  /// false if `addr` is outside the data memory (same bounds-checked
  /// contract as flip_inst_bit).
  bool flip_dmem_bit(int addr, int bit);

  /// Flip one bit of the 72-bit encoded form of instruction `index` and
  /// decode it back.  If the flipped word no longer decodes, the slot is
  /// poisoned so executing it raises kIllegalOpcode — exactly how a real
  /// configuration upset surfaces.  Returns false if `index` is out of
  /// range.
  bool flip_inst_bit(int index, int bit);

  /// Latch an externally detected fault (e.g. ICAP readback mismatch) and
  /// halt the tile.
  void inject_fault(FaultKind kind, int tile_index, std::int64_t cycle);

  /// Clear a latched fault after external recovery (scrub / rollback); the
  /// tile stays halted until reloaded.  Dead tiles keep kTileDead latched.
  void clear_fault() noexcept {
    if (!dead_) fault_ = Fault{};
  }

  /// Hard permanent failure: latches kTileDead and makes every subsequent
  /// load / patch / restart a no-op.  There is no way back.
  void hard_fail(int tile_index, std::int64_t cycle);

  /// Stall handling: the tile does nothing until the fabric cycle counter
  /// reaches `until_cycle` (used by the reconfiguration controller).
  void stall_until(std::int64_t until_cycle) noexcept {
    stalled_until_ = until_cycle;
    notify_scheduler();
  }
  [[nodiscard]] std::int64_t stalled_until() const noexcept {
    return stalled_until_;
  }

  /// Bind this tile to its owning scheduler (the Fabric).  Run-state
  /// transitions are reported through the interface from then on.
  void bind_scheduler(TileScheduler* sched, int index) noexcept {
    sched_ = sched;
    sched_index_ = index;
  }

  /// Execute one cycle.
  ///
  /// `tile_index` and `cycle` are used for fault reporting and stall checks.
  /// `link` is the state of the tile's output link this cycle; a remote
  /// write is appended to `remote_out` for the fabric to commit at end of
  /// cycle (or raises kNoActiveLink / kLinkDown).  Returns true if an
  /// instruction retired.
  bool step(int tile_index, std::int64_t cycle, LinkState link,
            std::vector<RemoteWrite>& remote_out);

 private:
  // The shared step core (step_core.hpp) reaches architectural state
  // through these views; everything else goes through the public API.
  friend class TileView;
  friend struct TileExec;

  void raise(FaultKind kind, int tile_index, std::int64_t cycle);
  void notify_scheduler() {
    if (sched_ != nullptr) sched_->tile_state_changed(sched_index_);
  }

  std::array<Word, kDataMemWords> dmem_{};
  std::vector<isa::Instruction> code_;
  /// Flattened image of `code_`, kept in lockstep (see file comment).
  std::vector<isa::DecodedInstr> decoded_;
  /// The DSP-macro accumulator (macz/mac/macr); 64-bit internally, results
  /// truncate to 48 bits when read back with macr.
  std::int64_t acc_ = 0;
  int pc_ = 0;
  bool halted_ = true;  ///< A fresh tile has no program: halted.
  bool dead_ = false;   ///< Hard-failed: permanently out of service.
  Fault fault_;
  TileStats stats_;
  std::int64_t stalled_until_ = 0;
  std::uint64_t code_version_ = 0;  ///< See code_version().
  TileScheduler* sched_ = nullptr;  ///< Not owned; null for standalone tiles.
  int sched_index_ = -1;
};

}  // namespace cgra::fabric
