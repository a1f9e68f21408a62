// The tile array: an R x C mesh of Tiles plus the malleable interconnect.
//
// Execution is globally synchronous: every cycle each running tile retires
// one instruction; remote writes are buffered and committed at the end of
// the cycle into the destination tile's data memory (the semi-systolic
// shared-memory transfer of the paper).  MIMD: each tile runs its own
// program.
//
// Fast execution engine (docs/ARCHITECTURE.md, "Execution engine"): the
// fabric schedules only ACTIVE tiles.  Halted, faulted, dead and stalled
// tiles cost nothing per cycle — their TileStats idle buckets are settled
// in batches at state transitions and at every public API boundary, so the
// cycle-accounting invariant (retired + stalled + halted == fabric cycles)
// holds bit-identically to the one-step-per-tile reference engine.  Stall
// deadlines live in a wake queue; when no tile is runnable, run()
// fast-forwards the cycle counter to the next wake event.  Tiles are
// stepped in ascending index order, so remote-write commit order (and with
// it the same-destination tie-break) is unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "fabric/tile.hpp"
#include "fabric/trace.hpp"
#include "interconnect/link.hpp"
#include "obs/metrics.hpp"

namespace cgra::fabric {

/// Result of running the fabric.
struct RunResult {
  std::int64_t cycles = 0;       ///< Cycles executed by this run() call.
  bool all_halted = false;       ///< Every tile halted cleanly.
  std::vector<Fault> faults;     ///< All faults raised during the run.

  [[nodiscard]] bool ok() const noexcept {
    return all_halted && faults.empty();
  }
  [[nodiscard]] Nanoseconds elapsed_ns() const noexcept {
    return cycles_to_ns(cycles);
  }
};

class Fabric;

/// Pluggable execution strategy driving a Fabric (implementations live in
/// src/engine; see docs/ARCHITECTURE.md "Execution engines").  A fabric
/// with an attached hook delegates run()/step() to it; engines reach the
/// scheduler internals through fabric::ExecAccess and MUST be bit-identical
/// to the built-in interpreter — same cycle counts, stats, traces and
/// remote-write commit order (tests/test_engine.cpp enforces it).
class ExecutionHook {
 public:
  virtual ~ExecutionHook() = default;
  /// Same contract as Fabric::run().
  virtual RunResult run(Fabric& fabric, std::int64_t max_cycles) = 0;
  /// Same contract as Fabric::step().
  virtual int step(Fabric& fabric) = 0;
};

/// Process-wide default-engine factory, consulted lazily the first time a
/// fabric without an attached engine runs.  Returning nullptr keeps the
/// built-in interpreter.  Installed once at startup (engine CLI flag /
/// build default) before any threads run fabrics.
using EngineFactory = std::unique_ptr<ExecutionHook> (*)();
void set_default_engine_factory(EngineFactory factory) noexcept;
[[nodiscard]] EngineFactory default_engine_factory() noexcept;

/// The mesh of tiles.
class Fabric : private TileScheduler {
 public:
  Fabric(int rows, int cols);

  // Tiles hold a back-pointer to their fabric's scheduler, so copying
  // would leave the copy's tiles notifying the original; moves re-bind.
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;
  Fabric(Fabric&& other) noexcept;
  Fabric& operator=(Fabric&& other) noexcept;

  [[nodiscard]] int rows() const noexcept { return links_.rows(); }
  [[nodiscard]] int cols() const noexcept { return links_.cols(); }
  [[nodiscard]] int tile_count() const noexcept { return links_.tile_count(); }

  [[nodiscard]] Tile& tile(int index) { return tiles_.at(static_cast<std::size_t>(index)); }
  [[nodiscard]] const Tile& tile(int index) const {
    return tiles_.at(static_cast<std::size_t>(index));
  }
  [[nodiscard]] Tile& tile(interconnect::TileCoord c) {
    return tile(links_.index(c));
  }

  /// Current link configuration (mutable: epochs rewire it).  The fabric
  /// re-reads it at every run()/step() entry; rewiring while run() is on
  /// the stack is not supported (and never happens: transitions are applied
  /// between runs by the reconfiguration controller).
  [[nodiscard]] interconnect::LinkConfig& links() noexcept { return links_; }
  [[nodiscard]] const interconnect::LinkConfig& links() const noexcept {
    return links_;
  }

  // --- fault injection: permanent hardware failures ---
  // Failure state lives on the Fabric, not in LinkConfig: epochs overwrite
  // the link *configuration* wholesale, but broken wires stay broken.

  /// Permanently fail the outgoing link driver of `tile`.  Remote writes
  /// from it raise kLinkDown from then on, whatever the epoch configures.
  void fail_link(int tile) {
    failed_links_.at(static_cast<std::size_t>(tile)) = 1;
    if (link_state_[static_cast<std::size_t>(tile)] == LinkState::kUp) {
      link_state_[static_cast<std::size_t>(tile)] = LinkState::kDown;
    }
  }
  [[nodiscard]] bool link_failed(int tile) const {
    return failed_links_.at(static_cast<std::size_t>(tile)) != 0;
  }

  /// Hard-fail a whole tile at the current cycle (see Tile::hard_fail).
  void kill_tile(int tile) { this->tile(tile).hard_fail(tile, cycle_); }

  /// Linear indices of all dead tiles.
  [[nodiscard]] std::vector<int> dead_tiles() const;

  /// Global cycle counter (monotonic across run() calls).
  [[nodiscard]] std::int64_t now() const noexcept { return cycle_; }

  /// Restore construction state: every tile reset (dmem/imem/stats, dead
  /// tiles revived), links cleared, failed link drivers repaired, cycle
  /// counter zeroed, scheduler state (active list, wake heap, settlement
  /// boundaries) rebuilt.  A reset fabric behaves bit-identically to a
  /// freshly constructed one — the contract the fabric pool's reset-and-
  /// reuse depends on (property-tested cycle-for-cycle).  External
  /// attachments (tracer, metrics registry) are harness wiring, not fabric
  /// state, and are deliberately kept; detach them explicitly if unwanted.
  void reset();

  /// Let simulated time pass while every tile is halted: move the cycle
  /// counter forward to `cycle` (no-op when it is not ahead, or when a
  /// tile is not halted).  The skipped cycles settle into the tiles' idle
  /// stats and the cycle metric, as a run() over them would.
  void idle_until(std::int64_t cycle);

  /// Execute one cycle: step every runnable tile, then commit remote
  /// writes.  Returns the number of tiles that retired an instruction.
  /// Idle tiles' cycle accounting is settled before this returns, so the
  /// observable TileStats match the reference one-step-per-tile engine.
  /// Delegates to the attached execution engine when one is installed.
  int step();

  /// Run until every tile is halted, a fault occurs, or `max_cycles`
  /// elapse.  When only stalled tiles remain, the cycle counter
  /// fast-forwards to the next wake event (run-until-event; the skipped
  /// cycles still count against `max_cycles` and into the result).
  /// Delegates to the attached execution engine when one is installed.
  RunResult run(std::int64_t max_cycles);

  /// The built-in interpreter: the reference implementation run()/step()
  /// use when no engine is attached.  Engines and the conformance suite
  /// call these directly to compare against the reference.
  RunResult run_interpreter(std::int64_t max_cycles);
  int step_interpreter();

  // --- pluggable execution engines ---
  // Like the tracer/metrics attachments, an engine is harness wiring, not
  // fabric state: reset() keeps it.  When neither attach nor adopt was
  // called, the first run()/step() consults the process-wide default
  // factory once (set_default_engine_factory); attach_engine(nullptr)
  // pins the built-in interpreter explicitly.

  /// Attach a non-owning engine (must outlive the fabric), or nullptr to
  /// pin the built-in interpreter.
  void attach_engine(ExecutionHook* engine) noexcept {
    owned_engine_.reset();
    engine_ = engine;
    engine_resolved_ = true;
  }
  /// Attach an engine the fabric owns.
  void adopt_engine(std::unique_ptr<ExecutionHook> engine) noexcept {
    owned_engine_ = std::move(engine);
    engine_ = owned_engine_.get();
    engine_resolved_ = true;
  }
  /// The engine run()/step() currently delegate to (null = interpreter,
  /// or default not resolved yet).
  [[nodiscard]] ExecutionHook* engine() const noexcept { return engine_; }

  /// True if every tile is halted (cleanly or by fault).  O(1): the
  /// scheduler maintains the halted-tile count across all transitions.
  [[nodiscard]] bool all_halted() const noexcept {
    return halted_count_ == tile_count();
  }

  /// Cycle of the earliest pending stall-wake event, or -1 when no tile is
  /// stalled (exposed for schedulers and tests).
  [[nodiscard]] std::int64_t next_wake_cycle();

  /// Collect faults currently latched in the tiles.
  [[nodiscard]] std::vector<Fault> faults() const;

  /// Attach (or detach with nullptr) an event tracer; the fabric does not
  /// own it.  Tracing costs one branch per tile-step when detached.
  void attach_tracer(Tracer* tracer) noexcept { tracer_ = tracer; }
  [[nodiscard]] Tracer* tracer() const noexcept { return tracer_; }

  /// Attach (or detach with nullptr) a metrics registry; the fabric does
  /// not own it.  Handles are resolved once here so the hot loop pays one
  /// branch plus array increments per cycle (and nothing per tile).  The
  /// published counters: fabric.cycles, fabric.retired,
  /// fabric.remote_writes, fabric.faults.
  void attach_metrics(obs::MetricsRegistry* metrics);
  [[nodiscard]] obs::MetricsRegistry* metrics() const noexcept {
    return metrics_;
  }

 private:
  /// Execution engines (src/engine) reach the scheduler internals through
  /// this single audited backdoor (fabric/exec_access.hpp).
  friend struct ExecAccess;

  /// Scheduling class of a tile.  Exactly one applies at any cycle; it is
  /// also the TileStats bucket its skipped cycles settle into.
  enum class TileClass : std::uint8_t { kActive, kStalled, kHalted };

  /// TileScheduler: a tile's run state (or instruction image) changed.
  void tile_state_changed(int tile) override;

  /// Add the pending idle cycles of a non-active tile to its stats bucket.
  void settle_tile(int tile, std::int64_t boundary);
  /// Settle every tile up to the current cycle (public API boundary).
  void settle_all();
  /// Move tiles whose stall deadline has passed onto the active list.
  void process_wakes();
  /// Execute one cycle over the active list and commit remote writes.
  int step_cycle();
  /// Drop active-list entries invalidated during a sweep.
  void compact_active();
  void insert_active(int tile);
  void remove_active(int tile);
  /// Re-derive per-tile link state/target from links_ and failed_links_.
  void refresh_link_cache();

  /// Resolve the lazy process-default engine (first run()/step()).
  void resolve_engine();

  interconnect::LinkConfig links_;
  std::vector<Tile> tiles_;
  std::vector<RemoteWrite> remote_buffer_;
  ExecutionHook* engine_ = nullptr;  ///< Delegation target; see engine().
  std::unique_ptr<ExecutionHook> owned_engine_;
  bool engine_resolved_ = false;  ///< Default-factory lookup done.
  std::vector<std::uint8_t> failed_links_;  ///< 1 = output driver broken.
  std::int64_t cycle_ = 0;
  Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::CounterHandle m_cycles_;
  obs::CounterHandle m_retired_;
  obs::CounterHandle m_remote_writes_;
  obs::CounterHandle m_faults_;

  // --- active-tile scheduler state ---
  std::vector<TileClass> class_;         ///< Current class per tile.
  std::vector<int> active_;              ///< Runnable tiles, ascending index.
  std::vector<std::uint8_t> in_active_;  ///< Membership in active_ (incl. stale).
  /// Pending (wake_cycle, tile) events, earliest first.  Entries are lazy:
  /// superseded deadlines and dead classes are dropped on inspection; every
  /// stalled tile always has one entry matching its true deadline.
  std::priority_queue<std::pair<std::int64_t, int>,
                      std::vector<std::pair<std::int64_t, int>>,
                      std::greater<>>
      wake_;
  int halted_count_ = 0;                 ///< Tiles in class kHalted.
  /// Cycle up to which each non-active tile's idle buckets are settled.
  std::vector<std::int64_t> settled_;
  /// Cached per-tile output-link state/target, refreshed at run()/step()
  /// entry (links cannot change while the fabric is stepping).
  std::vector<LinkState> link_state_;
  std::vector<int> link_target_;
  bool stepping_ = false;       ///< Inside a sweep: transitions settle at cycle_+1.
  bool active_dirty_ = false;   ///< Stale entries in active_ need compaction.
};

}  // namespace cgra::fabric
