// Partial-reconfiguration controller.
//
// Models the MicroBlaze + ICAP runtime management system: the ICAP is a
// single serial channel (180 MB/s); reconfiguring tile set S stalls only S,
// so computation in tiles outside S overlaps with reconfiguration — the
// paper's central mechanism for hiding context-switch overhead.
//
// The controller both *performs* the reconfiguration on a Fabric (loading
// programs, patching data, rewiring links, stalling the affected tiles for
// the modelled number of cycles) and *reports* the cost breakdown so the
// analytic models can be validated against the executed timeline.
//
// Fault handling (docs/FAULTS.md): an IcapTap lets the fault-injection
// layer corrupt words in flight; with readback-verify enabled the
// controller compares each tile's memories against the intended payload
// after streaming and re-streams (scrub + retry with backoff) up to a
// bounded number of times, accounting every retry into the transition cost.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/timing.hpp"
#include "config/epoch.hpp"
#include "fabric/fabric.hpp"
#include "obs/span.hpp"

namespace cgra::config {

/// Observer/mutator of ICAP payloads in flight.  The fault-injection layer
/// implements this to model corrupted transfers; the controller calls it
/// once per stream attempt of each tile payload.
class IcapTap {
 public:
  virtual ~IcapTap() = default;
  /// May mutate the words streamed for `tile`.  `attempt` is 0 for the
  /// first stream and increments on every retry of the same payload.
  virtual void on_stream(int tile, int attempt, isa::Program& program,
                         std::vector<isa::DataPatch>& patches) = 0;
};

/// Fault-path knobs of the controller.  All off by default: the zero-fault
/// configuration streams exactly as the paper models it.
struct IcapFaultOptions {
  IcapTap* tap = nullptr;        ///< In-flight corruption hook (not owned).
  bool verify_readback = false;  ///< Compare memories against intent.
  /// Extra ICAP occupancy of the readback pass, as a fraction of the
  /// payload stream time (1.0 = full readback at ICAP bandwidth).
  double verify_cost_factor = 1.0;
  int max_retries = 0;           ///< Re-streams allowed after a bad verify.
  /// Idle scrub/settle time before retry r is backoff_ns * factor^(r-1).
  Nanoseconds retry_backoff_ns = 0.0;
  double backoff_factor = 2.0;
};

/// Cost breakdown of one epoch transition.
struct TransitionReport {
  std::string name;  ///< Destination epoch (EpochConfig::name).
  int links_changed = 0;
  Nanoseconds link_ns = 0.0;        ///< links_changed * L.
  Nanoseconds inst_reload_ns = 0.0; ///< Instruction words through the ICAP.
  Nanoseconds data_reload_ns = 0.0; ///< Data words through the ICAP.
  Nanoseconds verify_ns = 0.0;      ///< Readback-verify ICAP occupancy.
  Nanoseconds retry_ns = 0.0;       ///< Re-streams + backoff after bad
                                    ///< verifies (includes their verify).
  int icap_retries = 0;             ///< Payload re-streams performed.
  std::vector<Fault> detected;      ///< kIcapCorruption faults latched.
  std::int64_t icap_busy_cycles = 0;  ///< Serial ICAP occupancy in cycles.
  std::int64_t start_cycle = 0;     ///< Fabric cycle the transition began.
  std::int64_t complete_cycle = 0;  ///< Cycle all affected tiles may resume.

  [[nodiscard]] Nanoseconds total_ns() const noexcept {
    return link_ns + inst_reload_ns + data_reload_ns + verify_ns + retry_ns;
  }
};

/// Aggregated Equation-1 accounting over a run.
///
/// `epoch_compute_ns` is the *executed* wall time of the epochs, measured on
/// the fabric clock.  Because affected tiles are stalled while their payload
/// streams through the ICAP, any reconfiguration that could NOT be hidden
/// behind other tiles' computation is already included in it.  The analytic
/// reconfiguration cost (term B of Eq. 1, what a non-overlapped design would
/// pay) is reported separately in `reconfig_ns` so the hidden fraction can
/// be quantified: hidden = reconfig_ns - (epoch_compute_ns - pure compute).
/// Fault recovery (retries, rollbacks, re-streams) also lands in
/// `reconfig_ns` — degraded-mode cost is quantified, never hidden.
struct Timeline {
  Nanoseconds epoch_compute_ns = 0.0;  ///< Executed time incl. visible stalls.
  Nanoseconds reconfig_ns = 0.0;       ///< Analytic term B (links + ICAP).
  std::vector<TransitionReport> transitions;
  /// Executed cycles of each epoch, parallel to `transitions` (filled by
  /// run_epoch; the profiler uses it for per-epoch drift bucketing).
  std::vector<std::int64_t> epoch_cycles;

  /// Executed wall time of the whole schedule.
  [[nodiscard]] Nanoseconds total_ns() const noexcept {
    return epoch_compute_ns;
  }
};

/// Applies epoch transitions to a fabric.
class ReconfigController {
 public:
  ReconfigController(IcapModel icap, interconnect::LinkCostModel link_cost,
                     bool partial_reconfiguration = true)
      : icap_(icap),
        link_cost_(link_cost),
        partial_(partial_reconfiguration) {}

  /// Apply `next` to `fabric` at the fabric's current cycle.
  ///
  /// * Link changes are counted against the previous configuration.
  /// * Each updated tile is reloaded through the serial ICAP in tile order;
  ///   the tile is stalled until its own payload (plus its share of the
  ///   link rewiring) has streamed through.
  /// * Tiles not mentioned in `next` keep running — partial
  ///   reconfiguration.  With `partial_reconfiguration = false` the
  ///   controller instead stalls the whole array for the duration of the
  ///   transition (the single-context baseline the paper argues against);
  ///   paper_report's overlap ablation quantifies the difference.
  /// * With fault options armed, each payload may be corrupted in flight,
  ///   verified by readback, and re-streamed up to the retry bound; an
  ///   exhausted bound latches kIcapCorruption on the tile.
  TransitionReport apply(fabric::Fabric& fabric, const EpochConfig& next);

  /// Re-stream the payload of a single tile of `epoch` (scrub).  Used by
  /// the recovery layer to repair suspected SEU corruption; pays the same
  /// ICAP costs as the original stream and returns the report.
  TransitionReport scrub_tile(fabric::Fabric& fabric, const EpochConfig& epoch,
                              int tile);

  [[nodiscard]] bool partial() const noexcept { return partial_; }

  [[nodiscard]] const IcapModel& icap() const noexcept { return icap_; }
  [[nodiscard]] const interconnect::LinkCostModel& link_cost() const noexcept {
    return link_cost_;
  }

  /// Arm (or disarm) the fault path.  Cheap to call; the zero-fault
  /// configuration pays nothing beyond a null check per updated tile.
  void set_fault_options(const IcapFaultOptions& options) noexcept {
    fault_options_ = options;
  }
  [[nodiscard]] const IcapFaultOptions& fault_options() const noexcept {
    return fault_options_;
  }

  /// Attach (or detach with nullptr) a span timeline; the controller does
  /// not own it.  With one attached, every apply()/scrub records spans on
  /// the ICAP / links / per-tile tracks (see obs/span.hpp).
  void attach_timeline(obs::SpanTimeline* spans) noexcept { spans_ = spans; }
  [[nodiscard]] obs::SpanTimeline* timeline() const noexcept { return spans_; }

 private:
  /// Stream one tile update (with tamper/verify/retry); returns the ns the
  /// payload occupied the ICAP and updates `report`.
  Nanoseconds stream_tile(fabric::Fabric& fabric, int tile_index,
                          const TileUpdate& update, TransitionReport& report);

  IcapModel icap_;
  interconnect::LinkCostModel link_cost_;
  bool partial_ = true;
  IcapFaultOptions fault_options_;
  obs::SpanTimeline* spans_ = nullptr;
};

/// The run step of one epoch, called once its transition is applied and
/// accounted.  Returns the run, or nullopt to skip running the epoch.
using EpochRunner =
    std::function<std::optional<fabric::RunResult>(const TransitionReport&)>;

/// One epoch, the single owner of its bookkeeping: apply `epoch` to
/// `fabric` and account the transition in `timeline` (the report and its
/// term-B cost); then run it with `runner` and, unless the runner skipped,
/// account the executed time and cycles.  With a span timeline attached to
/// `ctrl`, a run epoch's span is recorded, tagged with its cycles and then
/// `span_args`.  run_schedule, fft::run_fabric_fft and
/// faults::RecoveryManager all step through this.
std::optional<fabric::RunResult> run_epoch(
    fabric::Fabric& fabric, ReconfigController& ctrl, const EpochConfig& epoch,
    Timeline& timeline, const EpochRunner& runner,
    std::vector<obs::SpanArg> span_args = {});

/// run_epoch whose run step is fabric.run(max_cycles): until every tile
/// halts or `max_cycles` elapse.
fabric::RunResult run_epoch(fabric::Fabric& fabric, ReconfigController& ctrl,
                            const EpochConfig& epoch, std::int64_t max_cycles,
                            Timeline& timeline);

/// Record one recovery step on `tile`: a `recovery:<action>` instant on
/// `spans` (when given) and a kRecovery event on the fabric's tracer (when
/// attached).  The controller's ICAP retries and faults::RecoveryManager
/// both trace through this.
void record_recovery(fabric::Fabric& fabric, obs::SpanTimeline* spans,
                     int tile, fabric::RecoveryAction action, int attempt);

/// Convenience driver: run a sequence of epochs to completion on a fabric,
/// applying transitions between them and accumulating the Equation-1 terms.
///
/// Each epoch runs until all tiles halt (or `max_cycles_per_epoch` elapses,
/// which is reported as a fault-free but incomplete run via `ok=false`).
struct ScheduleResult {
  Timeline timeline;
  bool ok = true;
  std::vector<Fault> faults;
};

ScheduleResult run_schedule(fabric::Fabric& fabric, ReconfigController& ctrl,
                            const std::vector<EpochConfig>& epochs,
                            std::int64_t max_cycles_per_epoch);

}  // namespace cgra::config
