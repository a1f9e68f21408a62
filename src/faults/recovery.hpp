// Epoch-level fault recovery.
//
// The RecoveryManager plays the paper's MicroBlaze runtime in degraded
// mode: it drives a compiled item schedule (mapping/schedule_compiler.hpp)
// through the fabric while a FaultInjector replays its plan, detects what
// goes wrong, and recovers:
//
//   * Corrupted ICAP transfers are caught by the controller's readback
//     verification and re-streamed with bounded backoff (scrub + retry);
//     the retry time lands in Timeline.reconfig_ns like any other
//     reconfiguration cost.
//   * Transient execution faults (SEU-induced illegal opcodes, PC runoff,
//     watchdog timeouts) roll the pipeline back to the last process-
//     boundary checkpoint: the input block is restored from the host-side
//     golden copy, the affected tile's configuration is scrubbed through
//     the ICAP, and the epoch re-runs.
//   * Permanent faults (dead tiles, failed links) trigger graceful
//     degradation: the pipeline is rebalanced over the surviving tile
//     budget (mapping/rebalance.hpp), re-placed avoiding the failed
//     hardware, recompiled, and resumed from the checkpoint.  Because
//     every process is a deterministic function of its input block, the
//     recovered output is bit-identical to the fault-free run.
//
// Every recovery action is recorded as a kRecovery trace event when a
// Tracer is attached, and every nanosecond of recovery work is accounted
// in the returned Timeline (see docs/FAULTS.md).
#pragma once

#include <span>
#include <vector>

#include "config/reconfig.hpp"
#include "fabric/fabric.hpp"
#include "faults/detector.hpp"
#include "faults/injector.hpp"
#include "mapping/rebalance.hpp"
#include "mapping/schedule_compiler.hpp"

namespace cgra::faults {

/// Recovery knobs.
struct RecoveryPolicy {
  // --- ICAP stream protection (config::IcapFaultOptions) ---
  bool verify_readback = true;
  double verify_cost_factor = 1.0;
  int max_icap_retries = 3;
  Nanoseconds icap_retry_backoff_ns = 100.0;
  double icap_backoff_factor = 2.0;

  // --- rollback / scrub ---
  /// Checkpoint re-runs allowed per process boundary before giving up.
  int max_retries_per_checkpoint = 3;
  /// Diff per-tile imem fingerprints across every epoch run.  Instruction
  /// memory never legitimately changes outside the ICAP, so a mismatch is
  /// a configuration upset even when the corrupted word still decodes to
  /// a valid instruction (which would otherwise corrupt data silently).
  bool scrub_imem = true;

  // --- graceful degradation ---
  bool allow_rebalance = true;
  int max_rebalances = 2;
  mapping::RebalanceAlgorithm rebalance_algo =
      mapping::RebalanceAlgorithm::kOpt;
  mapping::CostParams cost_params{};

  // --- hang detection ---
  EpochWatchdog watchdog{};

  [[nodiscard]] config::IcapFaultOptions icap_options(
      config::IcapTap* tap) const noexcept {
    config::IcapFaultOptions o;
    o.tap = tap;
    o.verify_readback = verify_readback;
    o.verify_cost_factor = verify_cost_factor;
    o.max_retries = max_icap_retries;
    o.retry_backoff_ns = icap_retry_backoff_ns;
    o.backoff_factor = icap_backoff_factor;
    return o;
  }
};

/// What happened during a resilient item run.
struct RecoveryReport {
  bool ok = false;
  Status status;                ///< Diagnostics when !ok.
  std::vector<Word> output;     ///< The last process's output block.
  config::Timeline timeline;    ///< Eq.-1 accounting incl. recovery cost.
  Nanoseconds recovery_ns = 0.0;  ///< Reconfig+compute spent on recovery
                                  ///< (verify, retries, scrubs, replays).
  int epochs_applied = 0;
  int faults_injected = 0;      ///< Scheduled events the injector fired.
  int icap_retries = 0;         ///< Payload re-streams by the controller.
  int scrub_detections = 0;     ///< Upsets caught by the imem fingerprint
                                ///< diff (RecoveryPolicy::scrub_imem).
  int rollbacks = 0;            ///< Checkpoint restore + replay rounds.
  int rebalances = 0;           ///< Remappings onto surviving tiles.
  std::vector<int> evacuated_tiles;  ///< Tiles abandoned as unusable.
  std::vector<Fault> unrecovered;    ///< Faults recovery could not clear.
};

/// Drives item schedules through a fabric with detection and recovery.
class RecoveryManager {
 public:
  /// `injector` may be null (no injected faults — the manager still
  /// detects and recovers organic ones).  None of the references are
  /// owned; the controller's fault options are saved and restored around
  /// each run.
  RecoveryManager(fabric::Fabric& fabric, config::ReconfigController& ctrl,
                  FaultInjector* injector, RecoveryPolicy policy = {});

  /// Run one pipeline item through `net` as mapped by `binding` /
  /// `placement`, feeding `input` to the first process and returning the
  /// last process's output block in the report.  Detection and recovery
  /// happen per the policy; the mapping may be rebalanced mid-run if
  /// hardware dies.
  RecoveryReport run_item(const procnet::ProcessNetwork& net,
                          const mapping::Binding& binding,
                          const mapping::Placement& placement,
                          const mapping::ProgramLibrary& library,
                          std::span<const Word> input,
                          const mapping::CompileOptions& options = {});

  [[nodiscard]] const RecoveryPolicy& policy() const noexcept {
    return policy_;
  }

 private:
  /// Run the fabric for at most `budget` cycles, pausing at scheduled
  /// fault-injection cycles to fire them (segmented execution: the hot
  /// path has no per-cycle hook).
  fabric::RunResult run_with_injection(std::int64_t budget,
                                      RecoveryReport& report);

  fabric::Fabric& fabric_;
  config::ReconfigController& ctrl_;
  FaultInjector* injector_;
  RecoveryPolicy policy_;
};

}  // namespace cgra::faults
