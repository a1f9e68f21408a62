#include "faults/recovery.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <set>

#include "mapping/placement.hpp"

namespace cgra::faults {

namespace {

std::vector<Word> read_block(const fabric::Tile& tile, int base, int words) {
  std::vector<Word> block;
  block.reserve(static_cast<std::size_t>(words));
  for (int i = 0; i < words; ++i) block.push_back(tile.dmem(base + i));
  return block;
}

void write_block(fabric::Tile& tile, int base, std::span<const Word> block) {
  for (std::size_t i = 0; i < block.size(); ++i) {
    tile.set_dmem(base + static_cast<int>(i), block[i]);
  }
}

/// Restores the controller's fault options when a run exits by any path.
class OptionsGuard {
 public:
  explicit OptionsGuard(config::ReconfigController& ctrl)
      : ctrl_(ctrl), saved_(ctrl.fault_options()) {}
  ~OptionsGuard() { ctrl_.set_fault_options(saved_); }
  OptionsGuard(const OptionsGuard&) = delete;
  OptionsGuard& operator=(const OptionsGuard&) = delete;

 private:
  config::ReconfigController& ctrl_;
  config::IcapFaultOptions saved_;
};

}  // namespace

RecoveryManager::RecoveryManager(fabric::Fabric& fabric,
                                 config::ReconfigController& ctrl,
                                 FaultInjector* injector,
                                 RecoveryPolicy policy)
    : fabric_(fabric), ctrl_(ctrl), injector_(injector), policy_(policy) {}

fabric::RunResult RecoveryManager::run_with_injection(std::int64_t budget,
                                                      RecoveryReport& report) {
  fabric::RunResult total;
  if (injector_ != nullptr) {
    report.faults_injected += injector_->fire_due(fabric_);
  }
  std::int64_t remaining = budget;
  while (remaining > 0) {
    std::int64_t segment = remaining;
    if (injector_ != nullptr) {
      if (const auto next = injector_->next_cycle();
          next && *next > fabric_.now()) {
        segment = std::min(segment, *next - fabric_.now());
      }
    }
    const fabric::RunResult r = fabric_.run(segment);
    remaining -= r.cycles;
    total.cycles += r.cycles;
    if (injector_ != nullptr) {
      report.faults_injected += injector_->fire_due(fabric_);
    }
    if (fabric_.all_halted() || r.cycles == 0) break;
  }
  total.all_halted = fabric_.all_halted();
  total.faults = fabric_.faults();
  return total;
}

RecoveryReport RecoveryManager::run_item(
    const procnet::ProcessNetwork& net, const mapping::Binding& binding,
    const mapping::Placement& placement,
    const mapping::ProgramLibrary& library, std::span<const Word> input,
    const mapping::CompileOptions& options) {
  RecoveryReport rep;
  if (binding.groups.empty() || binding.groups.front().procs.empty()) {
    rep.status = Status::error("empty binding");
    return rep;
  }

  OptionsGuard restore_options(ctrl_);
  ctrl_.set_fault_options(policy_.icap_options(injector_));

  mapping::Binding cur_binding = binding;
  mapping::Placement cur_place = placement;
  mapping::CompileOptions copts = options;
  std::set<int> avoid(copts.avoid_tiles.begin(), copts.avoid_tiles.end());
  std::set<int> evacuated;  ///< Tiles whose latched faults are expected.

  auto sched = mapping::compile_item_schedule(net, cur_binding, cur_place,
                                              library, copts);
  if (!sched.ok()) {
    rep.status = sched.status;
    return rep;
  }

  const int first_pid = cur_binding.groups.front().procs.front();
  const auto& first_impl = library.at(first_pid);
  if (static_cast<int>(input.size()) != first_impl.words) {
    rep.status = Status::errorf(
        "input block is %d words, process '%s' expects %d",
        static_cast<int>(input.size()), net.process(first_pid).name.c_str(),
        first_impl.words);
    return rep;
  }
  write_block(fabric_.tile(sched.meta.front().tile), first_impl.in_base,
              input);

  /// Host-side golden copy of the in-flight block at the last process
  /// boundary — the MicroBlaze runtime's checkpoint.
  struct Checkpoint {
    int pid = -1;
    std::size_t epoch = 0;
    int tile = -1;
    std::vector<Word> block;
  };
  Checkpoint ckpt;
  int retries_here = 0;
  std::size_t furthest = 0;  ///< First epoch index not yet completed.
  std::size_t idx = 0;

  auto give_up = [&](std::vector<Fault> faults, Status why) -> RecoveryReport {
    rep.unrecovered = std::move(faults);
    rep.status = std::move(why);
    rep.evacuated_tiles.assign(evacuated.begin(), evacuated.end());
    if (!rep.unrecovered.empty()) {
      config::record_recovery(fabric_, ctrl_.timeline(),
                              rep.unrecovered.front().tile,
                              fabric::RecoveryAction::kGiveUp, retries_here);
    }
    return rep;
  };

  while (idx < sched.epochs.size()) {
    const bool replay = idx < furthest;
    const mapping::EpochMeta& m = sched.meta[idx];
    if (m.process >= 0) {
      if (ckpt.pid != m.process || ckpt.epoch != idx) retries_here = 0;
      const auto& impl = library.at(m.process);
      ckpt = {m.process, idx, m.tile,
              read_block(fabric_.tile(m.tile), impl.in_base, impl.words)};
    }

    // A stream the controller could not verify leaves the epoch unrun; the
    // instruction-memory fingerprints are taken between apply and run.
    std::vector<std::uint64_t> imem_before;
    const std::int64_t budget =
        policy_.watchdog.budget_cycles(m.predicted_cycles);
    const std::optional<fabric::RunResult> ran = config::run_epoch(
        fabric_, ctrl_, sched.epochs[idx], rep.timeline,
        [&](const config::TransitionReport& applied)
            -> std::optional<fabric::RunResult> {
          if (!applied.detected.empty()) return std::nullopt;
          if (policy_.scrub_imem) {
            imem_before.reserve(static_cast<std::size_t>(fabric_.tile_count()));
            for (int t = 0; t < fabric_.tile_count(); ++t) {
              imem_before.push_back(imem_checksum(fabric_.tile(t)));
            }
          }
          return run_with_injection(budget, rep);
        },
        {{"replay", replay ? "true" : "false", true}});
    const config::TransitionReport treport = rep.timeline.transitions.back();
    rep.icap_retries += treport.icap_retries;
    rep.recovery_ns += treport.retry_ns;
    if (replay) rep.recovery_ns += treport.total_ns() - treport.retry_ns;
    ++rep.epochs_applied;

    const bool stream_failed = !ran.has_value();
    const fabric::RunResult run = ran.value_or(fabric::RunResult{});
    if (!stream_failed) {
      if (replay) rep.recovery_ns += run.elapsed_ns();
      // Configuration scrub: instruction memory never changes outside
      // the ICAP, so any fingerprint drift across the run is an upset —
      // including one whose corrupted word still decodes to a valid
      // instruction and so raised no architectural fault.
      if (policy_.scrub_imem) {
        for (int t = 0; t < fabric_.tile_count(); ++t) {
          if (evacuated.count(t) != 0 || fabric_.tile(t).faulted()) continue;
          if (imem_checksum(fabric_.tile(t)) !=
              imem_before[static_cast<std::size_t>(t)]) {
            fabric_.tile(t).inject_fault(FaultKind::kIcapCorruption, t,
                                         fabric_.now());
            ++rep.scrub_detections;
          }
        }
      }
    }

    // Detected stream failures first, then faults latched in the tiles
    // (skipping tiles already evacuated, whose kTileDead is expected, and
    // tiles both detected and latched).
    std::vector<Fault> faults;
    for (const Fault& f : treport.detected) {
      if (evacuated.count(f.tile) == 0) faults.push_back(f);
    }
    for (const Fault& f : fabric_.faults()) {
      if (evacuated.count(f.tile) != 0) continue;
      bool seen = false;
      for (const Fault& d : faults) seen = seen || d.tile == f.tile;
      if (!seen) faults.push_back(f);
    }
    if (!stream_failed && faults.empty() && !run.all_halted) {
      // Nothing faulted but the epoch overran its analytic budget: a hung
      // loop (e.g. an SEU in a loop counter).  The watchdog converts the
      // hang into a recoverable fault on the epoch's tile.
      fabric_.tile(m.tile).inject_fault(FaultKind::kWatchdogTimeout, m.tile,
                                        fabric_.now());
      faults.push_back(fabric_.tile(m.tile).fault());
    }
    if (faults.empty()) {
      furthest = std::max(furthest, idx + 1);
      ++idx;
      continue;
    }

    bool any_permanent = false;
    for (const Fault& f : faults) {
      if (fault_is_permanent(f.kind) || fabric_.tile(f.tile).dead()) {
        any_permanent = true;
      }
    }

    if (any_permanent) {
      // --- graceful degradation: evacuate and remap onto survivors ---
      if (!policy_.allow_rebalance) {
        return give_up(std::move(faults),
                       Status::error("hard fault and rebalance disabled"));
      }
      if (rep.rebalances >= policy_.max_rebalances) {
        return give_up(std::move(faults),
                       Status::errorf("rebalance budget (%d) exhausted",
                                      policy_.max_rebalances));
      }
      if (ckpt.pid < 0) {
        return give_up(std::move(faults),
                       Status::error("hard fault before first checkpoint"));
      }
      for (const Fault& f : faults) {
        avoid.insert(f.tile);
        evacuated.insert(f.tile);
        fabric_.tile(f.tile).clear_fault();  // no-op on dead tiles
      }
      for (const int t : fabric_.dead_tiles()) {
        avoid.insert(t);
        evacuated.insert(t);
      }
      for (int t = 0; t < fabric_.tile_count(); ++t) {
        if (fabric_.link_failed(t)) {
          avoid.insert(t);
          evacuated.insert(t);
          fabric_.tile(t).clear_fault();
        }
      }
      const int surviving =
          fabric_.tile_count() - static_cast<int>(avoid.size());
      const int tile_budget = std::min(cur_binding.tile_count(), surviving);
      if (tile_budget < 1) {
        return give_up(std::move(faults),
                       Status::error("no surviving tiles to remap onto"));
      }
      cur_binding = mapping::rebalance(net, tile_budget,
                                       policy_.rebalance_algo,
                                       policy_.cost_params);
      copts.avoid_tiles.assign(avoid.begin(), avoid.end());
      try {
        cur_place = mapping::place_avoiding(
            cur_binding, fabric_.rows(), fabric_.cols(),
            mapping::PlacementStrategy::kSnake, copts.avoid_tiles);
      } catch (const std::exception& e) {
        return give_up(std::move(faults), Status::errorf("%s", e.what()));
      }
      sched = mapping::compile_item_schedule(net, cur_binding, cur_place,
                                             library, copts);
      if (!sched.ok()) {
        return give_up(std::move(faults), sched.status);
      }
      std::size_t resume = sched.epochs.size();
      for (std::size_t e = 0; e < sched.meta.size(); ++e) {
        if (sched.meta[e].process == ckpt.pid) {
          resume = e;
          break;
        }
      }
      if (resume == sched.epochs.size()) {
        return give_up(
            std::move(faults),
            Status::error("checkpointed process missing after rebalance"));
      }
      const auto& impl = library.at(ckpt.pid);
      write_block(fabric_.tile(sched.meta[resume].tile), impl.in_base,
                  ckpt.block);
      ckpt.epoch = resume;
      ckpt.tile = sched.meta[resume].tile;
      idx = resume;
      furthest = resume;  // new schedule: indices beyond here are fresh
      retries_here = 0;
      ++rep.rebalances;
      config::record_recovery(fabric_, ctrl_.timeline(), ckpt.tile,
                              fabric::RecoveryAction::kRebalance,
                              rep.rebalances);
      continue;
    }

    // --- transient fault: scrub, roll back, replay from the checkpoint ---
    if (ckpt.pid < 0) {
      return give_up(std::move(faults),
                     Status::error("fault before first checkpoint"));
    }
    if (++retries_here > policy_.max_retries_per_checkpoint) {
      return give_up(std::move(faults),
                     Status::errorf("retry budget (%d) per checkpoint "
                                    "exhausted",
                                    policy_.max_retries_per_checkpoint));
    }
    for (const Fault& f : faults) {
      // Scrub: re-stream the faulted tile's configuration through the
      // ICAP (paying the modelled time) and clear the latched fault.  The
      // upset may sit on a tile the current epoch never touched, so the
      // scrub source is the most recent epoch that configured the tile.
      for (std::size_t e = idx + 1; e-- > 0;) {
        if (sched.epochs[e].tiles.count(f.tile) == 0) continue;
        const config::TransitionReport scrub =
            ctrl_.scrub_tile(fabric_, sched.epochs[e], f.tile);
        if (scrub.total_ns() > 0.0) {
          rep.timeline.reconfig_ns += scrub.total_ns();
          rep.timeline.transitions.push_back(scrub);
          rep.recovery_ns += scrub.total_ns();
          rep.icap_retries += scrub.icap_retries;
        }
        break;
      }
      fabric_.tile(f.tile).clear_fault();
    }
    const auto& impl = library.at(ckpt.pid);
    write_block(fabric_.tile(ckpt.tile), impl.in_base, ckpt.block);
    ++rep.rollbacks;
    config::record_recovery(fabric_, ctrl_.timeline(), ckpt.tile,
                            fabric::RecoveryAction::kRollback, retries_here);
    idx = ckpt.epoch;
  }

  // --- success: read the final block off the last process's tile ---
  const int last_pid = cur_binding.groups.back().procs.back();
  const auto& last_impl = library.at(last_pid);
  int out_tile = -1;
  for (std::size_t e = sched.meta.size(); e-- > 0;) {
    if (sched.meta[e].process == last_pid) {
      out_tile = sched.meta[e].tile;
      break;
    }
  }
  rep.output =
      read_block(fabric_.tile(out_tile), last_impl.out_base, last_impl.words);
  rep.evacuated_tiles.assign(evacuated.begin(), evacuated.end());
  rep.ok = true;
  return rep;
}

}  // namespace cgra::faults
