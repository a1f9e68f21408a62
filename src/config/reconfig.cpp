#include "config/reconfig.hpp"

#include <cmath>
#include <string>

namespace cgra::config {

namespace {

/// True when the tile's memories hold exactly what `update` intended.
bool readback_matches(const fabric::Tile& tile, const TileUpdate& update) {
  if (update.program) {
    const isa::Image& image = *update.program;
    if (tile.code_size() != image.inst_words()) return false;
    for (int i = 0; i < tile.code_size(); ++i) {
      const isa::Instruction* got = tile.instruction_at(i);
      if (got == nullptr ||
          !(*got == image.code()[static_cast<std::size_t>(i)])) {
        return false;
      }
    }
    for (const auto& patch : image.data()) {
      if (tile.dmem(patch.addr) != truncate_word(patch.value)) return false;
    }
  }
  for (const auto& patch : update.patches) {
    if (tile.dmem(patch.addr) != truncate_word(patch.value)) return false;
  }
  return true;
}

}  // namespace

void record_recovery(fabric::Fabric& fabric, obs::SpanTimeline* spans,
                     int tile, fabric::RecoveryAction action, int attempt) {
  if (spans != nullptr) {
    spans->instant(
        std::string("recovery:") + fabric::recovery_action_name(action),
        "recovery", obs::tile_track(tile), cycles_to_ns(fabric.now()),
        {{"tile", std::to_string(tile), true},
         {"attempt", std::to_string(attempt), true}});
  }
  if (fabric.tracer() == nullptr) return;
  fabric::TraceEvent ev;
  ev.cycle = fabric.now();
  ev.kind = fabric::TraceEventKind::kRecovery;
  ev.tile = tile;
  ev.action = action;
  ev.attempt = attempt;
  fabric.tracer()->record(ev);
}

Nanoseconds ReconfigController::stream_tile(fabric::Fabric& fabric,
                                            int tile_index,
                                            const TileUpdate& update,
                                            TransitionReport& report) {
  const Nanoseconds inst_ns = icap_.inst_reload_ns(update.inst_words());
  const Nanoseconds data_ns = icap_.data_reload_ns(update.data_words());
  const Nanoseconds payload_ns = inst_ns + data_ns;
  report.inst_reload_ns += inst_ns;
  report.data_reload_ns += data_ns;

  auto& tile = fabric.tile(tile_index);
  const IcapFaultOptions& opts = fault_options_;

  // Zero-fault fast path: the prepared image is installed as is — no
  // payload copies, no decoding, no verification.
  if (opts.tap == nullptr && !opts.verify_readback) {
    if (update.program) tile.load(*update.program);
    if (!update.patches.empty()) tile.patch_data(update.patches);
    return payload_ns;
  }

  const Nanoseconds verify_ns =
      opts.verify_readback ? payload_ns * opts.verify_cost_factor : 0.0;
  Nanoseconds occupied = 0.0;
  for (int attempt = 0;; ++attempt) {
    // The tap sees (and may corrupt) a copy of the words in flight; the
    // pristine `update` stays available for verification and re-streaming.
    // The streamed copy is decoded afresh, so a corrupted word reaches the
    // tile as it arrived.
    isa::Program streamed =
        update.program ? update.program->program() : isa::Program{};
    std::vector<isa::DataPatch> patches = update.patches;
    if (opts.tap != nullptr) {
      opts.tap->on_stream(tile_index, attempt, streamed, patches);
    }
    if (update.program) tile.load_program(streamed);
    if (!patches.empty()) tile.patch_data(patches);

    if (attempt == 0) {
      occupied += payload_ns + verify_ns;
      report.verify_ns += verify_ns;
    } else {
      const Nanoseconds backoff =
          opts.retry_backoff_ns *
          std::pow(opts.backoff_factor, static_cast<double>(attempt - 1));
      occupied += backoff + payload_ns + verify_ns;
      report.retry_ns += backoff + payload_ns + verify_ns;
      report.icap_retries += 1;
    }

    if (!opts.verify_readback || readback_matches(tile, update)) break;
    if (attempt >= opts.max_retries) {
      // Retry budget exhausted: latch the corruption on the tile so the
      // schedule runner (and the recovery layer above it) can see it.
      tile.inject_fault(FaultKind::kIcapCorruption, tile_index, fabric.now());
      Fault f;
      f.kind = FaultKind::kIcapCorruption;
      f.tile = tile_index;
      f.cycle = fabric.now();
      report.detected.push_back(f);
      record_recovery(fabric, spans_, tile_index,
                      fabric::RecoveryAction::kGiveUp, attempt);
      break;
    }
    record_recovery(fabric, spans_, tile_index,
                    fabric::RecoveryAction::kIcapRetry, attempt + 1);
  }
  return occupied;
}

TransitionReport ReconfigController::apply(fabric::Fabric& fabric,
                                           const EpochConfig& next) {
  TransitionReport report;
  report.name = next.name;
  report.start_cycle = fabric.now();
  const Nanoseconds start_ns = cycles_to_ns(report.start_cycle);

  // The enclosing transition span is opened with begin() so it precedes the
  // per-tile stream spans in recording order — Chrome/Perfetto nest
  // same-timestamp events by insertion order.
  obs::SpanTimeline::SpanId transition_span = 0;
  if (spans_ != nullptr) {
    transition_span = spans_->begin("reconfig:" + next.name, "reconfig",
                                    obs::kTrackIcap, start_ns);
  }

  // --- link rewiring ---
  report.links_changed =
      interconnect::LinkConfig::changed_links(fabric.links(), next.links);
  report.link_ns = link_cost_.links_ns(report.links_changed);
  fabric.links() = next.links;
  if (spans_ != nullptr && report.links_changed > 0) {
    spans_->complete(
        "rewire:" + next.name, "links", obs::kTrackLinks, start_ns,
        report.link_ns,
        {{"links_changed", std::to_string(report.links_changed), true}});
  }

  // --- serial ICAP streaming, tile by tile ---
  // The link rewiring occupies the ICAP first (it is itself a partial
  // bitstream), then each tile's payload streams in ascending tile order.
  Nanoseconds icap_free_ns = cycles_to_ns(fabric.now()) + report.link_ns;
  for (const auto& [tile_index, update] : next.tiles) {
    const Nanoseconds stream_start_ns = icap_free_ns;
    const Nanoseconds occupied =
        stream_tile(fabric, tile_index, update, report);
    icap_free_ns += occupied;
    if (spans_ != nullptr && occupied > 0.0) {
      spans_->complete(
          "stream:t" + std::to_string(tile_index), "icap", obs::kTrackIcap,
          stream_start_ns, occupied,
          {{"tile", std::to_string(tile_index), true},
           {"inst_words", std::to_string(update.inst_words()), true},
           {"data_words", std::to_string(update.data_words()), true}});
    }

    auto& tile = fabric.tile(tile_index);
    // A tile whose payload failed verification is NOT restarted into the
    // corrupted configuration: restart() would clear the latched fault and
    // run garbage.  It stays faulted for the recovery layer to handle.
    if (update.restart && !tile.faulted()) {
      tile.restart();
    }
    tile.stall_until(ns_to_cycles_ceil(icap_free_ns));
    if (spans_ != nullptr) {
      const Nanoseconds stall_end_ns =
          cycles_to_ns(ns_to_cycles_ceil(icap_free_ns));
      if (stall_end_ns > start_ns) {
        spans_->complete("stall:t" + std::to_string(tile_index), "stall",
                         obs::tile_track(tile_index), start_ns,
                         stall_end_ns - start_ns);
      }
    }
  }

  report.complete_cycle = ns_to_cycles_ceil(icap_free_ns);
  report.icap_busy_cycles = report.complete_cycle - report.start_cycle;
  if (spans_ != nullptr) {
    spans_->end(transition_span, cycles_to_ns(report.complete_cycle));
  }

  if (!partial_) {
    // Single-context baseline: the whole array stalls until the last byte
    // of the transition has streamed in.
    for (int t = 0; t < fabric.tile_count(); ++t) {
      fabric.tile(t).stall_until(report.complete_cycle);
    }
  }
  return report;
}

TransitionReport ReconfigController::scrub_tile(fabric::Fabric& fabric,
                                                const EpochConfig& epoch,
                                                int tile) {
  TransitionReport report;
  report.name = "scrub:" + epoch.name;
  report.start_cycle = fabric.now();
  const auto it = epoch.tiles.find(tile);
  if (it == epoch.tiles.end()) {
    report.complete_cycle = report.start_cycle;
    return report;
  }
  const Nanoseconds occupied =
      stream_tile(fabric, tile, it->second, report);
  const Nanoseconds done_ns = cycles_to_ns(fabric.now()) + occupied;
  auto& t = fabric.tile(tile);
  if (it->second.restart && !t.faulted()) t.restart();
  t.stall_until(ns_to_cycles_ceil(done_ns));
  report.complete_cycle = ns_to_cycles_ceil(done_ns);
  report.icap_busy_cycles = report.complete_cycle - report.start_cycle;
  if (spans_ != nullptr && occupied > 0.0) {
    spans_->complete("scrub:t" + std::to_string(tile), "icap", obs::kTrackIcap,
                     cycles_to_ns(report.start_cycle), occupied,
                     {{"tile", std::to_string(tile), true}});
  }
  return report;
}

std::optional<fabric::RunResult> run_epoch(
    fabric::Fabric& fabric, ReconfigController& ctrl, const EpochConfig& epoch,
    Timeline& timeline, const EpochRunner& runner,
    std::vector<obs::SpanArg> span_args) {
  const TransitionReport report = ctrl.apply(fabric, epoch);
  timeline.reconfig_ns += report.total_ns();
  timeline.transitions.push_back(report);

  const Nanoseconds epoch_start_ns = cycles_to_ns(fabric.now());
  std::optional<fabric::RunResult> run = runner(report);
  if (!run.has_value()) return run;
  timeline.epoch_compute_ns += run->elapsed_ns();
  timeline.epoch_cycles.push_back(run->cycles);
  if (obs::SpanTimeline* spans = ctrl.timeline(); spans != nullptr) {
    span_args.insert(span_args.begin(),
                     {"cycles", std::to_string(run->cycles), true});
    spans->complete(epoch.name, "epoch", obs::kTrackEpochs, epoch_start_ns,
                    run->elapsed_ns(), std::move(span_args));
  }
  return run;
}

fabric::RunResult run_epoch(fabric::Fabric& fabric, ReconfigController& ctrl,
                            const EpochConfig& epoch, std::int64_t max_cycles,
                            Timeline& timeline) {
  return *run_epoch(fabric, ctrl, epoch, timeline,
                    [&](const TransitionReport&) {
                      return std::optional(fabric.run(max_cycles));
                    });
}

ScheduleResult run_schedule(fabric::Fabric& fabric, ReconfigController& ctrl,
                            const std::vector<EpochConfig>& epochs,
                            std::int64_t max_cycles_per_epoch) {
  ScheduleResult result;
  for (const auto& epoch : epochs) {
    const fabric::RunResult run =
        run_epoch(fabric, ctrl, epoch, max_cycles_per_epoch, result.timeline);
    if (!run.faults.empty()) {
      result.faults.insert(result.faults.end(), run.faults.begin(),
                           run.faults.end());
      result.ok = false;
      break;
    }
    if (!run.all_halted) {
      result.ok = false;
      break;
    }
  }
  return result;
}

}  // namespace cgra::config
