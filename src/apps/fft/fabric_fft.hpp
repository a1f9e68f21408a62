// End-to-end N-point FFT executed on the cycle-level fabric.
//
// The orchestrator plays the role of the MicroBlaze runtime management
// system: it prepares epoch configurations (programs, twiddle patches, link
// settings), lets the reconfiguration controller stream them in, and runs
// the fabric between epochs.  The dataflow is the constant-geometry variant
// of the paper's rearranged structure (Fig. 6):
//
//   * Before stage s, tile-row r holds the M elements of its M/2
//     butterflies: 'a' operands in slots [0, M/2), 'b' operands in slots
//     [M/2, M) — so every butterfly is tile-local and the same bf_pair
//     kernel (pinned after the first epoch) serves every stage.
//   * Between stages the elements are redistributed to restore the
//     invariant.  Moves travel over the near-neighbour vertical links as
//     hop sub-epochs (the vcp role, Fig. 9); each in-flight element rides
//     in the transit region P at its destination slot, and a final apply
//     epoch commits P into X.
//   * Twiddle tables are patched per stage through the ICAP (charged at
//     33.33 ns/word); the TwiddleManager quantifies how much of that an
//     optimised schedule avoids.
//
// None of that planning depends on the input, so it is split from the run:
//
//   * compile_plan(g, cols) does all of it once — the redistribution move
//     planning, every epoch's links and tile updates (twiddle patches
//     attached; each distinct program assembled and predecoded once into
//     an isa::Image that every update streaming it shares), the input
//     scatter map and the readback map — and returns an immutable
//     FabricFftPlan;
//   * run_fabric_fft replays a plan: it writes the job's input-scramble
//     patches, then streams every plan epoch through the reconfiguration
//     controller and runs the fabric after each, exactly as the MicroBlaze
//     streams partial bitstreams prepared offline.
//
// A plan depends only on (n, m, cols); the link cost and ICAP fault knobs
// reach the controller at replay.  The job service caches one plan per
// geometry and replays it for every job.
//
// Output is compared against the double-precision reference in the tests;
// inputs are pre-scaled by 1/N so the Q3.20 samples cannot overflow.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "apps/fft/partition.hpp"
#include "apps/fft/reference.hpp"
#include "common/status.hpp"
#include "common/timing.hpp"
#include "config/reconfig.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/span.hpp"

namespace cgra::fft {

/// Pre-computed per-(stage, row) twiddle patch sets for one geometry.
/// Content depends only on (n, m), so a warm runtime (the job service)
/// builds the table once per geometry and shares it across runs instead of
/// re-deriving every factor per request.
struct TwiddleTable {
  int rows = 0;
  std::vector<std::vector<isa::DataPatch>> patches;  ///< [stage*rows + row].

  [[nodiscard]] const std::vector<isa::DataPatch>& at(int stage,
                                                      int row) const {
    return patches.at(static_cast<std::size_t>(stage * rows + row));
  }
};

/// Build the full twiddle table for `g` (stage-major, Fig. 6/8 layout).
TwiddleTable twiddle_patch_table(const FftGeometry& g);

/// A data word's home: tile index and data-memory address.
struct WordSlot {
  int tile = 0;
  int addr = 0;
};

/// One compiled epoch: the configuration streamed in before the fabric
/// runs, and whether it is a redistribution sub-epoch (hop or apply).
struct PlanEpoch {
  config::EpochConfig config;
  bool redistribution = false;
};

/// Everything an FFT run does that does not depend on the input, for one
/// (n, m, cols).  Immutable once compiled; safe to share between threads.
/// Updates that reload the same program point at one shared isa::Image
/// (N=1024, M=128: 19-24 images for 256-312 reloads), so replaying the
/// plan copies decoded programs into the tiles and decodes nothing.
/// (fft::FftPlan is the unrelated host reference transform's plan.)
struct FabricFftPlan {
  Status status = Status::error("FFT plan was not compiled");
  FftGeometry geometry;
  int cols = 1;
  /// Element e of the input lands at scatter[e] (the input-scramble epoch).
  std::vector<WordSlot> scatter;
  /// The epochs after the input scramble, in order: butterfly stages and
  /// the redistribution hop/apply sub-epochs between them.
  std::vector<PlanEpoch> epochs;
  /// Natural-order output k is read from readback[k] after the last epoch.
  std::vector<WordSlot> readback;
  std::int64_t redistribution_subepochs = 0;

  [[nodiscard]] bool ok() const noexcept { return status.ok(); }
};

/// Compile the plan for `g` on `cols` tile columns.  `assemble` overrides
/// must_assemble (called once per distinct program source) and `twiddles`
/// (matching g) replaces per-stage twiddle derivation; both only save
/// work, the plan is the same either way.
FabricFftPlan compile_plan(
    const FftGeometry& g, int cols,
    const std::function<isa::Program(const std::string&)>& assemble = {},
    const TwiddleTable* twiddles = nullptr);

/// Options for a fabric FFT run.
struct FabricFftOptions {
  Nanoseconds link_cost_ns = 100.0;   ///< Per-link reconfiguration cost L.
  std::int64_t max_cycles_per_epoch = 1'000'000;
  /// Columns of tiles (the paper's design parameter): column c executes
  /// stage slots [c*S/cols, (c+1)*S/cols).  Must divide log2(N).  With
  /// cols > 1 the inter-column transfers exercise the horizontal links and
  /// hcp copies of Sec. 3.1 for real.
  int cols = 1;
  /// ICAP fault-path knobs (docs/FAULTS.md): a tap to corrupt streams in
  /// flight, readback verification, and the retry bound.  Default-off: the
  /// zero-fault run streams exactly as the paper models it.
  config::IcapFaultOptions icap_faults{};
  /// Partial reconfiguration (the paper's reMORPH): tiles a transition
  /// does not touch keep running.  false runs the single-context baseline
  /// instead, which stalls the whole array for every transition — the
  /// mode paper_report's overlap ablation executes.
  bool partial_reconfiguration = true;

  // --- observability (docs/OBSERVABILITY.md); all default-off ---
  /// Span timeline for epoch / ICAP / stall tracks (not owned).
  obs::SpanTimeline* spans = nullptr;
  /// Metrics registry attached to the fabric hot loop (not owned).
  obs::MetricsRegistry* metrics = nullptr;
  /// Fill FabricFftResult::profile from the executed run.
  bool collect_profile = false;

  // --- warm-runtime hooks (src/service); all default-off.  With none set
  // the run compiles its own plan and constructs a fresh fabric. ---
  /// Compiled plan to replay (not owned); must match (g, cols).  When
  /// null the run compiles one, using `assemble` and `twiddles`.
  const FabricFftPlan* plan = nullptr;
  /// Borrowed fabric to run on instead of constructing one.  Must be a
  /// rows x cols mesh in construction state (fresh or Fabric::reset());
  /// the run leaves it dirty — the caller resets before reuse.
  fabric::Fabric* fabric = nullptr;
  /// Assembler override for the plan compile; defaults to must_assemble.
  /// Unused when `plan` is set.
  std::function<isa::Program(const std::string&)> assemble;
  /// Pre-computed twiddle patches for the plan compile (not owned); must
  /// match (g, m) when set.  Unused when `plan` is set.
  const TwiddleTable* twiddles = nullptr;
};

/// Result of a fabric FFT run.
struct FabricFftResult {
  std::vector<Cplx> output;        ///< Natural order, scaled by 1/N.
  config::Timeline timeline;       ///< Equation-1 accounting.
  Status status = Status::error("fabric FFT did not run");
  std::vector<Fault> faults;

  [[nodiscard]] bool ok() const noexcept { return status.ok(); }
  int epochs = 0;                  ///< Epoch configurations applied.
  std::int64_t redistribution_subepochs = 0;
  /// Per-tile / link / ICAP profile (FabricFftOptions::collect_profile);
  /// filled even when the run ends early on a fault.
  obs::ProfileReport profile;
};

/// Where logical element `e` lives under the stage-`s` arrangement.
struct ElementPos {
  int row = 0;
  int slot = 0;
  friend bool operator==(const ElementPos&, const ElementPos&) = default;
};
ElementPos element_position(const FftGeometry& g, int stage, int e);

/// Run the FFT of `input` (size g.n) on a rows x opt.cols fabric: replay
/// opt.plan, or a plan compiled for this call.
FabricFftResult run_fabric_fft(const FftGeometry& g,
                               const std::vector<Cplx>& input,
                               const FabricFftOptions& opt = {});

/// Cycle counts of the standalone kernels (Table 1's runtime column):
/// the stage-s butterfly process executed on one tile.
std::int64_t measure_bf_cycles(const FftGeometry& g, int stage);
/// The vcp / hcp copy processes for `words` words.
std::int64_t measure_copy_cycles(int m, int words);

}  // namespace cgra::fft
