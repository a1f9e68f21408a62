// Microbenchmarks of the simulator itself: tile step rate, assembler
// throughput, end-to-end fabric FFT simulation speed, JPEG block pipeline.
// These quantify the cost of the methodology (how many simulated cycles
// per host second) rather than any paper result.
#include <benchmark/benchmark.h>

#include <vector>

#include "apps/fft/fabric_fft.hpp"
#include "apps/fft/programs.hpp"
#include "apps/jpeg/fabric_jpeg.hpp"
#include "bench_json_reporter.hpp"
#include "common/prng.hpp"
#include "engine/engine.hpp"
#include "fabric/fabric.hpp"
#include "isa/assembler.hpp"
#include "obs/metrics.hpp"

namespace {

void BM_TileStepRate(benchmark::State& state) {
  using namespace cgra;
  const auto lay = fft::make_layout(128);
  fabric::Fabric fab(1, 1);
  fab.tile(0).load_program(fft::must_assemble(fft::bf_pair_source(lay)));
  std::int64_t cycles = 0;
  for (auto _ : state) {
    fab.tile(0).restart();
    const auto run = fab.run(1'000'000);
    cycles += run.cycles;
  }
  state.counters["sim_cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TileStepRate);

void BM_FabricStepRate64Tiles(benchmark::State& state) {
  using namespace cgra;
  const auto lay = fft::make_layout(128);
  fabric::Fabric fab(8, 8);
  const auto prog = fft::must_assemble(fft::bf_pair_source(lay));
  for (int t = 0; t < fab.tile_count(); ++t) {
    fab.tile(t).load_program(prog);
  }
  std::int64_t tile_cycles = 0;
  for (auto _ : state) {
    for (int t = 0; t < fab.tile_count(); ++t) fab.tile(t).restart();
    const auto run = fab.run(1'000'000);
    tile_cycles += run.cycles * fab.tile_count();
  }
  state.counters["tile_cycles/s"] = benchmark::Counter(
      static_cast<double>(tile_cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FabricStepRate64Tiles);

// The observability overhead check: the same 64-tile hot loop with the
// metrics registry attached (arg 1) vs detached (arg 0).  The attached
// variant must stay within ~5% of the detached one.
void BM_FabricStepRateMetrics(benchmark::State& state) {
  using namespace cgra;
  const bool attached = state.range(0) != 0;
  const auto lay = fft::make_layout(128);
  fabric::Fabric fab(8, 8);
  const auto prog = fft::must_assemble(fft::bf_pair_source(lay));
  for (int t = 0; t < fab.tile_count(); ++t) {
    fab.tile(t).load_program(prog);
  }
  obs::MetricsRegistry metrics;
  if (attached) fab.attach_metrics(&metrics);
  std::int64_t tile_cycles = 0;
  for (auto _ : state) {
    for (int t = 0; t < fab.tile_count(); ++t) fab.tile(t).restart();
    const auto run = fab.run(1'000'000);
    tile_cycles += run.cycles * fab.tile_count();
  }
  state.counters["tile_cycles/s"] = benchmark::Counter(
      static_cast<double>(tile_cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FabricStepRateMetrics)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("metrics");

// The same dense mesh with the threaded superinstruction engine pinned
// (independent of --engine), so a single run carries the interpreter /
// threaded side-by-side for the per-block specialization win.
void BM_FabricStepRate64TilesThreaded(benchmark::State& state) {
  using namespace cgra;
  const auto lay = fft::make_layout(128);
  fabric::Fabric fab(8, 8);
  const auto prog = fft::must_assemble(fft::bf_pair_source(lay));
  for (int t = 0; t < fab.tile_count(); ++t) {
    fab.tile(t).load_program(prog);
  }
  fab.adopt_engine(engine::make_engine(engine::EngineKind::kThreaded));
  std::int64_t tile_cycles = 0;
  for (auto _ : state) {
    for (int t = 0; t < fab.tile_count(); ++t) fab.tile(t).restart();
    const auto run = fab.run(1'000'000);
    tile_cycles += run.cycles * fab.tile_count();
  }
  state.counters["tile_cycles/s"] = benchmark::Counter(
      static_cast<double>(tile_cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FabricStepRate64TilesThreaded);

/// A self-contained countdown loop of ~2*n + 3 cycles.
std::string countdown_source(int n) {
  return "  movi 0, #" + std::to_string(n) +
         "\nloop:\n  sub 0, 0, #1\n  bnez 0, loop\n  halt\n";
}

// The dense 64-tile mesh running a long countdown (~100k cycles per run)
// instead of the 581-cycle butterfly: steady-state stepping throughput,
// with restart and halt costs amortized away.
void BM_FabricDenseLoop64Tiles(benchmark::State& state) {
  using namespace cgra;
  fabric::Fabric fab(8, 8);
  auto r = isa::assemble(countdown_source(50'000));
  if (!r.ok()) {
    state.SkipWithError("assembly failed");
    return;
  }
  for (int t = 0; t < fab.tile_count(); ++t) {
    fab.tile(t).load_program(r.program);
  }
  std::int64_t tile_cycles = 0;
  for (auto _ : state) {
    for (int t = 0; t < fab.tile_count(); ++t) fab.tile(t).restart();
    const auto run = fab.run(1'000'000);
    tile_cycles += run.cycles * fab.tile_count();
  }
  state.counters["tile_cycles/s"] = benchmark::Counter(
      static_cast<double>(tile_cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FabricDenseLoop64Tiles);

// --- engine scenario benches -----------------------------------------------
// Three scenarios isolate the two fast-path mechanisms: the active-tile
// scheduler (halted-heavy, stalled-heavy) and the predecoded dispatch
// (branch-heavy).  The dense all-tiles-active case is BM_FabricStepRate64Tiles
// above.  Each emits its own sim_cycles/s counter into
// BENCH_simulator_micro.json.

// 64-tile fabric, one tile running, 63 halted: the per-cycle cost of the
// halted majority is what the active list eliminates.
void BM_FabricHaltedHeavy(benchmark::State& state) {
  using namespace cgra;
  fabric::Fabric fab(8, 8);
  auto r = isa::assemble(countdown_source(50'000));
  if (!r.ok()) {
    state.SkipWithError("assembly failed");
    return;
  }
  fab.tile(0).load_program(r.program);
  std::int64_t cycles = 0;
  for (auto _ : state) {
    fab.tile(0).restart();
    const auto run = fab.run(1'000'000);
    cycles += run.cycles;
  }
  state.counters["sim_cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FabricHaltedHeavy);

// 64-tile fabric, every tile stalled for a long reconfiguration window:
// the wake queue lets run() fast-forward instead of walking all tiles
// through every stalled cycle.
void BM_FabricStalledHeavy(benchmark::State& state) {
  using namespace cgra;
  fabric::Fabric fab(8, 8);
  auto r = isa::assemble(countdown_source(4));
  if (!r.ok()) {
    state.SkipWithError("assembly failed");
    return;
  }
  for (int t = 0; t < fab.tile_count(); ++t) {
    fab.tile(t).load_program(r.program);
  }
  std::int64_t cycles = 0;
  for (auto _ : state) {
    for (int t = 0; t < fab.tile_count(); ++t) {
      fab.tile(t).restart();
      fab.tile(t).stall_until(fab.now() + 100'000);
    }
    const auto run = fab.run(1'000'000);
    cycles += run.cycles;
  }
  state.counters["sim_cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FabricStalledHeavy);

// Single tile in a tight branchy loop (sub/bnez/jmp): isolates instruction
// dispatch, which predecoding turns from flag/bit tests into plain loads.
void BM_TileBranchHeavy(benchmark::State& state) {
  using namespace cgra;
  fabric::Fabric fab(1, 1);
  auto r = isa::assemble(
      "  movi 0, #25000\n"
      "outer:\n"
      "  sub 0, 0, #1\n"
      "  beqz 0, done\n"
      "  jmp outer\n"
      "done:\n  halt\n");
  if (!r.ok()) {
    state.SkipWithError("assembly failed");
    return;
  }
  fab.tile(0).load_program(r.program);
  std::int64_t cycles = 0;
  for (auto _ : state) {
    fab.tile(0).restart();
    const auto run = fab.run(1'000'000);
    cycles += run.cycles;
  }
  state.counters["sim_cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TileBranchHeavy);

void BM_Assembler(benchmark::State& state) {
  using namespace cgra;
  const auto lay = fft::make_layout(128);
  const std::string src = fft::bf_local_source(lay, 16);
  for (auto _ : state) {
    auto result = isa::assemble(src);
    benchmark::DoNotOptimize(result.program.code.data());
  }
}
BENCHMARK(BM_Assembler);

void BM_FabricFftEndToEnd(benchmark::State& state) {
  using namespace cgra;
  const int n = static_cast<int>(state.range(0));
  const auto g = fft::make_geometry(n, std::min(n, 16));
  SplitMix64 rng(7);
  std::vector<fft::Cplx> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = {rng.next_double(-1, 1), rng.next_double(-1, 1)};
  for (auto _ : state) {
    auto result = fft::run_fabric_fft(g, x);
    if (!result.ok()) state.SkipWithError("fabric FFT failed");
    benchmark::DoNotOptimize(result.output.data());
  }
}
BENCHMARK(BM_FabricFftEndToEnd)->Arg(16)->Arg(64)->Arg(128);

// The job service's per-job FFT shape: a plan compiled once, replayed on a
// borrowed fabric reset before every job (N=1024, M=128; arg = columns).
void BM_FftPlanReplay(benchmark::State& state) {
  using namespace cgra;
  const int cols = static_cast<int>(state.range(0));
  const auto g = fft::make_geometry(1024, 128);
  const fft::FabricFftPlan plan = fft::compile_plan(g, cols);
  if (!plan.ok()) {
    state.SkipWithError("plan compile failed");
    return;
  }
  SplitMix64 rng(7);
  std::vector<fft::Cplx> x(static_cast<std::size_t>(g.n));
  for (auto& v : x) v = {rng.next_double(-1, 1), rng.next_double(-1, 1)};
  fabric::Fabric fab(g.rows, cols);
  fft::FabricFftOptions opt;
  opt.cols = cols;
  opt.plan = &plan;
  opt.fabric = &fab;
  for (auto _ : state) {
    fab.reset();
    auto result = fft::run_fabric_fft(g, x, opt);
    if (!result.ok()) state.SkipWithError("fabric FFT failed");
    benchmark::DoNotOptimize(result.output.data());
  }
}
BENCHMARK(BM_FftPlanReplay)->Arg(1)->Arg(10)->Unit(benchmark::kMicrosecond);

void BM_JpegBlockOnFabric(benchmark::State& state) {
  using namespace cgra;
  const auto quant = jpeg::scaled_quant(50);
  jpeg::IntBlock raw{};
  SplitMix64 rng(9);
  for (auto& v : raw) v = static_cast<int>(rng.next_below(256));
  for (auto _ : state) {
    auto result = jpeg::encode_block_on_fabric(raw, quant);
    if (!result.ok()) state.SkipWithError("fabric block failed");
    benchmark::DoNotOptimize(result.zigzagged.data());
  }
}
BENCHMARK(BM_JpegBlockOnFabric);

}  // namespace

int main(int argc, char** argv) {
  return cgra::benchjson::run_and_report(argc, argv, "simulator_micro");
}
