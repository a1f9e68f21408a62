// Microbenchmarks of the simulator itself: tile step rate, assembler
// throughput, end-to-end fabric FFT simulation speed, JPEG block pipeline,
// and the wire codec's per-frame cost.
// These quantify the cost of the methodology (how many simulated cycles
// per host second) rather than any paper result.
#include <benchmark/benchmark.h>

#include <chrono>
#include <vector>

#include "apps/fft/fabric_fft.hpp"
#include "apps/fft/programs.hpp"
#include "apps/jpeg/fabric_jpeg.hpp"
#include "apps/jpeg/tables.hpp"
#include "bench_json_reporter.hpp"
#include "common/prng.hpp"
#include "engine/engine.hpp"
#include "fabric/fabric.hpp"
#include "isa/assembler.hpp"
#include "net/protocol.hpp"
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

// The observability overhead check: the 64-tile hot loop above with the
// metrics registry detached and attached.  Every iteration times one run
// of each on the same fabric, so host drift lands on both sides alike.
// `attached_over_detached` is the attached time over the detached time,
// summed over all iterations (1.05 = 5% overhead).
void BM_FabricStepMetricsRatio(benchmark::State& state) {
  using namespace cgra;
  using Clock = std::chrono::steady_clock;
  const auto lay = fft::make_layout(128);
  fabric::Fabric fab(8, 8);
  const auto prog = fft::must_assemble(fft::bf_pair_source(lay));
  for (int t = 0; t < fab.tile_count(); ++t) {
    fab.tile(t).load_program(prog);
  }
  obs::MetricsRegistry metrics;
  Clock::duration elapsed[2] = {};  // [0] detached, [1] attached
  for (auto _ : state) {
    for (const int attached : {0, 1}) {
      fab.attach_metrics(attached != 0 ? &metrics : nullptr);
      for (int t = 0; t < fab.tile_count(); ++t) fab.tile(t).restart();
      const auto start = Clock::now();
      const auto run = fab.run(1'000'000);
      elapsed[attached] += Clock::now() - start;
      benchmark::DoNotOptimize(run.cycles);
    }
  }
  if (elapsed[0].count() > 0) {
    state.counters["attached_over_detached"] =
        std::chrono::duration<double>(elapsed[1]).count() /
        std::chrono::duration<double>(elapsed[0]).count();
  }
}
BENCHMARK(BM_FabricStepMetricsRatio);

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

// The wire codec per frame, one encode and one decode per iteration: the
// jpeg-block-wire request (a plain block, no fault plan) and the fft-wire
// reply (1024 complex points).  A slower primitive writer or reader shows
// here at full size, where the serving benchmarks dilute it.
void BM_WireCodecJpegBlock(benchmark::State& state) {
  using namespace cgra;
  service::JpegBlockRequest block;
  SplitMix64 rng(9);
  for (auto& v : block.raw) v = static_cast<int>(rng.next_below(256)) - 128;
  block.quant = jpeg::scaled_quant(50);
  const service::JobRequest job{block};
  std::vector<std::uint8_t> bytes;
  net::Frame frame;
  net::Request decoded;
  for (auto _ : state) {
    if (!net::encode_job_request(1, job, &bytes).ok() ||
        !net::decode_header(bytes, &frame.header).ok()) {
      state.SkipWithError("encode failed");
      break;
    }
    frame.payload.assign(bytes.begin() + net::kHeaderSize, bytes.end());
    if (!net::decode_request(frame, &decoded).ok()) {
      state.SkipWithError("decode failed");
      break;
    }
    benchmark::DoNotOptimize(decoded.job);
  }
}
BENCHMARK(BM_WireCodecJpegBlock);

void BM_WireCodecFftResult(benchmark::State& state) {
  using namespace cgra;
  service::FftJobResult payload;
  SplitMix64 rng(7);
  payload.output.resize(1024);
  for (auto& v : payload.output) {
    v = {rng.next_double(-1, 1), rng.next_double(-1, 1)};
  }
  payload.epochs = 20;
  service::JobResult result;
  result.status = Status();
  result.payload = std::move(payload);
  net::Request request;
  request.type = net::MsgType::kFft;
  request.request_id = 1;
  std::vector<std::uint8_t> bytes;
  net::Frame frame;
  net::Response decoded;
  for (auto _ : state) {
    if (!net::encode_job_result(request, result, &bytes).ok() ||
        !net::decode_header(bytes, &frame.header).ok()) {
      state.SkipWithError("encode failed");
      break;
    }
    frame.payload.assign(bytes.begin() + net::kHeaderSize, bytes.end());
    if (!net::decode_response(frame, &decoded).ok() ||
        decoded.type != net::MsgType::kFftResult) {
      state.SkipWithError("decode failed");
      break;
    }
    benchmark::DoNotOptimize(decoded.result);
  }
}
BENCHMARK(BM_WireCodecFftResult);

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
