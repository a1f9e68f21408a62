// Streaming pipeline tests: overlapped JPEG block pipeline and the
// partial-vs-full reconfiguration ablation.
#include <gtest/gtest.h>

#include "apps/jpeg/fabric_jpeg.hpp"
#include "apps/jpeg/process_table.hpp"
#include "common/prng.hpp"
#include "config/reconfig.hpp"
#include "isa/assembler.hpp"

namespace cgra {
namespace {

std::vector<jpeg::IntBlock> random_blocks(int n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<jpeg::IntBlock> out(static_cast<std::size_t>(n));
  for (auto& b : out) {
    for (auto& v : b) v = static_cast<int>(rng.next_below(256));
  }
  return out;
}

TEST(JpegStream, OutputsMatchHostForEveryBlock) {
  const auto blocks = random_blocks(8, 0x1234);
  const auto quant = jpeg::scaled_quant(50);
  const auto result = jpeg::encode_blocks_on_fabric_stream(blocks, quant);
  ASSERT_TRUE(result.ok()) << result.faults.size() << " faults";
  ASSERT_EQ(result.zigzagged.size(), blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(result.zigzagged[i],
              jpeg::encode_block_stages(blocks[i], quant))
        << "block " << i;
  }
}

TEST(JpegStream, SteadyBeatIsBoundedByHeaviestStage) {
  const auto blocks = random_blocks(12, 0x77);
  const auto quant = jpeg::scaled_quant(50);
  const auto result = jpeg::encode_blocks_on_fabric_stream(blocks, quant);
  ASSERT_TRUE(result.ok());
  const auto kernels = jpeg::measure_jpeg_kernels();
  // Each beat runs prologue (64 moves) + the heaviest stage (DCT) + its
  // 64-word send loop; the steady beat must be within ~15% of that.
  const std::int64_t expect = 64 + kernels.dct + 5 * 64 + 4;
  EXPECT_GT(result.steady_ii_cycles, kernels.dct);
  EXPECT_LT(static_cast<double>(result.steady_ii_cycles),
            1.15 * static_cast<double>(expect));
}

TEST(JpegStream, OverlapBeatsSequentialExecution) {
  // Pipelining K blocks must be much faster than K sequential single-block
  // runs: total beats ~ K + 3, each ~ one DCT, versus K x (sum of stages).
  // Both sides pay for their configuration: the stream one setup epoch,
  // each sequential run the setup of its own fresh fabric.
  const int k = 6;
  const auto blocks = random_blocks(k, 0x99);
  const auto quant = jpeg::scaled_quant(50);
  const auto stream = jpeg::encode_blocks_on_fabric_stream(blocks, quant);
  ASSERT_TRUE(stream.ok());
  EXPECT_GT(stream.setup_reconfig_ns, 0.0);
  std::int64_t stream_total = ns_to_cycles_ceil(stream.setup_reconfig_ns);
  for (const auto c : stream.beat_cycles) stream_total += c;

  std::int64_t sequential_total = 0;
  for (const auto& b : blocks) {
    const auto one = jpeg::encode_block_on_fabric(b, quant);
    ASSERT_TRUE(one.ok());
    sequential_total += ns_to_cycles_ceil(one.reconfig_ns) + one.total_cycles;
  }
  EXPECT_LT(static_cast<double>(stream_total),
            0.8 * static_cast<double>(sequential_total));
}

TEST(JpegStream, SingleBlockDegeneratesGracefully) {
  const auto blocks = random_blocks(1, 0x5);
  const auto quant = jpeg::scaled_quant(75);
  const auto result = jpeg::encode_blocks_on_fabric_stream(blocks, quant);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.zigzagged.size(), 1u);
  EXPECT_EQ(result.zigzagged[0],
            jpeg::encode_block_stages(blocks[0], quant));
}

// ---- partial vs full reconfiguration (the paper's core premise) ----

isa::Program prog(const std::string& src) {
  auto r = isa::assemble(src);
  EXPECT_TRUE(r.ok()) << r.status.message();
  return r.program;
}

TEST(PartialReconfig, FullStallDelaysUntouchedTiles) {
  // A long-running tile 0 plus a reconfiguration of tile 1: under partial
  // reconfiguration tile 0 hides the reload entirely; under full (single-
  // context) reconfiguration the whole run stretches by the reload time.
  auto run_variant = [&](bool partial) {
    fabric::Fabric fab(1, 2);
    fab.tile(0).load_program(prog(
        "  movi 0, #2000\nl:\n  sub 0, 0, #1\n  bnez 0, l\n  halt\n"));
    fab.tile(0).restart();
    config::ReconfigController ctrl(IcapModel{},
                                    interconnect::LinkCostModel{0.0},
                                    partial);
    config::EpochConfig e;
    e.links = interconnect::LinkConfig(1, 2);
    config::TileUpdate u;
    // A big payload: 400 instructions = 20 us = 8000 cycles.
    isa::Program big;
    big.code.resize(399);
    big.code.push_back(
        isa::Instruction{isa::Opcode::kHalt, 0, 0, 0, 0, 0});
    u.program = isa::prepare(big);
    e.tiles[1] = std::move(u);
    ctrl.apply(fab, e);
    return fab.run(1'000'000);
  };
  const auto partial = run_variant(true);
  const auto full = run_variant(false);
  ASSERT_TRUE(partial.ok());
  ASSERT_TRUE(full.ok());
  // Partial: ~max(4003 compute, 8000 stall) ~ 8000.
  // Full: 8000 stall + 4003 compute ~ 12000.
  EXPECT_GT(full.cycles, partial.cycles + 3000);
}

TEST(PartialReconfig, DefaultControllerIsPartial) {
  config::ReconfigController ctrl(IcapModel{},
                                  interconnect::LinkCostModel{0.0});
  EXPECT_TRUE(ctrl.partial());
}

}  // namespace
}  // namespace cgra
