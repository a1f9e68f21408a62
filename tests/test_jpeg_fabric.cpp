// Fabric JPEG kernel tests: bit-exact agreement with the host reference.
#include <gtest/gtest.h>

#include "apps/fft/programs.hpp"
#include "apps/jpeg/fabric_jpeg.hpp"
#include "common/prng.hpp"
#include "fabric/fabric.hpp"

namespace cgra::jpeg {
namespace {

IntBlock random_pixels(std::uint64_t seed) {
  SplitMix64 rng(seed);
  IntBlock b{};
  for (auto& v : b) v = static_cast<int>(rng.next_below(256));
  return b;
}

/// Load a kernel, preset X, run, return the tile.
fabric::Fabric run_kernel(const std::string& src, const IntBlock& x,
                          const std::vector<isa::DataPatch>& extra = {}) {
  fabric::Fabric fab(1, 1);
  auto& tile = fab.tile(0);
  EXPECT_TRUE(tile.load_program(fft::must_assemble(src)));
  const JpegLayout lay;
  for (int i = 0; i < 64; ++i) {
    tile.set_dmem(lay.x + i, from_signed(x[static_cast<std::size_t>(i)]));
  }
  EXPECT_TRUE(tile.patch_data(extra));
  tile.restart();
  const auto run = fab.run(10'000'000);
  EXPECT_TRUE(run.ok());
  return fab;
}

IntBlock read_block(const fabric::Fabric& fab, int base) {
  IntBlock out{};
  for (int i = 0; i < 64; ++i) {
    out[static_cast<std::size_t>(i)] =
        static_cast<int>(to_signed(fab.tile(0).dmem(base + i)));
  }
  return out;
}

TEST(JpegFabric, ShiftKernelMatchesReference) {
  const JpegLayout lay;
  const auto px = random_pixels(1);
  const auto fab = run_kernel(shift_source(lay), px);
  EXPECT_EQ(read_block(fab, lay.x), level_shift(px));
}

TEST(JpegFabric, DctKernelMatchesFixedReference) {
  const JpegLayout lay;
  const auto shifted = level_shift(random_pixels(2));
  std::vector<isa::DataPatch> basis;
  for (int i = 0; i < 64; ++i) {
    basis.push_back({lay.c + i,
                     from_signed(dct_basis_q12()[static_cast<std::size_t>(i)])});
  }
  const auto fab = run_kernel(dct_source(lay), shifted, basis);
  EXPECT_EQ(read_block(fab, lay.x), fdct_fixed(shifted));
}

TEST(JpegFabric, QuantizeKernelMatchesReference) {
  const JpegLayout lay;
  const auto coeffs = fdct_fixed(level_shift(random_pixels(3)));
  const auto quant = scaled_quant(50);
  std::vector<isa::DataPatch> recips;
  for (int i = 0; i < 64; ++i) {
    recips.push_back({lay.r + i,
                      from_signed(quant_reciprocal(quant[static_cast<std::size_t>(i)]))});
  }
  const auto fab = run_kernel(quantize_source(lay), coeffs, recips);
  EXPECT_EQ(read_block(fab, lay.x), quantize(coeffs, quant));
}

TEST(JpegFabric, ZigzagKernelMatchesReference) {
  const JpegLayout lay;
  IntBlock b{};
  for (int i = 0; i < 64; ++i) b[static_cast<std::size_t>(i)] = i * 7 - 100;
  const auto fab = run_kernel(zigzag_source(lay), b);
  EXPECT_EQ(read_block(fab, lay.t), zigzag_scan(b));
}

TEST(JpegFabric, ZigzagFootprintIs65Words) {
  // Table 3 lists the zigzag process at 65 instruction words; the
  // straight-line gather hits that exactly.
  const JpegLayout lay;
  EXPECT_EQ(fft::must_assemble(zigzag_source(lay)).inst_words(), 65);
}

TEST(JpegFabric, KernelCyclesAreMeasurable) {
  const auto cycles = measure_jpeg_kernels();
  EXPECT_GT(cycles.shift, 0);
  EXPECT_GT(cycles.dct, 0);
  EXPECT_GT(cycles.quantize, 0);
  EXPECT_EQ(cycles.zigzag, 65);
  // DCT dominates, as in the paper (Table 3's 133k cycles vs ~1k others).
  EXPECT_GT(cycles.dct, 10 * cycles.quantize);
  EXPECT_GT(cycles.dct, 10 * cycles.shift);
}

class FabricBlockPipeline : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FabricBlockPipeline, MatchesHostStagesBitExactly) {
  const auto raw = random_pixels(GetParam());
  const auto quant = scaled_quant(50);
  const auto result = encode_block_on_fabric(raw, quant);
  ASSERT_TRUE(result.ok()) << result.faults.size() << " faults";
  EXPECT_EQ(result.zigzagged, encode_block_stages(raw, quant));
  EXPECT_GT(result.total_cycles, 0);
  EXPECT_GT(result.reconfig_ns, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FabricBlockPipeline,
                         ::testing::Values(10u, 20u, 30u, 40u));

TEST(JpegFabric, BlockCyclesDoNotDependOnBatchPosition) {
  // The setup epoch's ICAP stall belongs to the setup: a fresh pipeline's
  // first block costs the same cycles as every later one.
  const auto quant = scaled_quant(50);
  const auto art = make_pipeline_artifacts(quant);
  fabric::Fabric fab(1, 4);
  BlockPipeline pipe(fab, art);
  ASSERT_TRUE(pipe.setup_status().ok());
  const auto first = pipe.encode(random_pixels(1));
  const auto second = pipe.encode(random_pixels(2));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.total_cycles, second.total_cycles);
  EXPECT_EQ(first.reconfig_ns, 0.0);
  EXPECT_EQ(encode_block_on_fabric(random_pixels(3), quant).total_cycles,
            first.total_cycles);
}

// ---- Huffman entropy coding on the fabric ----

namespace {

/// Host golden model: the exact bit string (MSB first, pre-stuffing) of one
/// block, using the same tables as the fabric program.
std::vector<std::uint8_t> host_entropy_bits(const IntBlock& zz, int prev_dc) {
  const HuffEncoder dc = build_encoder(dc_luminance_spec());
  const HuffEncoder ac = build_encoder(ac_luminance_spec());
  std::vector<std::uint8_t> bits;
  auto put = [&](std::uint32_t value, int n) {
    for (int b = n - 1; b >= 0; --b) {
      bits.push_back(static_cast<std::uint8_t>((value >> b) & 1));
    }
  };
  auto put_amp = [&](int v, int cat) {
    if (cat == 0) return;
    const std::uint32_t amp =
        v >= 0 ? static_cast<std::uint32_t>(v)
               : static_cast<std::uint32_t>(v + (1 << cat) - 1);
    put(amp, cat);
  };
  const int diff = zz[0] - prev_dc;
  const int dc_cat = bit_category(diff);
  put(dc.code[static_cast<std::size_t>(dc_cat)],
      dc.length[static_cast<std::size_t>(dc_cat)]);
  put_amp(diff, dc_cat);
  int run = 0;
  for (std::size_t i = 1; i < 64; ++i) {
    const int v = zz[i];
    if (v == 0) {
      ++run;
      continue;
    }
    while (run >= 16) {
      put(ac.code[0xF0], ac.length[0xF0]);
      run -= 16;
    }
    const int cat = bit_category(v);
    const auto sym = static_cast<std::size_t>((run << 4) | cat);
    put(ac.code[sym], ac.length[sym]);
    put_amp(v, cat);
    run = 0;
  }
  if (run > 0) put(ac.code[0x00], ac.length[0x00]);
  return bits;
}

}  // namespace

TEST(HmanFabric, ProgramFitsTheTile) {
  const HmanLayout lay;
  const auto prog = fft::must_assemble(hman_source(lay));
  EXPECT_LE(prog.inst_words(), kInstMemWords);
}

TEST(HmanFabric, DcOnlyBlock) {
  IntBlock zz{};
  zz[0] = 10;
  const auto result = encode_entropy_on_fabric(zz, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.bits, host_entropy_bits(zz, 0));
}

TEST(HmanFabric, NegativeDcDelta) {
  IntBlock zz{};
  zz[0] = -37;
  const auto result = encode_entropy_on_fabric(zz, 12);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.bits, host_entropy_bits(zz, 12));
}

TEST(HmanFabric, ZrlRunsOfZeros) {
  IntBlock zz{};
  zz[0] = 5;
  zz[40] = -3;  // 39 leading zeros -> two ZRLs + run 7
  const auto result = encode_entropy_on_fabric(zz, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.bits, host_entropy_bits(zz, 0));
}

TEST(HmanFabric, DenseBlockNoEob) {
  IntBlock zz{};
  for (int i = 0; i < 64; ++i) {
    zz[static_cast<std::size_t>(i)] = (i % 2 == 0) ? i - 32 : 33 - i;
  }
  // Last coefficient nonzero: no EOB emitted.
  const auto result = encode_entropy_on_fabric(zz, -4);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.bits, host_entropy_bits(zz, -4));
}

class HmanFabricFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HmanFabricFuzz, MatchesHostOnRealBlocks) {
  // Full realism: the zigzag blocks of real quantised DCTs.
  SplitMix64 rng(GetParam());
  const auto quant = scaled_quant(50);
  int prev_dc = 0;
  for (int round = 0; round < 6; ++round) {
    IntBlock raw{};
    for (auto& px : raw) px = static_cast<int>(rng.next_below(256));
    const IntBlock zz = encode_block_stages(raw, quant);
    const auto result = encode_entropy_on_fabric(zz, prev_dc);
    ASSERT_TRUE(result.ok()) << round;
    EXPECT_EQ(result.bits, host_entropy_bits(zz, prev_dc)) << round;
    EXPECT_GT(result.cycles, 0);
    prev_dc = zz[0];
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HmanFabricFuzz,
                         ::testing::Values(0xAAu, 0xBBu, 0xCCu));

TEST(HmanFabric, CyclesInTable3Ballpark) {
  // The paper's hman1..hman5 sum to ~20k cycles per block; our single-tile
  // table-driven version must land within an order of magnitude.
  SplitMix64 rng(0xEE);
  IntBlock raw{};
  for (auto& px : raw) px = static_cast<int>(rng.next_below(256));
  const IntBlock zz = encode_block_stages(raw, scaled_quant(50));
  const auto result = encode_entropy_on_fabric(zz, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.cycles, 200);
  EXPECT_LT(result.cycles, 60000);
}

TEST(JpegFabric, PipelineWorksAtHighQuality) {
  const auto raw = random_pixels(99);
  const auto quant = scaled_quant(90);
  const auto result = encode_block_on_fabric(raw, quant);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.zigzagged, encode_block_stages(raw, quant));
}

}  // namespace
}  // namespace cgra::jpeg
