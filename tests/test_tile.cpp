// Tile interpreter semantics: every opcode, addressing modes, faults.
#include <gtest/gtest.h>

#include <set>

#include "apps/fft/fabric_fft.hpp"
#include "apps/jpeg/fabric_jpeg.hpp"
#include "common/fixed_complex.hpp"
#include "fabric/step_core.hpp"
#include "fabric/tile.hpp"
#include "isa/assembler.hpp"

namespace cgra::fabric {
namespace {

using isa::assemble;

/// Run `src` on a fresh tile until halt; returns the tile.
Tile run_tile(const std::string& src, int max_cycles = 100000) {
  auto r = assemble(src);
  EXPECT_TRUE(r.ok()) << r.status.message();
  Tile t;
  EXPECT_TRUE(t.load_program(r.program));
  t.restart();
  std::vector<RemoteWrite> remote;
  for (int c = 0; c < max_cycles && !t.halted(); ++c) {
    t.step(0, c, LinkState::kNone, remote);
  }
  EXPECT_TRUE(t.halted()) << "program did not halt";
  return t;
}

std::int64_t signed_dmem(const Tile& t, int addr) {
  return cgra::to_signed(t.dmem(addr));
}

TEST(Tile, MoviAndMov) {
  const Tile t = run_tile("  movi 0, #123\n  mov 1, 0\n  halt\n");
  EXPECT_EQ(signed_dmem(t, 0), 123);
  EXPECT_EQ(signed_dmem(t, 1), 123);
}

TEST(Tile, NegativeImmediateSignExtends) {
  const Tile t = run_tile("  movi 0, #-5\n  halt\n");
  EXPECT_EQ(signed_dmem(t, 0), -5);
}

TEST(Tile, ArithmeticOps) {
  const Tile t = run_tile(
      "  movi 0, #7\n  movi 1, #-3\n"
      "  add 2, 0, 1\n  sub 3, 0, 1\n  mul 4, 0, 1\n  halt\n");
  EXPECT_EQ(signed_dmem(t, 2), 4);
  EXPECT_EQ(signed_dmem(t, 3), 10);
  EXPECT_EQ(signed_dmem(t, 4), -21);
}

TEST(Tile, LogicAndShifts) {
  const Tile t = run_tile(
      "  movi 0, #12\n  movi 1, #10\n"
      "  and 2, 0, 1\n  orr 3, 0, 1\n  xor 4, 0, 1\n"
      "  shl 5, 0, #2\n  shr 6, 0, #2\n"
      "  movi 7, #-8\n  sra 8, 7, #1\n  shr 9, 7, #1\n  halt\n");
  EXPECT_EQ(signed_dmem(t, 2), 8);
  EXPECT_EQ(signed_dmem(t, 3), 14);
  EXPECT_EQ(signed_dmem(t, 4), 6);
  EXPECT_EQ(signed_dmem(t, 5), 48);
  EXPECT_EQ(signed_dmem(t, 6), 3);
  EXPECT_EQ(signed_dmem(t, 8), -4);
  // Logical shift of a negative 48-bit value exposes the mask.
  EXPECT_EQ(t.dmem(9), (cgra::kWordMask - 7) >> 1);
}

TEST(Tile, ComplexOps) {
  Tile t;
  auto r = assemble("  cadd 2, 0, 1\n  csub 3, 0, 1\n  cmul 4, 0, 1\n  halt\n");
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(t.load_program(r.program));
  const auto a = cgra::to_fixed({0.5, 0.25});
  const auto b = cgra::to_fixed({0.125, -0.5});
  t.set_dmem(0, cgra::pack_complex(a));
  t.set_dmem(1, cgra::pack_complex(b));
  t.restart();
  std::vector<RemoteWrite> remote;
  for (int c = 0; c < 100 && !t.halted(); ++c) t.step(0, c, LinkState::kNone, remote);
  EXPECT_EQ(t.dmem(2), cgra::word_cadd(t.dmem(0), t.dmem(1)));
  EXPECT_EQ(t.dmem(3), cgra::word_csub(t.dmem(0), t.dmem(1)));
  EXPECT_EQ(t.dmem(4), cgra::word_cmul(t.dmem(0), t.dmem(1)));
}

TEST(Tile, IndirectAddressing) {
  const Tile t = run_tile(
      "  movi 10, #99\n"
      "  movi 0, #10\n"   // pointer to 10
      "  mov 1, 0*\n"     // 1 = dmem[dmem[0]] = 99
      "  movi 2, #20\n"
      "  movi 3, #55\n"
      "  mov 2*, 3\n"     // dmem[20] = 55
      "  halt\n");
  EXPECT_EQ(signed_dmem(t, 1), 99);
  EXPECT_EQ(signed_dmem(t, 20), 55);
}

TEST(Tile, CountdownLoop) {
  const Tile t = run_tile(
      "  movi 0, #10\n  movi 1, #0\n"
      "loop:\n"
      "  add 1, 1, #3\n"
      "  sub 0, 0, #1\n"
      "  bnez 0, loop\n"
      "  halt\n");
  EXPECT_EQ(signed_dmem(t, 1), 30);
}

TEST(Tile, BranchConditions) {
  const Tile t = run_tile(
      "  movi 0, #-1\n"
      "  bltz 0, neg\n"
      "  movi 1, #111\n"
      "  halt\n"
      "neg:\n"
      "  movi 1, #222\n"
      "  beqz 1, never\n"
      "  halt\n"
      "never:\n"
      "  movi 1, #333\n"
      "  halt\n");
  EXPECT_EQ(signed_dmem(t, 1), 222);
}

TEST(Tile, RemoteWriteEmitted) {
  auto r = assemble("  movi 0, #77\n  mov !5, 0\n  halt\n");
  ASSERT_TRUE(r.ok());
  Tile t;
  ASSERT_TRUE(t.load_program(r.program));
  t.restart();
  std::vector<RemoteWrite> remote;
  for (int c = 0; c < 10 && !t.halted(); ++c) t.step(3, c, LinkState::kUp, remote);
  ASSERT_EQ(remote.size(), 1u);
  EXPECT_EQ(remote[0].src_tile, 3);
  EXPECT_EQ(remote[0].addr, 5);
  EXPECT_EQ(cgra::to_signed(remote[0].value), 77);
  EXPECT_EQ(t.stats().remote_writes, 1);
}

TEST(Tile, RemoteWriteWithoutLinkFaults) {
  auto r = assemble("  movi 0, #1\n  mov !5, 0\n  halt\n");
  ASSERT_TRUE(r.ok());
  Tile t;
  ASSERT_TRUE(t.load_program(r.program));
  t.restart();
  std::vector<RemoteWrite> remote;
  for (int c = 0; c < 10 && !t.halted(); ++c) t.step(0, c, LinkState::kNone, remote);
  EXPECT_TRUE(t.faulted());
  EXPECT_EQ(t.fault().kind, FaultKind::kNoActiveLink);
}

TEST(Tile, OutOfRangeIndirectFaults) {
  auto r = assemble("  movi 0, #5000\n  mov 1, 0*\n  halt\n");
  ASSERT_TRUE(r.ok());
  Tile t;
  ASSERT_TRUE(t.load_program(r.program));
  t.restart();
  std::vector<RemoteWrite> remote;
  for (int c = 0; c < 10 && !t.halted(); ++c) t.step(0, c, LinkState::kNone, remote);
  EXPECT_TRUE(t.faulted());
  EXPECT_EQ(t.fault().kind, FaultKind::kAddressOutOfRange);
}

TEST(Tile, NegativePointerFaults) {
  auto r = assemble("  movi 0, #-1\n  mov 1, 0*\n  halt\n");
  ASSERT_TRUE(r.ok());
  Tile t;
  ASSERT_TRUE(t.load_program(r.program));
  t.restart();
  std::vector<RemoteWrite> remote;
  for (int c = 0; c < 10 && !t.halted(); ++c) t.step(0, c, LinkState::kNone, remote);
  EXPECT_TRUE(t.faulted());
}

TEST(Tile, PcRunoffFaults) {
  auto r = assemble("  nop\n");  // no halt
  ASSERT_TRUE(r.ok());
  Tile t;
  ASSERT_TRUE(t.load_program(r.program));
  t.restart();
  std::vector<RemoteWrite> remote;
  for (int c = 0; c < 10 && !t.halted(); ++c) t.step(0, c, LinkState::kNone, remote);
  EXPECT_TRUE(t.faulted());
  EXPECT_EQ(t.fault().kind, FaultKind::kPcOutOfRange);
}

TEST(Tile, StallSuppressesExecution) {
  auto r = assemble("  movi 0, #1\n  halt\n");
  ASSERT_TRUE(r.ok());
  Tile t;
  ASSERT_TRUE(t.load_program(r.program));
  t.restart();
  t.stall_until(5);
  std::vector<RemoteWrite> remote;
  EXPECT_FALSE(t.step(0, 0, LinkState::kNone, remote));
  EXPECT_FALSE(t.step(0, 4, LinkState::kNone, remote));
  EXPECT_TRUE(t.step(0, 5, LinkState::kNone, remote));
  EXPECT_EQ(t.stats().cycles_stalled, 2);
}

TEST(Tile, LoadLeavesTileHaltedUntilRestart) {
  auto r = assemble("  halt\n");
  ASSERT_TRUE(r.ok());
  Tile t;
  ASSERT_TRUE(t.load_program(r.program));
  EXPECT_TRUE(t.halted());
  t.restart();
  EXPECT_FALSE(t.halted());
}

TEST(Tile, ProgramTooLargeRejected) {
  isa::Program prog;
  prog.code.resize(cgra::kInstMemWords + 1);
  Tile t;
  EXPECT_FALSE(t.load_program(prog));
}

/// Field-by-field equality of two predecoded slots.
void expect_same_decoded(const isa::DecodedInstr& a,
                         const isa::DecodedInstr& b, const std::string& at) {
  EXPECT_EQ(a.opcode, b.opcode) << at;
  EXPECT_EQ(a.illegal, b.illegal) << at;
  EXPECT_EQ(a.reads_srca, b.reads_srca) << at;
  EXPECT_EQ(a.srca_indirect, b.srca_indirect) << at;
  EXPECT_EQ(a.srca_oob, b.srca_oob) << at;
  EXPECT_EQ(a.reads_srcb, b.reads_srcb) << at;
  EXPECT_EQ(a.use_imm, b.use_imm) << at;
  EXPECT_EQ(a.srcb_indirect, b.srcb_indirect) << at;
  EXPECT_EQ(a.srcb_oob, b.srcb_oob) << at;
  EXPECT_EQ(a.writes_dst, b.writes_dst) << at;
  EXPECT_EQ(a.dst_remote, b.dst_remote) << at;
  EXPECT_EQ(a.dst_indirect, b.dst_indirect) << at;
  EXPECT_EQ(a.dst_oob, b.dst_oob) << at;
  EXPECT_EQ(a.dst, b.dst) << at;
  EXPECT_EQ(a.srca, b.srca) << at;
  EXPECT_EQ(a.srcb, b.srcb) << at;
  EXPECT_EQ(a.imm, b.imm) << at;
  EXPECT_EQ(a.imm_word, b.imm_word) << at;
}

/// The state load(image) leaves: the image's code, each slot decoded as
/// isa::predecode decodes it on its own, its data patches in dmem, pc 0,
/// halted, no fault, and one code_version bump.  The tile is pre-dirtied
/// with a different program, a latched fault and a scribbled dmem.
void expect_load_installs(const isa::Image& image, const std::string& ctx) {
  Tile t;
  ASSERT_TRUE(t.load_program(
      assemble("  movi 0, #1\n  nop\n  nop\n  halt\n").program));
  t.restart();
  t.inject_fault(FaultKind::kIllegalOpcode, 0, 0);
  for (int a = 0; a < kDataMemWords; ++a) t.set_dmem(a, 0x5A5A);
  const std::uint64_t version = t.code_version();

  ASSERT_TRUE(t.load(image)) << ctx;
  EXPECT_EQ(t.code_version(), version + 1) << ctx;
  EXPECT_TRUE(t.halted()) << ctx;
  EXPECT_FALSE(t.faulted()) << ctx;
  EXPECT_EQ(t.pc(), 0) << ctx;
  ASSERT_EQ(t.code_size(), image.inst_words()) << ctx;
  const auto& decoded = TileExec::decoded(t);
  ASSERT_EQ(decoded.size(), image.code().size()) << ctx;
  for (int i = 0; i < t.code_size(); ++i) {
    const auto& in = image.code()[static_cast<std::size_t>(i)];
    const std::string at = ctx + " pc " + std::to_string(i);
    EXPECT_EQ(*t.instruction_at(i), in) << at;
    expect_same_decoded(decoded[static_cast<std::size_t>(i)],
                        isa::predecode(in), at);
  }
  std::vector<Word> want(static_cast<std::size_t>(kDataMemWords), 0x5A5A);
  for (const auto& patch : image.data()) {
    want[static_cast<std::size_t>(patch.addr)] = truncate_word(patch.value);
  }
  EXPECT_EQ(t.snapshot_dmem(), want) << ctx;

  // load_program (prepare, then install) leaves the same tile.
  Tile u;
  ASSERT_TRUE(u.load_program(image.program())) << ctx;
  const auto& via_program = TileExec::decoded(u);
  ASSERT_EQ(via_program.size(), decoded.size()) << ctx;
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    expect_same_decoded(via_program[i], decoded[i],
                        ctx + " load_program pc " + std::to_string(i));
  }
}

// Every program a replayed workload installs loads as load_program would:
// the distinct images of the N=1024/M=128 FFT plans at 1/2/5/10 columns
// and the four JPEG stages.
TEST(Tile, LoadImageMatchesLoadProgram) {
  const auto g = fft::make_geometry(1024, 128);
  for (const int cols : {1, 2, 5, 10}) {
    const auto plan = fft::compile_plan(g, cols);
    ASSERT_TRUE(plan.ok()) << plan.status.message();
    std::set<const isa::Image*> images;
    for (const auto& epoch : plan.epochs) {
      for (const auto& [tile, update] : epoch.config.tiles) {
        if (update.program) images.insert(update.program.get());
      }
    }
    int n = 0;
    for (const isa::Image* image : images) {
      expect_load_installs(*image, "fft cols=" + std::to_string(cols) +
                                       " image " + std::to_string(n++));
    }
  }
  const auto art = jpeg::make_pipeline_artifacts(jpeg::scaled_quant(50));
  for (std::size_t s = 0; s < art.stage_programs.size(); ++s) {
    expect_load_installs(*art.stage_programs[s],
                         "jpeg stage " + std::to_string(s));
  }

  // Oversize images and dead tiles are rejected, and load nothing.
  const auto fits = isa::prepare(assemble(".data 3, 7\n  halt\n").program);
  isa::Program big;
  big.code.resize(cgra::kInstMemWords + 1);
  isa::Program bad_patch;
  bad_patch.code.resize(1);
  bad_patch.data = {{cgra::kDataMemWords, 1}};

  Tile t;
  ASSERT_TRUE(t.load(*fits));
  const std::uint64_t version = t.code_version();
  EXPECT_FALSE(t.load(isa::Image(big)));
  EXPECT_FALSE(t.load(isa::Image(bad_patch)));
  EXPECT_EQ(t.code_version(), version);
  EXPECT_EQ(t.code_size(), 1);

  t.hard_fail(0, 0);
  EXPECT_FALSE(t.load(*fits));
  EXPECT_EQ(t.code_version(), version);
  EXPECT_TRUE(t.dead());
}

TEST(Tile, BadPatchRejectedAtomically) {
  Tile t;
  const std::vector<isa::DataPatch> patches = {{5, 1}, {9999, 2}};
  EXPECT_FALSE(t.patch_data(patches));
  EXPECT_EQ(t.dmem(5), 0u);  // nothing applied
}

TEST(Tile, MacAccumulatorOps) {
  const Tile t = run_tile(
      "  movi 0, #3\n  movi 1, #4\n  movi 2, #-5\n"
      "  macz 0, 1\n"     // acc = 12
      "  mac 0, 2\n"      // acc = 12 - 15 = -3
      "  mac 1, #10\n"    // acc = -3 + 40 = 37
      "  macr 5\n"
      "  macz 0, #0\n"    // acc cleared
      "  macr 6\n"
      "  halt\n");
  EXPECT_EQ(signed_dmem(t, 5), 37);
  EXPECT_EQ(signed_dmem(t, 6), 0);
}

TEST(Tile, MacDotProductLoop) {
  // 5-instruction MAC loop: dot product of [1..8] with itself = 204.
  const Tile t = run_tile(
      ".data 0, 1, 2, 3, 4, 5, 6, 7, 8\n"
      "  movi 20, #0\n"   // pa
      "  movi 21, #8\n"   // cnt
      "  macz 20, #0\n"   // clear acc
      "loop:\n"
      "  mac 20*, 20*\n"
      "  add 20, 20, #1\n"
      "  sub 21, 21, #1\n"
      "  bnez 21, loop\n"
      "  macr 22\n"
      "  halt\n");
  EXPECT_EQ(signed_dmem(t, 22), 204);
}

TEST(Tile, InstructionCounterAdvances) {
  const Tile t = run_tile("  movi 0, #1\n  movi 1, #2\n  halt\n");
  EXPECT_EQ(t.stats().instructions, 3);
}

}  // namespace
}  // namespace cgra::fabric
