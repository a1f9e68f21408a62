// Reconfiguration controller tests: ICAP cost accounting, partial
// reconfiguration overlap, schedule driving.
#include <gtest/gtest.h>

#include "config/reconfig.hpp"
#include "isa/assembler.hpp"

namespace cgra::config {
namespace {

using fabric::Fabric;
using interconnect::Direction;
using interconnect::LinkConfig;
using interconnect::LinkCostModel;

isa::Program prog(const std::string& src) {
  auto r = isa::assemble(src);
  EXPECT_TRUE(r.ok()) << r.status.message();
  return r.program;
}

EpochConfig epoch_with_program(int rows, int cols, int tile,
                               const std::string& src) {
  EpochConfig e;
  e.links = LinkConfig(rows, cols);
  TileUpdate u;
  u.program = isa::prepare(prog(src));
  e.tiles[tile] = std::move(u);
  return e;
}

TEST(Reconfig, ProgramReloadCostMatchesIcap) {
  Fabric f(1, 1);
  ReconfigController ctrl(IcapModel{}, LinkCostModel{0.0});
  // 2 instructions + 1 data word.
  auto e = epoch_with_program(1, 1, 0, ".data 0, 7\n  nop\n  halt\n");
  const auto rep = ctrl.apply(f, e);
  EXPECT_NEAR(rep.inst_reload_ns, 100.0, 0.1);   // 2 x 50 ns
  EXPECT_NEAR(rep.data_reload_ns, 33.33, 0.01);  // 1 x 33.33 ns
  EXPECT_EQ(rep.links_changed, 0);
}

TEST(Reconfig, LinkChangesCharged) {
  Fabric f(2, 2);
  ReconfigController ctrl(IcapModel{}, LinkCostModel{500.0});
  EpochConfig e;
  e.links = LinkConfig(2, 2);
  e.links.set_output(0, Direction::kEast);
  e.links.set_output(2, Direction::kNorth);
  const auto rep = ctrl.apply(f, e);
  EXPECT_EQ(rep.links_changed, 2);
  EXPECT_DOUBLE_EQ(rep.link_ns, 1000.0);
  EXPECT_EQ(f.links().output(0), Direction::kEast);
}

TEST(Reconfig, PatchesOnlyCostData) {
  Fabric f(1, 1);
  ReconfigController ctrl(IcapModel{}, LinkCostModel{0.0});
  EpochConfig e;
  e.links = LinkConfig(1, 1);
  TileUpdate u;
  u.patches = {{3, 9}, {4, 8}};
  u.restart = false;
  e.tiles[0] = std::move(u);
  const auto rep = ctrl.apply(f, e);
  EXPECT_NEAR(rep.data_reload_ns, 2 * 33.3333, 0.01);
  EXPECT_DOUBLE_EQ(rep.inst_reload_ns, 0.0);
  EXPECT_EQ(f.tile(0).dmem(3), 9u);
}

TEST(Reconfig, ReconfiguredTileStallsOthersRun) {
  // Partial reconfiguration: tile 1 reloads (stalled), tile 0 keeps
  // computing during the reload.
  Fabric f(1, 2);
  f.tile(0).load_program(prog(
      "  movi 0, #40\nl:\n  sub 0, 0, #1\n  bnez 0, l\n  halt\n"));
  f.tile(0).restart();
  ReconfigController ctrl(IcapModel{}, LinkCostModel{0.0});
  auto e = epoch_with_program(1, 2, 1, "  movi 0, #5\n  halt\n");
  const auto rep = ctrl.apply(f, e);
  EXPECT_GT(rep.complete_cycle, 0);
  const auto run = f.run(100000);
  EXPECT_TRUE(run.ok());
  // Tile 1 was stalled for the reload duration...
  EXPECT_GE(f.tile(1).stats().cycles_stalled, rep.icap_busy_cycles - 1);
  // ...but tile 0 ran during that window: total runtime is the max of the
  // two, not the sum.
  EXPECT_EQ(to_signed(f.tile(0).dmem(0)), 0);
  EXPECT_EQ(to_signed(f.tile(1).dmem(0)), 5);
}

TEST(Reconfig, SerialIcapSerialisesTwoTiles) {
  Fabric f(1, 2);
  ReconfigController ctrl(IcapModel{}, LinkCostModel{0.0});
  EpochConfig e;
  e.links = LinkConfig(1, 2);
  for (int t = 0; t < 2; ++t) {
    TileUpdate u;
    u.program = isa::prepare(prog("  nop\n  halt\n"));
    e.tiles[t] = std::move(u);
  }
  const auto rep = ctrl.apply(f, e);
  // Two programs of 2 instructions each: 200 ns = 80 cycles total, and the
  // second tile resumes strictly after the first.
  EXPECT_NEAR(rep.inst_reload_ns, 200.0, 0.1);
  EXPECT_GT(f.tile(1).stalled_until(), f.tile(0).stalled_until());
}

TEST(Reconfig, RunScheduleAccumulatesTimeline) {
  Fabric f(1, 1);
  ReconfigController ctrl(IcapModel{}, LinkCostModel{0.0});
  std::vector<EpochConfig> epochs;
  epochs.push_back(epoch_with_program(1, 1, 0, "  movi 0, #1\n  halt\n"));
  epochs.push_back(epoch_with_program(1, 1, 0, "  movi 1, #2\n  halt\n"));
  const auto result = run_schedule(f, ctrl, epochs, 100000);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.timeline.transitions.size(), 2u);
  EXPECT_GT(result.timeline.reconfig_ns, 0.0);
  EXPECT_GT(result.timeline.epoch_compute_ns, 0.0);
  EXPECT_EQ(to_signed(f.tile(0).dmem(0)), 1);
  EXPECT_EQ(to_signed(f.tile(0).dmem(1)), 2);
}

TEST(Reconfig, ScheduleStopsOnFault) {
  Fabric f(1, 1);
  ReconfigController ctrl(IcapModel{}, LinkCostModel{0.0});
  std::vector<EpochConfig> epochs;
  // Remote write with no link -> fault.
  epochs.push_back(epoch_with_program(1, 1, 0, "  mov !0, 0\n  halt\n"));
  epochs.push_back(epoch_with_program(1, 1, 0, "  movi 0, #1\n  halt\n"));
  const auto result = run_schedule(f, ctrl, epochs, 100000);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.faults.size(), 1u);
}

TEST(Reconfig, PinnedTileRestartsWithoutReload) {
  // Epoch 2 reuses the resident program (restart only): zero ICAP cost.
  Fabric f(1, 1);
  ReconfigController ctrl(IcapModel{}, LinkCostModel{0.0});
  auto e1 = epoch_with_program(1, 1, 0, "  add 1, 1, #1\n  halt\n");
  ctrl.apply(f, e1);
  f.run(1000);
  EpochConfig e2;
  e2.links = LinkConfig(1, 1);
  e2.tiles[0] = TileUpdate{};  // restart=true, nothing reloaded
  const auto rep = ctrl.apply(f, e2);
  EXPECT_DOUBLE_EQ(rep.total_ns(), 0.0);
  f.run(1000);
  EXPECT_EQ(to_signed(f.tile(0).dmem(1)), 2);  // ran twice
}

}  // namespace
}  // namespace cgra::config
