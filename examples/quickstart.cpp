// Quickstart: assemble a tiny program, run it on a 2x2 fabric, send a value
// over a reconfigurable link, and switch epochs through the controller.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "cgra/fabric.hpp"

int main() {
  using namespace cgra;
  using interconnect::Direction;

  // 1. Write a tile program in the assembly dialect (see src/isa).
  const std::string source = R"(
    .equ acc, 0
    .equ cnt, 1
      movi acc, #0
      movi cnt, #10
    loop:
      add acc, acc, cnt    ; acc += cnt
      sub cnt, cnt, #1
      bnez cnt, loop
      mov !0, acc          ; ship the result to the linked neighbour
      halt
  )";
  const auto assembled = isa::assemble(source);
  if (!assembled.ok()) {
    std::printf("assembly failed: %s\n", assembled.status.message().c_str());
    return 1;
  }
  std::printf("Assembled %d instructions:\n%s\n",
              assembled.program.inst_words(),
              isa::disassemble(assembled.program).c_str());

  // 2. Build a 2x2 fabric and configure an epoch: the program on tile 0,
  //    its output link pointing east — all streamed through the modelled
  //    ICAP by the reconfiguration controller.
  fabric::Fabric fab(2, 2);
  config::ReconfigController ctrl(IcapModel{},
                                  interconnect::LinkCostModel{100.0});
  config::EpochConfig epoch;
  epoch.name = "sum-1-to-10";
  epoch.links = interconnect::LinkConfig(2, 2);
  epoch.links.set_output(0, Direction::kEast);
  config::TileUpdate update;
  update.program = isa::prepare(assembled.program);  // predecoded once
  epoch.tiles[0] = std::move(update);

  const auto report = ctrl.apply(fab, epoch);
  std::printf("Epoch transition: %d link(s) changed, %.1f ns of ICAP "
              "traffic\n",
              report.links_changed, report.total_ns());

  // 3. Run to completion and read the neighbour's memory.
  const auto run = fab.run(100000);
  std::printf("Ran %lld cycles (%.1f ns at 400 MHz), all halted: %s\n",
              static_cast<long long>(run.cycles), run.elapsed_ns(),
              run.ok() ? "yes" : "no");
  std::printf("Tile 1 received: %lld (expected 55)\n",
              static_cast<long long>(to_signed(fab.tile(1).dmem(0))));
  return run.ok() && to_signed(fab.tile(1).dmem(0)) == 55 ? 0 : 1;
}
