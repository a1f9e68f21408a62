// Tracer tests: event streams, histograms, ring-buffer bounds.
#include <gtest/gtest.h>

#include "fabric/fabric.hpp"
#include "isa/assembler.hpp"

namespace cgra::fabric {
namespace {

isa::Program prog(const std::string& src) {
  auto r = isa::assemble(src);
  EXPECT_TRUE(r.ok()) << r.status.message();
  return r.program;
}

TEST(Trace, RecordsRetirementsInOrder) {
  Fabric f(1, 1);
  Tracer tracer;
  f.attach_tracer(&tracer);
  f.tile(0).load_program(prog("  movi 0, #1\n  add 0, 0, #1\n  halt\n"));
  f.tile(0).restart();
  f.run(100);
  ASSERT_EQ(tracer.events().size(), 3u);
  EXPECT_EQ(tracer.events()[0].opcode, isa::Opcode::kMovi);
  EXPECT_EQ(tracer.events()[1].opcode, isa::Opcode::kAdd);
  EXPECT_EQ(tracer.events()[2].kind, TraceEventKind::kHalt);
  EXPECT_LT(tracer.events()[0].cycle, tracer.events()[2].cycle);
  EXPECT_EQ(tracer.events()[1].pc, 1);
}

TEST(Trace, HistogramMatchesTileStats) {
  Fabric f(1, 1);
  Tracer tracer;
  f.attach_tracer(&tracer);
  f.tile(0).load_program(prog(
      "  movi 0, #5\nl:\n  sub 0, 0, #1\n  bnez 0, l\n  halt\n"));
  f.tile(0).restart();
  f.run(1000);
  EXPECT_EQ(tracer.tile_retirements(0), f.tile(0).stats().instructions);
  EXPECT_EQ(tracer.opcode_count(0, isa::Opcode::kSub), 5);
  EXPECT_EQ(tracer.opcode_count(0, isa::Opcode::kBnez), 5);
  EXPECT_EQ(tracer.opcode_count(0, isa::Opcode::kHalt), 1);
}

TEST(Trace, RemoteWritesCarryDestination) {
  Fabric f(1, 2);
  f.links().set_output(0, interconnect::Direction::kEast);
  Tracer tracer;
  f.attach_tracer(&tracer);
  f.tile(0).load_program(prog("  movi 0, #9\n  mov !3, 0\n  halt\n"));
  f.tile(0).restart();
  f.run(100);
  bool saw_remote = false;
  for (const auto& ev : tracer.events()) {
    if (ev.kind == TraceEventKind::kRemoteWrite) {
      saw_remote = true;
      EXPECT_EQ(ev.tile, 0);
      EXPECT_EQ(ev.dst_tile, 1);
      EXPECT_EQ(ev.addr, 3);
      EXPECT_EQ(to_signed(ev.value), 9);
    }
  }
  EXPECT_TRUE(saw_remote);
}

TEST(Trace, FaultEventsRecorded) {
  Fabric f(1, 1);
  Tracer tracer;
  f.attach_tracer(&tracer);
  f.tile(0).load_program(prog("  mov !0, 0\n  halt\n"));  // no link
  f.tile(0).restart();
  f.run(100);
  ASSERT_FALSE(tracer.events().empty());
  EXPECT_EQ(tracer.events().back().kind, TraceEventKind::kFault);
}

TEST(Trace, RingBufferBoundsAndCounters) {
  Fabric f(1, 1);
  Tracer tracer(8);  // tiny capacity
  f.attach_tracer(&tracer);
  f.tile(0).load_program(prog(
      "  movi 0, #50\nl:\n  sub 0, 0, #1\n  bnez 0, l\n  halt\n"));
  f.tile(0).restart();
  f.run(1000);
  EXPECT_LE(tracer.events().size(), 8u);
  EXPECT_GT(tracer.dropped(), 0);
  // Histograms never drop.
  EXPECT_EQ(tracer.tile_retirements(0), f.tile(0).stats().instructions);
}

TEST(Trace, RingBufferWraparoundKeepsNewestInOrder) {
  Fabric f(1, 1);
  Tracer tracer(8);
  f.attach_tracer(&tracer);
  // movi + 50x(sub, bnez) + halt = 102 events; only the last 8 survive.
  f.tile(0).load_program(prog(
      "  movi 0, #50\nl:\n  sub 0, 0, #1\n  bnez 0, l\n  halt\n"));
  f.tile(0).restart();
  f.run(1000);
  ASSERT_EQ(tracer.events().size(), 8u);
  EXPECT_EQ(tracer.dropped(), 94);
  // The retained window is the tail of the stream, still in issue order:
  // bnez, sub, bnez, sub, bnez, sub, bnez, halt.
  const auto& evs = tracer.events();
  for (std::size_t i = 0; i + 1 < evs.size(); ++i) {
    EXPECT_LE(evs[i].cycle, evs[i + 1].cycle);
  }
  EXPECT_EQ(evs.back().kind, TraceEventKind::kHalt);
  for (std::size_t i = 0; i + 1 < evs.size(); ++i) {
    EXPECT_EQ(evs[i].opcode,
              i % 2 == 0 ? isa::Opcode::kBnez : isa::Opcode::kSub);
  }
}

TEST(Trace, DumpTruncationNoteAgreesWithDropped) {
  Tracer tracer(8);
  TraceEvent ev;
  ev.tile = 0;
  ev.kind = TraceEventKind::kRetire;
  for (int i = 0; i < 30; ++i) {
    ev.cycle = i;
    tracer.record(ev);
  }
  EXPECT_EQ(tracer.dropped(), 22);
  const std::string text = tracer.dump();
  // The dump's truncation note must quote exactly the dropped() count.
  EXPECT_NE(text.find("(22 earlier events dropped)"), std::string::npos);
}

TEST(Trace, DumpOfWrappedRingListsOldestFirst) {
  // 30 records through a capacity-8 ring leave it wrapped; dump() (const,
  // so it must not unwrap) lists cycles 22..29 in order, like events().
  Tracer tracer(8);
  TraceEvent ev;
  ev.tile = 0;
  ev.kind = TraceEventKind::kRetire;
  for (int i = 0; i < 30; ++i) {
    ev.cycle = i;
    tracer.record(ev);
  }
  const Tracer& view = tracer;
  const std::string text = view.dump();
  std::size_t pos = 0;
  for (int c = 22; c < 30; ++c) {
    const std::size_t at = text.find("[" + std::to_string(c) + "]", pos);
    ASSERT_NE(at, std::string::npos) << "cycle " << c;
    pos = at;
  }
  EXPECT_EQ(text.find("[21]"), std::string::npos);
  const auto& evs = tracer.events();
  ASSERT_EQ(evs.size(), 8u);
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(evs[i].cycle, static_cast<std::int64_t>(22 + i));
  }
  EXPECT_EQ(tracer.dump(), text);
}

TEST(Trace, DumpTruncationSurvivesWraparound) {
  Fabric f(1, 1);
  Tracer tracer(8);
  f.attach_tracer(&tracer);
  // 102 events through a capacity-8 ring: 94 dropped (see the wraparound
  // test above); the note and the counter must agree after the wrap.
  f.tile(0).load_program(prog(
      "  movi 0, #50\nl:\n  sub 0, 0, #1\n  bnez 0, l\n  halt\n"));
  f.tile(0).restart();
  f.run(1000);
  const std::string text = tracer.dump();
  const std::string note =
      "(" + std::to_string(tracer.dropped()) + " earlier events dropped)";
  EXPECT_NE(text.find(note), std::string::npos);
  // max_lines below capacity narrows the window but never changes the
  // ring-drop accounting in the note.
  const std::string narrow = tracer.dump(2);
  EXPECT_NE(narrow.find(note), std::string::npos);
  EXPECT_LT(narrow.size(), text.size());
}

TEST(Trace, NoTruncationNoteBeforeCapacity) {
  Tracer tracer(8);
  TraceEvent ev;
  ev.kind = TraceEventKind::kRetire;
  for (int i = 0; i < 5; ++i) tracer.record(ev);
  EXPECT_EQ(tracer.dropped(), 0);
  EXPECT_EQ(tracer.dump().find("dropped"), std::string::npos);
}

TEST(Trace, FaultsInterleaveWithRemoteWrites) {
  Fabric f(1, 2);
  f.links().set_output(0, interconnect::Direction::kEast);
  Tracer tracer;
  f.attach_tracer(&tracer);
  // Tile 0 streams remote writes for 12 cycles; tile 1 spins for ~7
  // cycles and then faults (no active output link), so the fault lands
  // in the middle of tile 0's write stream.
  std::string writer = "  movi 0, #7\n";
  for (int i = 1; i <= 12; ++i) {
    writer += "  mov !" + std::to_string(i) + ", 0\n";
  }
  writer += "  halt\n";
  f.tile(0).load_program(prog(writer));
  f.tile(1).load_program(prog(
      "  movi 0, #3\nl:\n  sub 0, 0, #1\n  bnez 0, l\n  mov !0, 0\n"));
  f.tile(0).restart();
  f.tile(1).restart();
  f.run(100);

  std::int64_t fault_cycle = -1;
  int remote_before = 0;
  int remote_after = 0;
  std::int64_t last_cycle = -1;
  for (const auto& ev : tracer.events()) {
    EXPECT_GE(ev.cycle, last_cycle);  // recorded in simulation order
    last_cycle = ev.cycle;
    if (ev.kind == TraceEventKind::kFault) {
      fault_cycle = ev.cycle;
      EXPECT_EQ(ev.tile, 1);
    }
  }
  ASSERT_GE(fault_cycle, 0);
  for (const auto& ev : tracer.events()) {
    if (ev.kind != TraceEventKind::kRemoteWrite) continue;
    EXPECT_EQ(ev.tile, 0);
    EXPECT_EQ(ev.dst_tile, 1);
    if (ev.cycle < fault_cycle) ++remote_before;
    if (ev.cycle > fault_cycle) ++remote_after;
  }
  // Commits straddle the fault: the trace shows the true interleaving.
  EXPECT_GT(remote_before, 0);
  EXPECT_GT(remote_after, 0);
  ASSERT_EQ(f.faults().size(), 1u);
  EXPECT_EQ(f.faults()[0].kind, FaultKind::kNoActiveLink);
}

TEST(Trace, RecoveryEventsDumpActionAndAttempt) {
  Tracer tracer;
  TraceEvent ev;
  ev.cycle = 42;
  ev.kind = TraceEventKind::kRecovery;
  ev.tile = 3;
  ev.action = RecoveryAction::kRollback;
  ev.attempt = 2;
  tracer.record(ev);
  const std::string text = tracer.dump();
  EXPECT_NE(text.find("recovery"), std::string::npos);
  EXPECT_NE(text.find("rollback"), std::string::npos);
  EXPECT_NE(text.find("attempt 2"), std::string::npos);
  // Recovery events never touch the retirement histogram.
  EXPECT_EQ(tracer.tile_retirements(3), 0);
}

TEST(Trace, DumpMentionsMnemonics) {
  Fabric f(1, 1);
  Tracer tracer;
  f.attach_tracer(&tracer);
  f.tile(0).load_program(prog("  cmul 2, 0, 1\n  halt\n"));
  f.tile(0).restart();
  f.run(100);
  const std::string text = tracer.dump();
  EXPECT_NE(text.find("cmul"), std::string::npos);
  EXPECT_NE(text.find("halt"), std::string::npos);
}

TEST(Trace, ClearResetsEverything) {
  Tracer tracer(4);
  TraceEvent ev;
  ev.tile = 0;
  for (int i = 0; i < 10; ++i) tracer.record(ev);
  tracer.clear();
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(tracer.dropped(), 0);
  EXPECT_EQ(tracer.tile_retirements(0), 0);
}

TEST(Trace, DetachedFabricRunsUntraced) {
  Fabric f(1, 1);
  Tracer tracer;
  f.attach_tracer(&tracer);
  f.attach_tracer(nullptr);
  f.tile(0).load_program(prog("  halt\n"));
  f.tile(0).restart();
  f.run(10);
  EXPECT_TRUE(tracer.events().empty());
}

}  // namespace
}  // namespace cgra::fabric
