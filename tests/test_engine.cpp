// Execution-engine conformance: the threaded superinstruction engine must
// be bit-identical to the reference interpreter — same cycle counts,
// TileStats, fault records, data memories, trace event streams and
// remote-write commit order.
//
// Structure: a library of workloads exercising every scheduler and fault
// path runs once per engine on a fresh fabric and the complete observable
// state is compared field-for-field against the interpreter's; a
// randomized differential fuzzer then sweeps 64 programs with arbitrary
// flag/operand mixes through both engines.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cgra/engine.hpp"
#include "common/prng.hpp"
#include "isa/assembler.hpp"
#include "obs/metrics.hpp"

namespace cgra::engine {
namespace {

using fabric::Fabric;
using fabric::RunResult;
using fabric::Tracer;
using interconnect::Direction;

isa::Program prog(const std::string& src) {
  auto r = isa::assemble(src);
  EXPECT_TRUE(r.ok()) << r.status.message();
  return r.program;
}

constexpr EngineKind kEngines[] = {EngineKind::kInterp, EngineKind::kThreaded};

void attach(Fabric& f, EngineKind kind) { f.adopt_engine(make_engine(kind)); }

/// Full observable-state comparison: `got` (some engine) vs `want` (the
/// reference interpreter).
void expect_same_state(const Fabric& got, const Fabric& want,
                       const std::string& ctx) {
  ASSERT_EQ(got.tile_count(), want.tile_count()) << ctx;
  EXPECT_EQ(got.now(), want.now()) << ctx;
  EXPECT_EQ(got.all_halted(), want.all_halted()) << ctx;
  for (int t = 0; t < want.tile_count(); ++t) {
    const auto& g = got.tile(t);
    const auto& w = want.tile(t);
    const std::string tc = ctx + " tile " + std::to_string(t);
    EXPECT_EQ(g.pc(), w.pc()) << tc;
    EXPECT_EQ(g.halted(), w.halted()) << tc;
    EXPECT_EQ(g.faulted(), w.faulted()) << tc;
    EXPECT_EQ(g.fault().kind, w.fault().kind) << tc;
    EXPECT_EQ(g.fault().tile, w.fault().tile) << tc;
    EXPECT_EQ(g.fault().pc, w.fault().pc) << tc;
    EXPECT_EQ(g.fault().cycle, w.fault().cycle) << tc;
    EXPECT_EQ(g.stats().instructions, w.stats().instructions) << tc;
    EXPECT_EQ(g.stats().remote_writes, w.stats().remote_writes) << tc;
    EXPECT_EQ(g.stats().cycles_stalled, w.stats().cycles_stalled) << tc;
    EXPECT_EQ(g.stats().cycles_halted, w.stats().cycles_halted) << tc;
    for (int a = 0; a < kDataMemWords; ++a) {
      ASSERT_EQ(g.dmem(a), w.dmem(a)) << tc << " dmem " << a;
    }
  }
}

void expect_same_result(const RunResult& got, const RunResult& want,
                        const std::string& ctx) {
  EXPECT_EQ(got.cycles, want.cycles) << ctx;
  EXPECT_EQ(got.all_halted, want.all_halted) << ctx;
  ASSERT_EQ(got.faults.size(), want.faults.size()) << ctx;
  for (std::size_t i = 0; i < want.faults.size(); ++i) {
    EXPECT_EQ(got.faults[i].kind, want.faults[i].kind) << ctx << " #" << i;
    EXPECT_EQ(got.faults[i].tile, want.faults[i].tile) << ctx << " #" << i;
    EXPECT_EQ(got.faults[i].pc, want.faults[i].pc) << ctx << " #" << i;
    EXPECT_EQ(got.faults[i].cycle, want.faults[i].cycle) << ctx << " #" << i;
  }
}

/// The cycle-accounting invariant every engine must preserve.
void expect_stats_invariant(const Fabric& f, const std::string& ctx) {
  for (int t = 0; t < f.tile_count(); ++t) {
    const auto& s = f.tile(t).stats();
    EXPECT_EQ(s.instructions + s.cycles_stalled + s.cycles_halted, f.now())
        << ctx << " tile " << t;
  }
}

// --- workload library -------------------------------------------------------

struct Workload {
  const char* name;
  int rows;
  int cols;
  void (*setup)(Fabric&);
  std::int64_t max_cycles;
};

void wl_halt(Fabric& f) {
  f.tile(0).load_program(prog("  movi 0, #1\n  halt\n"));
  f.tile(3).load_program(prog("  movi 0, #2\n  nop\n  nop\n  halt\n"));
  f.tile(0).restart();
  f.tile(3).restart();
}

void wl_stall_fast_forward(Fabric& f) {
  f.tile(0).load_program(prog("  movi 0, #1\n  halt\n"));
  f.tile(1).load_program(prog("  movi 0, #2\n  nop\n  halt\n"));
  f.tile(0).restart();
  f.tile(1).restart();
  f.tile(0).stall_until(100);
  f.tile(1).stall_until(200);
}

void wl_stall_past_budget(Fabric& f) {
  f.tile(0).load_program(prog("  movi 0, #1\n  halt\n"));
  f.tile(0).restart();
  f.tile(0).stall_until(1'000'000);
}

void wl_remote_tiebreak(Fabric& f) {
  f.links().set_output(0, Direction::kEast);
  f.links().set_output(2, Direction::kWest);
  f.tile(0).load_program(prog("  movi 0, #111\n  mov !5, 0\n  halt\n"));
  f.tile(2).load_program(prog("  movi 0, #222\n  mov !5, 0\n  halt\n"));
  f.tile(0).restart();
  f.tile(2).restart();
}

void wl_pipeline(Fabric& f) {
  f.links().set_output(0, Direction::kEast);
  f.links().set_output(1, Direction::kEast);
  f.tile(0).load_program(prog("  movi 0, #21\n  mov !0, 0\n  halt\n"));
  f.tile(1).load_program(
      prog("wait:\n  beqz 0, wait\n  add 1, 0, 0\n  mov !0, 1\n  halt\n"));
  f.tile(0).restart();
  f.tile(1).restart();
}

void wl_branch_loop(Fabric& f) {
  // A long countdown: the threaded engine's lone-runner burst path with a
  // branchy block, plus mac-family accumulator traffic.
  f.tile(0).load_program(prog(
      "  movi 1, #2000\n  movi 2, #0\n"
      "loop:\n"
      "  add 2, 2, 1\n  macz 2, #3\n  mac 2, #1\n  macr 3\n"
      "  sub 1, 1, #1\n  bnez 1, loop\n"
      "  halt\n"));
  f.tile(0).restart();
}

void wl_pure_straightline(Fabric& f) {
  // A block of pure instructions (burst fast path) ending in a halt.
  std::string body = "  movi 0, #7\n";
  for (int i = 1; i < 60; ++i) {
    body += "  add " + std::to_string(i % 32) + ", " +
            std::to_string((i - 1) % 32) + ", #" + std::to_string(i) + "\n";
  }
  f.tile(0).load_program(prog(body + "  halt\n"));
  f.tile(0).restart();
}

void wl_no_link_fault(Fabric& f) {
  f.tile(0).load_program(prog("  nop\n  mov !0, 0\n  halt\n"));
  f.tile(0).restart();
}

void wl_link_down_fault(Fabric& f) {
  f.links().set_output(0, Direction::kEast);
  f.fail_link(0);
  f.tile(0).load_program(prog("  movi 0, #5\n  mov !3, 0\n  halt\n"));
  f.tile(0).restart();
}

void wl_addr_oob_fault(Fabric& f) {
  f.tile(0).load_program(prog("  mov 600, 0\n  halt\n"));
  f.tile(0).restart();
}

void wl_indirect(Fabric& f) {
  // Pointer chase: dmem[1] = 40, dmem[40] = 9; mov 2, 1* reads dmem[40].
  f.tile(0).load_program(prog(
      "  .data 1, 40\n  .data 40, 9\n"
      "  mov 2, 1*\n  movi 3, #50\n  mov 3*, 2\n  halt\n"));
  f.tile(0).restart();
}

void wl_indirect_oob_fault(Fabric& f) {
  // The pointer VALUE is out of range: dynamic kAddressOutOfRange.
  f.tile(0).load_program(prog("  .data 1, 4000\n  mov 2, 1*\n  halt\n"));
  f.tile(0).restart();
}

void wl_pc_off_end(Fabric& f) {
  // No halt: running off the image raises kPcOutOfRange.
  f.tile(0).load_program(prog("  movi 0, #1\n  nop\n"));
  f.tile(0).restart();
}

void wl_jmp_oob(Fabric& f) {
  f.tile(0).load_program(prog("  jmp 900\n"));
  f.tile(0).restart();
}

void wl_illegal_poison(Fabric& f) {
  f.tile(0).load_program(prog("  nop\n  nop\n  halt\n"));
  // Poison instruction 1's opcode field (deterministic upset).
  f.tile(0).flip_inst_bit(1, 70);
  f.tile(0).restart();
}

void wl_dense_mesh(Fabric& f) {
  // Every tile busy, neighbours exchanging data: the general multi-tile
  // sweep.
  for (int t = 0; t < f.tile_count(); ++t) {
    if (t % 2 == 0 && t + 1 < f.tile_count()) {
      f.links().set_output(t, Direction::kEast);
    }
    f.tile(t).load_program(prog(
        "  movi 1, #" + std::to_string(40 + t) +
        "\n  movi 2, #0\n"
        "loop:\n"
        "  add 2, 2, 1\n  sub 1, 1, #1\n  bnez 1, loop\n" +
        std::string(t % 2 == 0 ? "  mov !9, 2\n" : "  mov 9, 2\n") +
        "  halt\n"));
    f.tile(t).restart();
  }
}

constexpr Workload kWorkloads[] = {
    {"halt", 2, 2, &wl_halt, 10'000},
    {"stall_fast_forward", 1, 2, &wl_stall_fast_forward, 10'000},
    {"stall_past_budget", 1, 1, &wl_stall_past_budget, 500},
    {"remote_tiebreak", 1, 3, &wl_remote_tiebreak, 10'000},
    {"pipeline", 1, 3, &wl_pipeline, 10'000},
    {"branch_loop", 1, 1, &wl_branch_loop, 50'000},
    {"pure_straightline", 1, 1, &wl_pure_straightline, 10'000},
    {"no_link_fault", 1, 2, &wl_no_link_fault, 10'000},
    {"link_down_fault", 1, 2, &wl_link_down_fault, 10'000},
    {"addr_oob_fault", 1, 1, &wl_addr_oob_fault, 10'000},
    {"indirect", 1, 1, &wl_indirect, 10'000},
    {"indirect_oob_fault", 1, 1, &wl_indirect_oob_fault, 10'000},
    {"pc_off_end", 1, 1, &wl_pc_off_end, 10'000},
    {"jmp_oob", 1, 1, &wl_jmp_oob, 10'000},
    {"illegal_poison", 1, 1, &wl_illegal_poison, 10'000},
    {"dense_mesh", 3, 3, &wl_dense_mesh, 50'000},
};

TEST(EngineConformance, WorkloadLibraryMatchesInterpreterBitForBit) {
  for (const auto& wl : kWorkloads) {
    Fabric ref(wl.rows, wl.cols);
    ref.attach_engine(nullptr);  // pin the interpreter
    wl.setup(ref);
    const auto want = ref.run(wl.max_cycles);
    expect_stats_invariant(ref, wl.name);

    for (const EngineKind kind : kEngines) {
      Fabric f(wl.rows, wl.cols);
      attach(f, kind);
      wl.setup(f);
      const auto got = f.run(wl.max_cycles);
      const std::string ctx =
          std::string(wl.name) + " on " + engine_name(kind);
      expect_same_result(got, want, ctx);
      expect_same_state(f, ref, ctx);
      expect_stats_invariant(f, ctx);
    }
  }
}

TEST(EngineConformance, MetricsCounterEndStatesMatch) {
  for (const EngineKind kind : kEngines) {
    obs::MetricsRegistry ref_metrics;
    Fabric ref(3, 3);
    ref.attach_engine(nullptr);
    ref.attach_metrics(&ref_metrics);
    wl_dense_mesh(ref);
    ref.run(50'000);

    obs::MetricsRegistry metrics;
    Fabric f(3, 3);
    attach(f, kind);
    f.attach_metrics(&metrics);
    wl_dense_mesh(f);
    f.run(50'000);

    for (const char* name : {"fabric.cycles", "fabric.retired",
                             "fabric.remote_writes", "fabric.faults"}) {
      EXPECT_EQ(metrics.counter_value(name), ref_metrics.counter_value(name))
          << name << " on " << engine_name(kind);
    }
  }
}

TEST(EngineConformance, TraceStreamsIdenticalIncludingWraparound) {
  // Small capacity forces ring wraparound; the full event sequence (and
  // the drop count) must match the interpreter's exactly.
  for (const auto& wl : kWorkloads) {
    Tracer want_trace(32);
    Fabric ref(wl.rows, wl.cols);
    ref.attach_engine(nullptr);
    ref.attach_tracer(&want_trace);
    wl.setup(ref);
    ref.run(wl.max_cycles);

    for (const EngineKind kind : kEngines) {
      Tracer got_trace(32);
      Fabric f(wl.rows, wl.cols);
      attach(f, kind);
      f.attach_tracer(&got_trace);
      wl.setup(f);
      f.run(wl.max_cycles);

      const std::string ctx =
          std::string(wl.name) + " on " + engine_name(kind);
      EXPECT_EQ(got_trace.dropped(), want_trace.dropped()) << ctx;
      ASSERT_EQ(got_trace.events().size(), want_trace.events().size()) << ctx;
      for (std::size_t i = 0; i < want_trace.events().size(); ++i) {
        const auto& g = got_trace.events()[i];
        const auto& w = want_trace.events()[i];
        const std::string ec = ctx + " event " + std::to_string(i);
        EXPECT_EQ(g.cycle, w.cycle) << ec;
        EXPECT_EQ(g.kind, w.kind) << ec;
        EXPECT_EQ(g.tile, w.tile) << ec;
        EXPECT_EQ(g.pc, w.pc) << ec;
        EXPECT_EQ(g.opcode, w.opcode) << ec;
        EXPECT_EQ(g.dst_tile, w.dst_tile) << ec;
        EXPECT_EQ(g.addr, w.addr) << ec;
        EXPECT_EQ(g.value, w.value) << ec;
      }
    }
  }
}

TEST(EngineConformance, KillRestartStepMixKeepsStatsInvariant) {
  for (const EngineKind kind : kEngines) {
    Fabric ref(2, 2);
    ref.attach_engine(nullptr);
    Fabric f(2, 2);
    attach(f, kind);
    for (Fabric* m : {&ref, &f}) {
      for (int t = 0; t < 4; ++t) {
        m->tile(t).load_program(prog("spin:\n  jmp spin\n"));
        m->tile(t).restart();
      }
      m->run(10);
      m->kill_tile(2);
      m->run(5);
      m->tile(0).stall_until(m->now() + 7);
      for (int i = 0; i < 3; ++i) m->step();
      m->tile(1).restart();
      m->run(4);
    }
    const std::string ctx = std::string("kill_restart on ") +
                            engine_name(kind);
    expect_same_state(f, ref, ctx);
    expect_stats_invariant(f, ctx);
    EXPECT_EQ(f.now(), 22) << ctx;
  }
}

TEST(EngineConformance, ResetReuseMatchesFreshFabric) {
  for (const EngineKind kind : kEngines) {
    // Fresh reference on the interpreter.
    Fabric ref(2, 2);
    ref.attach_engine(nullptr);
    wl_dense_mesh(ref);
    const auto want = ref.run(50'000);

    // Reused fabric on the engine: run something else first, reset, rerun.
    Fabric f(2, 2);
    attach(f, kind);
    wl_halt(f);
    f.run(1'000);
    f.kill_tile(1);
    f.reset();
    wl_dense_mesh(f);
    const auto got = f.run(50'000);

    const std::string ctx = std::string("reset_reuse on ") +
                            engine_name(kind);
    expect_same_result(got, want, ctx);
    expect_same_state(f, ref, ctx);
    EXPECT_NE(f.engine(), nullptr) << ctx << ": reset dropped the engine";
  }
}

// The hoisted link-refresh satellite: rewiring between step()/run() calls
// must be picked up identically by every engine (ExecAccess::begin is the
// one shared place the link cache re-derives).
TEST(EngineConformance, RewiringBetweenStepsIsPickedUpByAllEngines) {
  for (const EngineKind kind : kEngines) {
    Fabric ref(1, 3);
    ref.attach_engine(nullptr);
    Fabric f(1, 3);
    attach(f, kind);
    for (Fabric* m : {&ref, &f}) {
      m->links().set_output(1, Direction::kEast);
      m->tile(1).load_program(prog(
          "  .data 0, 7\n"
          "loop:\n  mov !5, 0\n  add 0, 0, #1\n  jmp loop\n"));
      m->tile(1).restart();
      m->step();  // writes 7 east (tile 2)
      m->links().set_output(1, Direction::kWest);
      m->step();  // add
      m->step();  // jmp
      m->step();  // writes 8 west (tile 0)
      m->run(5);  // and a run() entry must refresh too (loops to a 9 write)
    }
    const std::string ctx = std::string("rewiring on ") + engine_name(kind);
    expect_same_state(f, ref, ctx);
    EXPECT_EQ(to_signed(f.tile(2).dmem(5)), 7) << ctx;
    EXPECT_EQ(to_signed(f.tile(0).dmem(5)), 9) << ctx;
  }
}

TEST(EngineConformance, ImemPokeRespecializesBetweenRuns) {
  // The threaded engine caches per-tile specializations keyed on
  // Tile::code_version(); an instruction-memory poke between runs must be
  // honoured by every engine (stale superinstructions would diverge).
  for (const EngineKind kind : kEngines) {
    Fabric ref(1, 1);
    ref.attach_engine(nullptr);
    Fabric f(1, 1);
    attach(f, kind);
    for (Fabric* m : {&ref, &f}) {
      m->tile(0).load_program(prog(
          "  movi 1, #10\nloop:\n  add 2, 2, #5\n  sub 1, 1, #1\n"
          "  bnez 1, loop\n  halt\n"));
      m->tile(0).restart();
      m->run(1'000);
      // Same deterministic upset on both: flip a bit of the add immediate.
      m->tile(0).flip_inst_bit(1, 2);
      m->tile(0).restart();
      m->run(1'000);
    }
    expect_same_state(f, ref,
                      std::string("imem_poke on ") + engine_name(kind));
  }
}

// The ISA's multiplies wrap: mul keeps the low 48 bits of the product and
// the DSP accumulator wraps modulo 2^64.  Extreme 48-bit operands give
// 94-bit products, past what signed 64-bit arithmetic may hold (the
// sanitizer build makes such an overflow fatal).  Pinned values, on both
// engines.
TEST(EngineConformance, MultiplyWrapsOnExtremeOperands) {
  constexpr std::int64_t kMin = -(std::int64_t{1} << 47);  // -2^47
  constexpr std::int64_t kMax = (std::int64_t{1} << 47) - 1;
  isa::Program p = prog(
      "  mul 2, 0, 1\n"  // -2^94 + 2^47: low 48 bits 2^47
      "  mul 3, 0, 0\n"  // 2^94: low 48 bits 0
      "  mul 4, 1, 1\n"  // 2^94 - 2^48 + 1: low 48 bits 1
      "  macz 0, 1\n"    // acc = -2^94 + 2^47, wraps to 2^47
      "  macr 5\n"
      "  mac 1, 1\n"     // acc += 2^94 - 2^48 + 1, wraps to 1 - 2^47
      "  macr 6\n"
      "  mac 0, 0\n"     // acc += 2^94, wraps to +0
      "  macr 7\n"
      "  halt\n");
  p.data.push_back(isa::DataPatch{0, from_signed(kMin)});
  p.data.push_back(isa::DataPatch{1, from_signed(kMax)});
  for (const EngineKind kind : kEngines) {
    Fabric f(1, 1);
    attach(f, kind);
    f.tile(0).load_program(p);
    f.tile(0).restart();
    ASSERT_TRUE(f.run(100).ok()) << engine_name(kind);
    const auto& t = f.tile(0);
    EXPECT_EQ(t.dmem(2), Word{0x8000'0000'0000}) << engine_name(kind);
    EXPECT_EQ(t.dmem(3), Word{0}) << engine_name(kind);
    EXPECT_EQ(t.dmem(4), Word{1}) << engine_name(kind);
    EXPECT_EQ(to_signed(t.dmem(5)), kMin) << engine_name(kind);
    EXPECT_EQ(to_signed(t.dmem(6)), kMin + 1) << engine_name(kind);
    EXPECT_EQ(to_signed(t.dmem(7)), kMin + 1) << engine_name(kind);
  }
}

// --- unit coverage ----------------------------------------------------------

TEST(Blocks, SegmentsLeadersBranchesAndTerminators) {
  const auto p = prog(
      "  movi 0, #1\n"        // 0  block 0 [0,3) falls into loop
      "  movi 1, #4\n"        // 1
      "loop:\n"               // hmm: label on next line
      "  add 0, 0, #1\n"      // 2
      "  sub 1, 1, #1\n"      // 3
      "  bnez 1, loop\n"      // 4  branch -> leader at 2
      "  halt\n");            // 5
  const auto blocks = isa::segment_blocks(isa::predecode_all(p.code));
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[0].begin, 0);
  EXPECT_EQ(blocks[0].end, 2);
  EXPECT_EQ(blocks[0].term, isa::BlockTerm::kFallthrough);
  EXPECT_EQ(blocks[1].begin, 2);
  EXPECT_EQ(blocks[1].end, 5);
  EXPECT_EQ(blocks[1].term, isa::BlockTerm::kBranch);
  EXPECT_EQ(blocks[2].begin, 5);
  EXPECT_EQ(blocks[2].end, 6);
  EXPECT_EQ(blocks[2].term, isa::BlockTerm::kHalt);
}

TEST(Blocks, CoverageIsExactAndOrdered) {
  SplitMix64 rng(7);
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<isa::Instruction> code;
    const int n = 1 + static_cast<int>(rng.next_below(40));
    for (int i = 0; i < n; ++i) {
      isa::Instruction in;
      in.opcode = static_cast<isa::Opcode>(
          rng.next_below(static_cast<std::uint64_t>(isa::Opcode::kOpcodeCount) +
                         1));  // includes the poisoned kOpcodeCount slot
      in.imm = static_cast<std::int32_t>(rng.next_below(60)) - 10;
      code.push_back(in);
    }
    const auto blocks = isa::segment_blocks(isa::predecode_all(code));
    int expect_begin = 0;
    for (const auto& b : blocks) {
      EXPECT_EQ(b.begin, expect_begin);
      EXPECT_GT(b.end, b.begin);
      expect_begin = b.end;
    }
    EXPECT_EQ(expect_begin, n);
  }
  EXPECT_TRUE(isa::segment_blocks({}).empty());
}

TEST(EngineApi, SpecParsingRoundTrips) {
  for (const EngineKind kind : kEngines) {
    EXPECT_EQ(engine_from_name(engine_name(kind)), kind);
  }
  EXPECT_STREQ(engine_name(EngineKind::kInterp), "interp");
  EXPECT_STREQ(engine_name(EngineKind::kThreaded), "threaded");
  for (const char* bad : {"batch", "batch:16", "threaded:4", "simd", ""}) {
    EXPECT_FALSE(engine_from_name(bad).has_value()) << bad;
  }
}

TEST(EngineApi, EngineFlagRejectsUnknownNamesWithStatus2) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* flag : {"--engine=batch", "--engine=batch:16"}) {
    char prog_name[] = "prog";
    std::string arg = flag;
    char* argv[] = {prog_name, arg.data(), nullptr};
    int argc = 2;
    EXPECT_EXIT(apply_engine_flag(&argc, argv), ::testing::ExitedWithCode(2),
                "invalid --engine")
        << flag;
  }
}

TEST(EngineApi, ProcessDefaultResolvesLazilyAndInterpClears) {
  const EngineKind saved = process_engine();
  use_process_engine(EngineKind::kThreaded);
  Fabric f(1, 1);
  f.tile(0).load_program(prog("  movi 0, #3\n  halt\n"));
  f.tile(0).restart();
  f.run(100);
  ASSERT_NE(f.engine(), nullptr);
  EXPECT_EQ(static_cast<ExecutionEngine*>(f.engine())->kind(),
            EngineKind::kThreaded);
  EXPECT_EQ(to_signed(f.tile(0).dmem(0)), 3);

  use_process_engine(EngineKind::kInterp);
  Fabric g(1, 1);
  g.tile(0).load_program(prog("  halt\n"));
  g.tile(0).restart();
  g.run(100);
  EXPECT_EQ(g.engine(), nullptr);
  use_process_engine(saved);
}

TEST(EngineApi, AttachNullptrPinsInterpreterAgainstProcessDefault) {
  const EngineKind saved = process_engine();
  use_process_engine(EngineKind::kThreaded);
  Fabric f(1, 1);
  f.attach_engine(nullptr);
  f.tile(0).load_program(prog("  movi 0, #9\n  halt\n"));
  f.tile(0).restart();
  f.run(100);
  EXPECT_EQ(f.engine(), nullptr);
  EXPECT_EQ(to_signed(f.tile(0).dmem(0)), 9);
  use_process_engine(saved);
}

// --- randomized differential fuzz ------------------------------------------

isa::Program random_program(SplitMix64& rng) {
  isa::Program p;
  const int n = 4 + static_cast<int>(rng.next_below(28));
  for (int i = 0; i < n; ++i) {
    isa::Instruction in;
    in.opcode = static_cast<isa::Opcode>(
        rng.next_below(static_cast<std::uint64_t>(isa::Opcode::kOpcodeCount)));
    in.flags = static_cast<std::uint8_t>(rng.next() & 0x1F);
    const auto addr = [&rng]() -> std::uint16_t {
      // Mostly in-range, occasionally statically out of range.
      return rng.next_below(12) == 0
                 ? static_cast<std::uint16_t>(512 + rng.next_below(200))
                 : static_cast<std::uint16_t>(rng.next_below(48));
    };
    in.dst = addr();
    in.srca = addr();
    in.srcb = addr();
    // Branch targets cluster in range with occasional escapes.
    in.imm = static_cast<std::int32_t>(rng.next_below(
                 static_cast<std::uint64_t>(n) + 6)) -
             3;
    p.code.push_back(in);
  }
  for (int a = 0; a < 16; ++a) {
    p.data.push_back(isa::DataPatch{
        a, static_cast<Word>(rng.next() &
                             (rng.next_below(4) == 0 ? kWordMask : 0x3F))});
  }
  return p;
}

TEST(EngineFuzz, DifferentialAcrossAllEnginesOn64RandomPrograms) {
  SplitMix64 rng(0xC64A'F00D);
  for (int iter = 0; iter < 64; ++iter) {
    isa::Program programs[4];
    for (auto& p : programs) p = random_program(rng);
    // Odd iterations run linkless: no tile can interact, so
    // remote-flagged writes fault with kNoActiveLink.
    const bool linked = (iter % 2) == 0;
    const auto setup = [&programs, linked](Fabric& f) {
      if (linked) {
        f.links().set_output(0, Direction::kEast);
        f.links().set_output(1, Direction::kSouth);
        f.links().set_output(3, Direction::kWest);
      }
      for (int t = 0; t < 4; ++t) {
        f.tile(t).load_program(programs[t]);
        f.tile(t).restart();
      }
    };

    Fabric ref(2, 2);
    ref.attach_engine(nullptr);
    setup(ref);
    const auto want = ref.run(2'000);
    expect_stats_invariant(ref, "fuzz ref " + std::to_string(iter));

    Fabric f(2, 2);
    attach(f, EngineKind::kThreaded);
    setup(f);
    const auto got = f.run(2'000);
    const std::string ctx = "fuzz " + std::to_string(iter);
    expect_same_result(got, want, ctx);
    expect_same_state(f, ref, ctx);
  }
}

}  // namespace
}  // namespace cgra::engine
