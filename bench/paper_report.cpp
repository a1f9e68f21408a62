// Regenerates the paper's evaluation — Tables 1-5, Figures 8 and 10-17,
// the ablations of its premises and the executed-vs-model validation — and
// checks every numeric claim of EXPERIMENTS.md against the figure it just
// computed.
//
// Takes no flags.  Prints each table, writes BENCH_paper_report.json with
// every table plus one metric per claim, and exits 1 naming each claim
// that fails.  ctest runs it as `paper_report` (label `paper`) in every
// build the suite runs in; engine::install_build_default() puts the
// threaded-engine build on its engine, so each engine meets the same
// claims.
//
// A figure EXPERIMENTS.md prints plainly is a deterministic model output
// and must match to the printed precision; "~x" means within 5% of x; a
// range "lo-hi" is checked to its printed precision.  Ratios of figures
// pinned here are not asserted again, and claims an existing gtest pins
// are cited, not repeated.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "apps/fft/fabric_fft.hpp"
#include "apps/fft/programs.hpp"
#include "apps/fft/twiddle.hpp"
#include "apps/jpeg/fabric_jpeg.hpp"
#include "apps/jpeg/process_table.hpp"
#include "common/prng.hpp"
#include "common/table.hpp"
#include "common/timing.hpp"
#include "dse/fft_perf_model.hpp"
#include "dse/sweep.hpp"
#include "engine/engine.hpp"
#include "mapping/placement.hpp"
#include "mapping/rebalance.hpp"
#include "obs/bench_report.hpp"

namespace {

using namespace cgra;
using mapping::CostParams;
using mapping::RebalanceAlgorithm;

/// One EXPERIMENTS.md figure: holds when |measured - expected| <= tolerance.
struct Claim {
  std::string what;
  double measured = 0.0;
  double expected = 0.0;
  double tolerance = 0.0;

  [[nodiscard]] bool holds() const {
    return std::abs(measured - expected) <= tolerance;
  }
};
using Claims = std::vector<Claim>;

/// A figure printed with `decimals` places (negative: rounded to tens,
/// hundreds, ...): it must round to that value.
Claim exact(std::string what, double measured, double expected,
            int decimals = 0) {
  return {std::move(what), measured, expected,
          0.5 * std::pow(10.0, -decimals)};
}

/// A range "lo-hi" printed with `decimals` places.
Claim within(std::string what, double measured, double lo, double hi,
             int decimals = 0) {
  return {std::move(what), measured, (lo + hi) / 2,
          (hi - lo) / 2 + 0.5 * std::pow(10.0, -decimals)};
}

/// A figure given as "~x".
Claim approx(std::string what, double measured, double x) {
  return {std::move(what), measured, x, 0.05 * std::abs(x)};
}

constexpr RebalanceAlgorithm kAlgos[3] = {RebalanceAlgorithm::kOne,
                                          RebalanceAlgorithm::kTwo,
                                          RebalanceAlgorithm::kOpt};
constexpr int kMaxTiles = 25;  // Figs. 16/17; Table 5 is the 24-tile point

/// Inputs several sections share, computed once.
struct Inputs {
  fft::FftGeometry g = fft::make_geometry(1024);
  dse::Sweep sweep;
  /// Table 1's measured column; Figs. 10-12 feed it to the tau model.
  dse::FftProcessTimes times = sweep.measure_process_times(g);
  std::vector<jpeg::ManualMapping> table4 = jpeg::table4_manual_mappings();
  procnet::ProcessNetwork jpeg_net = jpeg::jpeg_main_pipeline();
  /// One rebalancer sweep over 1..kMaxTiles tiles per kAlgos entry.
  std::array<std::vector<mapping::SweepPoint>, 3> sweeps = {
      sweep.rebalance_sweep(jpeg_net, kMaxTiles, kAlgos[0], CostParams{}),
      sweep.rebalance_sweep(jpeg_net, kMaxTiles, kAlgos[1], CostParams{}),
      sweep.rebalance_sweep(jpeg_net, kMaxTiles, kAlgos[2], CostParams{})};

  [[nodiscard]] int dct_replicas(const mapping::Binding& b) const {
    for (const auto& grp : b.groups) {
      if (grp.procs.size() == 1 && jpeg_net.process(grp.procs[0]).name == "DCT")
        return grp.replication;
    }
    return 0;
  }
};

void show(obs::BenchReport& report, const char* name, const TextTable& t) {
  std::printf("%s\n", t.render().c_str());
  report.add_table(name, t);
}

double images_per_sec(const mapping::BindingEval& eval) {
  return eval.items_per_sec / jpeg::kPaperImageBlocks;
}

std::vector<fft::Cplx> random_input(int n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<fft::Cplx> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = {rng.next_double(-1, 1), rng.next_double(-1, 1)};
  return x;
}

Claims table1(const Inputs& in, obs::BenchReport& report) {
  const auto& g = in.g;
  std::printf("Table 1 — 1024-point Radix2 FFT processes (N=%d, M=%d)\n\n",
              g.n, g.m);
  const double paper_bf_ns[10] = {2672, 2672, 2672, 4112, 3434,
                                  3134, 3062, 3182, 3554, 4364};
  const double measured_bf_ns[10] = {1452, 1452, 1452, 1452, 1480,
                                     1510, 1570, 1690, 1930, 2410};
  const isa::Program bf_prog =
      fft::must_assemble(fft::bf_pair_source(fft::make_layout(g.m)));
  TextTable table({"process", "paper runtime(ns)", "measured runtime(ns)",
                   "twiddles", "insts", "dmem words"});
  // Pinned elsewhere: the pair-kernel stages share one runtime and deep
  // stages rise (FabricFft.MeasuredBfCyclesMatchTable1Shape), hcp ~ 2x vcp
  // (FabricFft.MeasuredCopyMatchesPaperShape), the twiddle column
  // (Partition.TwiddleColumnMatchesTable1).
  Claims c;
  for (int s = 0; s < g.stages; ++s) {
    const double ns = in.times.bf[static_cast<std::size_t>(s)];
    table.add_row({"BF" + std::to_string(s), TextTable::num(paper_bf_ns[s], 0),
                   TextTable::num(ns, 0),
                   TextTable::integer(g.twiddles_for_stage(s)),
                   TextTable::integer(bf_prog.inst_words()),
                   TextTable::integer(3 * g.m + 41)});  // paper's 3M+41
    c.push_back(exact("Table 1 BF" + std::to_string(s) + " ns", ns,
                      measured_bf_ns[s]));
  }
  table.add_row(
      {"vcp", "789", TextTable::num(in.times.vcp, 0), "0", "9", "11"});
  table.add_row(
      {"hcp", "1557", TextTable::num(in.times.hcp, 0), "0", "9", "11"});
  show(report, "table1", table);
  c.push_back(exact("Table 1 vcp ns", in.times.vcp, 810));
  c.push_back(exact("Table 1 hcp ns", in.times.hcp, 1610));
  return c;
}

Claims table2(const Inputs& in, obs::BenchReport& report) {
  const auto& g = in.g;
  const IcapModel icap;
  const int reg_cp = 2;  // source + destination variable per vcp
  std::printf("Table 2 — optimised copy processes (N=%d, M=%d, rows=%d)\n\n",
              g.n, g.m, g.rows);
  TextTable table({"cols", "retargets", "prev. cost(ns) [ICAP reload]",
                   "new cost(ns) [in-place]", "improvement(ns)"});
  const double paper_prev[4] = {1066.6, 1066.6, 533.3, 0.0};
  const double paper_new[4] = {15.0, 15.0, 10.0, 0.0};
  const double ours_prev[4] = {1066.7, 1066.7, 533.3, 0.0};
  const double ours_new[4] = {30.0, 30.0, 15.0, 0.0};
  Claims c;
  int idx = 0;
  for (const int cols : {1, 2, 5, 10}) {
    // Retargets per transform: one fewer than the vertical copy executions
    // that remain visible (see dse::evaluate_fft_design).
    const double frac = 1.0 - static_cast<double>(cols - 1) / g.stages;
    const int execs =
        std::max(cols >= g.stages ? 1 : 0,
                 static_cast<int>(std::ceil(g.cross_stages() * frac)));
    const int retargets = std::max(0, execs - 1);
    const double prev_ns =
        icap.data_reload_ns(static_cast<long long>(reg_cp) * g.rows) *
        retargets;
    // The in-place update: add ps, add pb, movi cnt (x2 vars) — 6
    // instructions per retarget.
    const double new_ns = cycles_to_ns(6) * retargets;
    table.add_row({TextTable::integer(cols), TextTable::integer(retargets),
                   TextTable::num(prev_ns, 1), TextTable::num(new_ns, 1),
                   TextTable::num(prev_ns - new_ns, 1)});
    std::printf("  paper row (cols=%d): prev %.1f ns, new %.1f ns\n", cols,
                paper_prev[idx], paper_new[idx]);
    const std::string at = " at " + std::to_string(cols) + " cols";
    c.push_back(exact("Table 2 ICAP reload ns" + at, prev_ns, ours_prev[idx],
                      1));
    c.push_back(exact("Table 2 in-place ns" + at, new_ns, ours_new[idx], 1));
    ++idx;
  }
  std::printf("\n");
  show(report, "table2", table);
  // That a resident copy loop is retargeted by data patches alone, with no
  // instruction reload, is pinned by
  // FftPrograms.CopyLoopRetargetableViaPatches.
  return c;
}

Claims fig8(const Inputs& in, obs::BenchReport& report) {
  {
    const auto g = fft::make_geometry(64, 8);
    const auto tw = fft::analyze_twiddles(g, 1);  // single column
    std::printf("Figure 8 — twiddle classes, 64-point FFT, M=8, one column\n");
    std::printf("(steady state; R=red/preloaded, G=green/generated, "
                "B=blue/resident, Y=yellow/ICAP reload)\n\n");
    std::map<std::pair<int, int>, const fft::TwiddleSlot*> grid;
    for (const auto& slot : tw.slots) grid[{slot.row, slot.stage}] = &slot;
    TextTable table({"row", "s0", "s1", "s2", "s3", "s4", "s5"});
    for (int r = 0; r < g.rows; ++r) {
      std::vector<std::string> row = {TextTable::integer(r)};
      for (int s = 0; s < g.stages; ++s) {
        const auto* slot = grid.at({r, s});
        std::string cell(1, "RBGY"[static_cast<int>(slot->cls)]);
        row.push_back(cell + "(" + std::to_string(slot->words) + ")");
      }
      table.add_row(row);
    }
    show(report, "fig8_grid", table);
  }

  // The paper rule's words per column count are pinned by
  // Twiddle.PaperRuleReproducesCaseTable, its closed form (1536) by
  // Twiddle.PaperEstimateOrderOfMagnitude.
  const auto& g = in.g;
  std::printf(
      "1024-point, M=128 — reload accounting per transform (words):\n\n");
  TextTable table({"cols", "naive", "empirical yellow", "green generated",
                   "paper rule (events x N/2)"});
  const std::map<int, double> empirical = {
      {1, 1280}, {2, 1280}, {5, 1536}, {10, 0}};
  Claims c;
  for (const auto& [cols, words] : empirical) {
    const auto tw = fft::analyze_twiddles(g, cols);
    table.add_row({TextTable::integer(cols),
                   TextTable::integer(tw.naive_words),
                   TextTable::integer(tw.reload_words),
                   TextTable::integer(tw.generated_words),
                   TextTable::integer(fft::paper_reload_words(g, cols))});
    c.push_back(exact("Fig. 8 empirical reload words at " +
                          std::to_string(cols) + " cols",
                      static_cast<double>(tw.reload_words), words));
    c.push_back(exact("Fig. 8 naive words at " + std::to_string(cols) +
                          " cols",
                      static_cast<double>(tw.naive_words), 5120));
  }
  show(report, "reload_accounting", table);
  return c;
}

double fft_per_sec(const Inputs& in, int cols, double link_ns) {
  return dse::evaluate_fft_design(in.g, in.times, cols, link_ns)
      .throughput_per_sec();
}

Claims fig10_11(const Inputs& in, obs::BenchReport& report) {
  std::printf(
      "Figure 10/11 — #1024-point R2FFTs per second vs link cost L\n"
      "(paper anchors at L=0: one col ~12000, ten cols ~45000; PC ~1000)\n\n");
  TextTable table({"L(ns)", "one col", "two cols", "five cols", "10 cols"});
  for (int link = 0; link <= 5000; link += 250) {
    std::vector<std::string> row = {TextTable::integer(link)};
    for (const int cols : {1, 2, 5, 10}) {
      row.push_back(TextTable::num(fft_per_sec(in, cols, link), 0));
    }
    table.add_row(row);
  }
  show(report, "fig10_11", table);

  // That wider designs decay faster in L is pinned by
  // FftModel.WiderDesignsAreMoreSensitiveToLinkCost.
  Claims c;
  // Stated in thousands: 13.5k to the hundred, 155k to the thousand.
  const int at_l0[4][3] = {
      {1, 13500, -2}, {2, 14900, -2}, {5, 22800, -2}, {10, 155000, -3}};
  for (const auto& [cols, per_sec, decimals] : at_l0) {
    c.push_back(exact("Fig. 10 FFT/s at L=0, " + std::to_string(cols) +
                          " cols",
                      fft_per_sec(in, cols, 0), per_sec, decimals));
  }
  // Crossovers: the first L (10 ns steps, so "~1110 ns" is checked to one
  // step) at which the wider design falls below the narrower one.
  const int crossovers[3][3] = {{10, 5, 1110}, {5, 2, 1430}, {2, 1, 970}};
  for (const auto& [wide, narrow, expected_ns] : crossovers) {
    int at = -1;
    for (int link = 0; link <= 8000 && at < 0; link += 10) {
      if (fft_per_sec(in, wide, link) < fft_per_sec(in, narrow, link)) {
        at = link;
      }
    }
    if (at >= 0) {
      std::printf("%2d cols fall below %d cols at L ~ %d ns\n", wide, narrow,
                  at);
    } else {
      std::printf("%2d cols never fall below %d cols for L <= 8000 ns\n",
                  wide, narrow);
    }
    c.push_back({"Fig. 11 crossover " + std::to_string(wide) + "->" +
                     std::to_string(narrow) + " cols (ns)",
                 static_cast<double>(at), static_cast<double>(expected_ns),
                 10});
  }
  std::printf("\n");

  // The paper's own Table-1 runtimes through its own equations.
  dse::FftProcessTimes paper;
  paper.bf = {2672, 2672, 2672, 4112, 3434, 3134, 3062, 3182, 3554, 4364};
  paper.vcp = 789;
  paper.hcp = 1557;
  c.push_back(approx(
      "Fig. 10 paper's Table 1 through Eqs. 2-14, FFT/s at 10 cols, L=0",
      dse::evaluate_fft_design(in.g, paper, 10, 0).throughput_per_sec(),
      120000));
  return c;
}

Claims fig12(const Inputs& in, obs::BenchReport& report) {
  std::printf("Figure 12 — throughput vs #columns for several link costs\n\n");
  const auto cols_opts = dse::usable_column_counts(in.g);
  std::vector<std::string> header = {"cost(ns)"};
  for (const int cols : cols_opts) {
    header.push_back(std::to_string(cols) + " col");
  }
  TextTable table(header);
  std::string best_lines;
  Claims c;
  for (int cost = 0; cost <= 1500; cost += 100) {
    std::vector<std::string> row = {TextTable::integer(cost)};
    int best_cols = 0;
    double best = -1.0;
    for (const int cols : cols_opts) {
      const double t = fft_per_sec(in, cols, cost);
      row.push_back(TextTable::num(t, 0));
      if (t > best) {
        best = t;
        best_cols = cols;
      }
    }
    table.add_row(row);
    char line[64];
    std::snprintf(line, sizeof line,
                  "  L=%4d ns -> %2d columns (%.0f FFT/s)\n", cost, best_cols,
                  best);
    best_lines += line;
    // 10 columns up to L ~ 1100 ns, 5 at ~1200 ns, 1 from ~1300 ns.
    const int expected = cost <= 1100 ? 10 : cost == 1200 ? 5 : 1;
    c.push_back(exact("Fig. 12 best column count at L=" +
                          std::to_string(cost),
                      best_cols, expected));
  }
  show(report, "fig12", table);
  std::printf("Best design per link cost:\n%s\n", best_lines.c_str());
  return c;
}

Claims table3(const Inputs&, obs::BenchReport& report) {
  const auto measured = jpeg::measure_jpeg_kernels();
  // Entropy coding of a representative block on the fabric (the paper
  // splits it into hman1..5; our table-driven form fits one tile).
  std::int64_t hman_cycles = 0;
  {
    SplitMix64 rng(0x7AB1E3);
    jpeg::IntBlock raw{};
    for (auto& px : raw) px = static_cast<int>(rng.next_below(256));
    const auto zz = jpeg::encode_block_stages(raw, jpeg::scaled_quant(50));
    const auto entropy = jpeg::encode_entropy_on_fabric(zz, 0);
    if (entropy.ok()) hman_cycles = entropy.cycles;
  }
  const std::map<std::string, std::string> measured_for = {
      {"shift", std::to_string(measured.shift)},
      {"DCT", std::to_string(measured.dct)},
      {"Quantize", std::to_string(measured.quantize)},
      {"Zigzag", std::to_string(measured.zigzag)},
      {"Hman1", std::to_string(hman_cycles) + " (all 5)"}};
  std::printf("Table 3 — JPEG process annotations\n\n");
  TextTable table({"process", "insts", "data1", "data2", "data3",
                   "paper runtime(cycles)", "measured(cycles)"});
  for (const auto& p : jpeg::paper_table3_processes()) {
    const auto it = measured_for.find(p.name);
    table.add_row({p.name, TextTable::integer(p.insts),
                   TextTable::integer(p.data1), TextTable::integer(p.data2),
                   TextTable::integer(p.data3),
                   TextTable::integer(p.runtime_cycles),
                   // "-": a helper process without a standalone kernel.
                   it != measured_for.end() ? it->second : "-"});
  }
  show(report, "table3", table);
  // The zigzag's 65-instruction footprint is pinned by
  // JpegFabric.ZigzagFootprintIs65Words.
  return {
      exact("Table 3 shift cycles", measured.shift, 259),
      exact("Table 3 DCT cycles", measured.dct, 6359),
      exact("Table 3 quantize cycles", measured.quantize, 516),
      exact("Table 3 zigzag cycles", measured.zigzag, 65),
      approx("Table 3 entropy cycles per block", hman_cycles, 2400),
  };
}

Claims table4(const Inputs& in, obs::BenchReport& report) {
  std::printf("Table 4 — JPEG encoder manual mappings (200x200 image, %d "
              "blocks)\n\n",
              jpeg::kPaperImageBlocks);
  struct Row {
    double paper_us, paper_util, paper_images;
    bool paper_reconfig;
    double us, util, images;  // ours, as EXPERIMENTS.md prints them
  };
  const std::map<std::string, Row> rows = {
      {"Impl1", {419, 1.00, 2.98, true, 406.9, 1.00, 3.93}},
      {"Impl2", {334, 0.62, 3.74, true, 333.3, 0.61, 4.80}},
      {"Impl3", {334, 0.12, 3.74, false, 333.3, 0.12, 4.80}},
      {"Impl4", {84, 0.37, 14.88, false, 83.4, 0.36, 19.18}},
      {"Impl5", {86, 0.98, 14.43, true, 83.4, 0.97, 19.18}},
  };
  TextTable table({"impl", "tiles", "binding", "II(us)", "paper II(us)",
                   "util", "paper util", "images/s", "paper img/s",
                   "reconfig", "reLink"});
  // Impl2 == Impl3, Impl4 ~ Impl5 and the ~4x DCT split are pinned by
  // Table4.DctBoundPairsShareThroughput, the reLink flags by
  // Table4.ReLinkOnlyWhenDctReplicated.
  Claims c;
  for (const auto& m : in.table4) {
    const auto eval = mapping::evaluate(m.network, m.binding, CostParams{});
    const auto& r = rows.at(m.name);
    table.add_row({m.name, TextTable::integer(m.tiles),
                   m.binding.describe(m.network).substr(0, 40),
                   TextTable::num(eval.ii_ns / 1000.0, 1),
                   TextTable::num(r.paper_us, 0),
                   TextTable::num(eval.avg_utilization, 2),
                   TextTable::num(r.paper_util, 2),
                   TextTable::num(images_per_sec(eval), 2),
                   TextTable::num(r.paper_images, 2),
                   eval.needs_reconfig ? "yes" : "no",
                   eval.needs_relink ? "yes" : "no"});
    const std::string impl = "Table 4 " + m.name;
    c.push_back(exact(impl + " II us", eval.ii_ns / 1000.0, r.us, 1));
    c.push_back(
        exact(impl + " utilisation", eval.avg_utilization, r.util, 2));
    c.push_back(
        exact(impl + " images/s", images_per_sec(eval), r.images, 2));
    c.push_back(exact(impl + " reconfig flag as in the paper",
                      eval.needs_reconfig, r.paper_reconfig));
  }
  show(report, "table4", table);
  return c;
}

Claims table5(const Inputs& in, obs::BenchReport& report) {
  const auto& net = in.jpeg_net;
  std::printf("Table 5 — binding JPEG processes to 24 tiles "
              "(reBalanceOne)\n\n");
  std::printf("Paper: T1:p0  T2:p1(17)  T3:p2-4  T4:p5(2)  T5:p6  T6:p7-8  "
              "T7:p9\n\n");
  std::array<const mapping::SweepPoint*, 3> at24{};
  for (std::size_t a = 0; a < 3; ++a) {
    at24[a] = &in.sweeps[a][23];
    const auto& binding = at24[a]->binding;
    const auto& eval = at24[a]->eval;
    std::printf("%s (%d tiles):\n", mapping::rebalance_name(kAlgos[a]),
                binding.tile_count());
    TextTable table({"tile group", "processes", "replicas", "busy(us)",
                     "effective(us)"});
    for (std::size_t i = 0; i < binding.groups.size(); ++i) {
      const auto& grp = binding.groups[i];
      std::string procs;
      for (const int p : grp.procs) {
        if (!procs.empty()) procs += " ";
        procs += net.process(p).name;
      }
      const double busy = eval.groups[i].busy_ns() / 1000.0;
      table.add_row({"T" + std::to_string(i + 1), procs,
                     TextTable::integer(grp.replication),
                     TextTable::num(busy, 1),
                     TextTable::num(busy / grp.replication, 1)});
    }
    std::printf("%s", table.render().c_str());
    report.add_table(mapping::rebalance_name(kAlgos[a]), table);
    std::printf("  II = %.1f us, %.2f images/s, avg util %.2f\n\n",
                eval.ii_ns / 1000.0, images_per_sec(eval),
                eval.avg_utilization);
  }

  // The paper's grouping, p0..p9 being the pipeline's processes in order.
  const char* paper =
      "T0: shift  T1: DCT (x17)  T2: Alpha Quantize Zigzag  T3: Hman1 (x2)  "
      "T4: Hman2  T5: Hman3 Hman4  T6: Hman5";
  Claims c = {exact("Table 5 reBalanceOne binding is the paper's",
                    at24[0]->binding.describe(net) == paper, 1)};
  for (std::size_t a = 1; a < 3; ++a) {
    const std::string name =
        std::string("Table 5 ") + mapping::rebalance_name(kAlgos[a]);
    c.push_back(exact(name + " DCT replicas",
                      in.dct_replicas(at24[a]->binding), 18));
    c.push_back(approx(name + " % throughput over reBalanceOne",
                       100.0 * (at24[a]->eval.items_per_sec /
                                    at24[0]->eval.items_per_sec -
                                1.0),
                       6));
  }
  return c;
}

Claims fig16_17(const Inputs& in, obs::BenchReport& report) {
  TextTable fig16({"tiles", "reBalanceOne", "reBalanceTwo", "reBalanceOPT"});
  TextTable fig17({"tiles", "reBalanceOne", "reBalanceTwo", "reBalanceOPT"});
  int differing = 0;
  int first_differing = 0;
  double min_util = 1.0;
  double max_util = 0.0;
  for (int i = 0; i < kMaxTiles; ++i) {
    const auto& one = in.sweeps[0][i].eval;
    const auto& two = in.sweeps[1][i].eval;
    const auto& opt = in.sweeps[2][i].eval;
    fig16.add_row({TextTable::integer(i + 1),
                   TextTable::num(images_per_sec(one), 2),
                   TextTable::num(images_per_sec(two), 2),
                   TextTable::num(images_per_sec(opt), 2)});
    fig17.add_row({TextTable::integer(i + 1),
                   TextTable::num(one.avg_utilization, 3),
                   TextTable::num(two.avg_utilization, 3),
                   TextTable::num(opt.avg_utilization, 3)});
    if (std::abs(one.items_per_sec - two.items_per_sec) > 1e-6 ||
        std::abs(two.items_per_sec - opt.items_per_sec) > 1e-6) {
      ++differing;
      if (first_differing == 0) first_differing = i + 1;
    }
    for (const auto* e : {&one, &two, &opt}) {
      min_util = std::min(min_util, e->avg_utilization);
      max_util = std::max(max_util, e->avg_utilization);
    }
  }
  std::printf("Figure 16 — images/s vs number of tiles (200x200 image)\n\n");
  show(report, "fig16_images_per_sec", fig16);
  std::printf("Figure 17 — average tile utilisation vs number of tiles\n\n");
  show(report, "fig17_utilization", fig17);
  std::printf(
      "The three algorithms differ at %d of %d tile counts (paper: only in\n"
      "the 16-20 tile region, where the heaviest tile hosts several\n"
      "processes and redistribution has room to work).\n\n",
      differing, kMaxTiles);

  // Each DCT replica is worth ~4.8 img/s: the peak over its replica count.
  const auto& peak = in.sweeps[2][kMaxTiles - 1];
  return {
      exact("Fig. 16 tile counts where the rebalancers coincide",
            kMaxTiles - differing, 16),
      exact("Fig. 16 first tile count where they differ", first_differing,
            16),
      approx("Fig. 16 img/s per DCT replica at 25 tiles",
             images_per_sec(peak.eval) / in.dct_replicas(peak.binding), 4.8),
      within("Fig. 17 lowest utilisation", min_util, 0.4, 1.0, 1),
      within("Fig. 17 highest utilisation", max_util, 0.4, 1.0, 1),
  };
}

Claims fig13_14(const Inputs&, obs::BenchReport& report) {
  // The five-process pipeline of Figs. 13/14.  Runtimes reconstructed from
  // the figure's step annotations: one tile holds all five at 4200 ns and
  // the splits produce the figure's 1100/800/1400/900 pattern.
  const std::pair<const char*, int> spec[5] = {
      {"p1", 1100}, {"p2", 800}, {"p3", 500}, {"p4", 900}, {"p5", 900}};
  std::vector<procnet::Process> procs;
  for (const auto& [name, ns] : spec) {
    procnet::Process p;
    p.name = name;
    p.runtime_cycles = ns * 2 / 5;  // ns -> cycles at 2.5 ns
    p.insts = 20;
    procs.push_back(p);
  }
  const auto net = procnet::ProcessNetwork::pipeline(std::move(procs), 16);
  const CostParams params{};
  Claims c;
  std::printf("Figure 13 — reBalanceOne, one tile at a time\n\n");
  const double descent[5] = {4200, 2300, 1900, 1400, 1100};
  for (int tiles = 1; tiles <= 5; ++tiles) {
    const auto b =
        mapping::rebalance(net, tiles, RebalanceAlgorithm::kOne, params);
    const auto eval = mapping::evaluate(net, b, params);
    std::printf("  %d tile(s): %-55s makespan %.0f ns\n", tiles,
                b.describe(net).c_str(), eval.ii_ns);
    c.push_back(exact("Fig. 13 makespan at " + std::to_string(tiles) +
                          " tile(s)",
                      eval.ii_ns, descent[tiles - 1]));
  }
  std::printf(
      "\nFigure 14 — refining the allocation around the heaviest tile\n"
      "(at 4 tiles, where the greedy split leaves an imbalance)\n\n");
  TextTable table({"algorithm", "binding", "makespan(ns)"});
  for (const auto algo : kAlgos) {
    const auto b = mapping::rebalance(net, 4, algo, params);
    const auto eval = mapping::evaluate(net, b, params);
    table.add_row({mapping::rebalance_name(algo), b.describe(net),
                   TextTable::num(eval.ii_ns, 0)});
    c.push_back(exact(std::string("Fig. 14 ") + mapping::rebalance_name(algo) +
                          " makespan at 4 tiles",
                      eval.ii_ns,
                      algo == RebalanceAlgorithm::kOne ? 1400 : 1300));
  }
  show(report, "fig14", table);
  return c;
}

Claims ablation_overlap(const Inputs&, obs::BenchReport& report) {
  std::printf("Ablation — partial vs full reconfiguration\n\n");
  TextTable table({"workload", "partial (executed ns)",
                   "full-stall (executed ns)", "hidden by overlap"});
  Claims c;
  int failed_runs = 0;
  for (const int n : {32, 64, 128}) {
    const auto g = fft::make_geometry(n, n <= 64 ? 8 : 16);
    // The same transform twice: partial reconfiguration lets untouched
    // tiles compute through a transition; the single-context array stalls
    // all of them until the transition has streamed in.
    auto executed_ns = [&](bool partial) {
      fft::FabricFftOptions opt;
      opt.partial_reconfiguration = partial;
      const auto result = fft::run_fabric_fft(g, random_input(n, 42), opt);
      failed_runs += result.ok() ? 0 : 1;
      return result.timeline.epoch_compute_ns;
    };
    const double partial_ns = executed_ns(true);
    const double full_ns = executed_ns(false);
    const double hidden = 100.0 * (full_ns - partial_ns) / full_ns;
    table.add_row({"FFT N=" + std::to_string(n),
                   TextTable::num(partial_ns, 0), TextTable::num(full_ns, 0),
                   TextTable::num(hidden, 1) + "%"});
    // Each epoch starts once every tile has halted, and its last-streamed
    // tile is on the epoch's critical path: stalling the others until it
    // arrives ends the epoch no later, so nothing is hidden.
    c.push_back(exact("Ablation overlap: % hidden at FFT N=" +
                          std::to_string(n),
                      hidden, 0, 1));
  }
  show(report, "overlap", table);
  c.push_back(exact("Ablation overlap: failed FFT runs", failed_runs, 0));
  return c;
}

Claims ablation_pinning(const Inputs& in, obs::BenchReport& report) {
  CostParams pinned{};
  CostParams unpinned{};
  unpinned.allow_pinning = false;
  std::printf("Ablation — instruction pinning (Table 4 mappings)\n\n");
  TextTable table({"impl", "tiles", "II pinned(us)", "II unpinned(us)",
                   "slowdown", "img/s pinned", "img/s unpinned"});
  Claims c;
  // Unpinned, the dense multi-process tiles the paper pins slow down by
  // 6-20%; mappings whose code stays resident do not slow down at all.
  auto slowdown = [&](const std::string& what, double with, double without,
                      bool dense) {
    const double pct = 100.0 * (with / without - 1.0);
    c.push_back(dense ? within(what + " % slowdown unpinned", pct, 6, 20)
                      : exact(what + " % slowdown unpinned", pct, 0));
  };
  for (const auto& m : in.table4) {
    const auto with = mapping::evaluate(m.network, m.binding, pinned);
    const auto without = mapping::evaluate(m.network, m.binding, unpinned);
    table.add_row({m.name, TextTable::integer(m.tiles),
                   TextTable::num(with.ii_ns / 1000.0, 1),
                   TextTable::num(without.ii_ns / 1000.0, 1),
                   TextTable::num(without.ii_ns / with.ii_ns, 2) + "x",
                   TextTable::num(images_per_sec(with), 2),
                   TextTable::num(images_per_sec(without), 2)});
    slowdown("Ablation pinning: " + m.name, with.items_per_sec,
             without.items_per_sec, m.name == "Impl1" || m.name == "Impl5");
  }
  show(report, "table4_pinning", table);

  std::printf("Rebalancer sweep (reBalanceTwo) with and without pinning:\n\n");
  const auto& net = in.jpeg_net;
  TextTable sweep({"tiles", "img/s pinned", "img/s unpinned", "ratio"});
  for (const int tiles : {1, 2, 4, 8, 16, 24}) {
    const auto b_with =
        mapping::rebalance(net, tiles, RebalanceAlgorithm::kTwo, pinned);
    const auto b_without =
        mapping::rebalance(net, tiles, RebalanceAlgorithm::kTwo, unpinned);
    const double with = images_per_sec(mapping::evaluate(net, b_with, pinned));
    const double without =
        images_per_sec(mapping::evaluate(net, b_without, unpinned));
    sweep.add_row({TextTable::integer(tiles), TextTable::num(with, 2),
                   TextTable::num(without, 2),
                   TextTable::num(with / without, 2) + "x"});
    if (tiles == 16) {
      slowdown("Ablation pinning: reBalanceTwo at 16 tiles", with, without,
               true);
    }
  }
  show(report, "rebalance_sweep", sweep);
  return c;
}

Claims ablation_placement(const Inputs&, obs::BenchReport& report) {
  using mapping::PlacementStrategy;
  const auto net = jpeg::jpeg_split_pipeline();
  const auto binding =
      mapping::rebalance(net, 8, RebalanceAlgorithm::kTwo, CostParams{});
  std::printf("Ablation — placement (term C), JPEG on 8 tiles of a 4x4 "
              "mesh\nBinding: %s\n\n",
              binding.describe(net).c_str());
  const interconnect::CopyCostModel copy{5 * kCycleNs, 100.0};
  TextTable table({"placement", "non-neighbor edges", "extra hops",
                   "copy ns/block", "II(us)", "img/s (200x200)"});
  // Copy ns per block from each start, and after the greedy swap search:
  // it brings snake down to row-major's 2700 ns but leaves scatter above.
  const PlacementStrategy starts[3] = {PlacementStrategy::kSnake,
                                       PlacementStrategy::kRowMajor,
                                       PlacementStrategy::kScatter};
  const double copy_ns[3][2] = {{4500, 2700}, {2700, 2700}, {7200, 4500}};
  Claims c;
  for (int i = 0; i < 3; ++i) {
    const std::string name =
        std::string("Ablation placement: ") +
        mapping::placement_strategy_name(starts[i]);
    const auto p = mapping::place(binding, 4, 4, starts[i]);
    const auto pe = mapping::evaluate_placement(net, binding, p, copy);
    const auto eval =
        mapping::evaluate_with_placement(net, binding, p, CostParams{}, copy);
    table.add_row({mapping::placement_strategy_name(starts[i]),
                   TextTable::integer(pe.non_neighbor_edges),
                   TextTable::integer(pe.total_hops),
                   TextTable::num(pe.copy_ns_per_item, 0),
                   TextTable::num(eval.ii_ns / 1000.0, 2),
                   TextTable::num(images_per_sec(eval), 2)});
    const auto improved = mapping::improve_placement(net, binding, p, copy);
    const auto ipe = mapping::evaluate_placement(net, binding, improved, copy);
    table.add_row({std::string("  +local search"),
                   TextTable::integer(ipe.non_neighbor_edges),
                   TextTable::integer(ipe.total_hops),
                   TextTable::num(ipe.copy_ns_per_item, 0), "", ""});
    c.push_back(
        exact(name + " copy ns per block", pe.copy_ns_per_item, copy_ns[i][0]));
    c.push_back(exact(name + " copy ns after local search",
                      ipe.copy_ns_per_item, copy_ns[i][1]));
    c.push_back(within(name + " copy % of II",
                       100.0 * pe.copy_ns_per_item / eval.ii_ns, 4, 10));
  }
  show(report, "placement", table);
  return c;
}

Claims validation(const Inputs&, obs::BenchReport& report) {
  const auto g = fft::make_geometry(64, 8);  // 6 stages, 8 rows
  const auto times = dse::measure_process_times(g);
  const auto x = random_input(64, 2026);
  std::printf(
      "Executed vs modelled 64-point FFT (8 tiles per column)\n"
      "executed: total ns for one transform, all epochs, cycle-accurate\n"
      "modelled: steady-state ns per transform from the tau equations\n\n");
  TextTable table({"cols", "L(ns)", "executed ns", "exec reconfig ns",
                   "modelled ns", "exec slope vs L", "model slope vs L"});
  int failed_runs = 0;
  std::vector<double> exec_slope;
  std::vector<double> model_slope;
  for (const int cols : {1, 2, 3, 6}) {
    double exec_at[2] = {0, 0};
    double model_at[2] = {0, 0};
    for (const int i : {0, 1}) {
      fft::FabricFftOptions opt;
      opt.cols = cols;
      opt.link_cost_ns = i * 1000.0;
      const auto run = fft::run_fabric_fft(g, x, opt);
      failed_runs += run.ok() ? 0 : 1;
      exec_at[i] = run.timeline.epoch_compute_ns;
      model_at[i] = dse::evaluate_fft_design(g, times, cols, opt.link_cost_ns)
                        .total_ns();
      std::vector<std::string> row = {
          TextTable::integer(cols), TextTable::integer(i * 1000),
          TextTable::num(exec_at[i], 0),
          TextTable::num(run.timeline.reconfig_ns, 0),
          TextTable::num(model_at[i], 0), "", ""};
      if (i == 1) {
        exec_slope.push_back((exec_at[1] - exec_at[0]) / 1000.0);
        model_slope.push_back((model_at[1] - model_at[0]) / 1000.0);
        row[5] = TextTable::num(exec_slope.back(), 2);
        row[6] = TextTable::num(model_slope.back(), 2);
      }
      table.add_row(row);
    }
  }
  show(report, "executed_vs_model", table);
  // The cost-vs-L slope grows with column count in both regimes.
  return {
      exact("Validation: failed FFT runs", failed_runs, 0),
      exact("Validation: executed slope at 1 col", exec_slope.front(), 106),
      exact("Validation: executed slope at 6 cols", exec_slope.back(), 204),
      exact("Validation: modelled slope at 1 col", model_slope.front(), 32),
      exact("Validation: modelled slope at 6 cols", model_slope.back(), 56),
      exact("Validation: executed slope rises with columns",
            std::is_sorted(exec_slope.begin(), exec_slope.end()), 1),
      exact("Validation: modelled slope rises with columns",
            std::is_sorted(model_slope.begin(), model_slope.end()), 1),
  };
}

}  // namespace

int main() {
  engine::install_build_default();
  const Inputs in;
  obs::BenchReport report("paper_report");
  Claims claims;
  for (const auto section :
       {table1, table2, fig8, fig10_11, fig12, table3, table4, table5,
        fig16_17, fig13_14, ablation_overlap, ablation_pinning,
        ablation_placement, validation}) {
    const Claims got = section(in, report);
    claims.insert(claims.end(), got.begin(), got.end());
  }

  std::printf("EXPERIMENTS.md claims:\n");
  int failed = 0;
  for (const auto& c : claims) {
    std::printf("  %-4s %s: measured %g, expected %g +- %g\n",
                c.holds() ? "ok" : "FAIL", c.what.c_str(), c.measured,
                c.expected, c.tolerance);
    report.add(c.what, c.measured, "",
               {{"expected", TextTable::num(c.expected, 4)},
                {"tolerance", TextTable::num(c.tolerance, 4)}});
    failed += c.holds() ? 0 : 1;
  }
  std::printf("%zu claims, %d failed\n", claims.size(), failed);
  if (!report.write()) return 1;
  return failed == 0 ? 0 : 1;
}
