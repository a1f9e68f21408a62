// Binding validation and pipeline cost-model tests.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "apps/jpeg/process_table.hpp"
#include "mapping/binding.hpp"
#include "service/artifact_cache.hpp"

namespace cgra::mapping {
namespace {

using procnet::Process;
using procnet::ProcessNetwork;

Process make(const std::string& name, std::int64_t runtime, int insts = 10,
             int data3 = 0) {
  Process p;
  p.name = name;
  p.runtime_cycles = runtime;
  p.insts = insts;
  p.data3 = data3;
  return p;
}

ProcessNetwork three_process_net() {
  return ProcessNetwork::pipeline(
      {make("a", 100), make("b", 400), make("c", 100)}, 64);
}

TEST(Binding, ValidateAcceptsCompleteBinding) {
  const auto net = three_process_net();
  Binding b;
  b.groups = {{{0, 1}, 1}, {{2}, 1}};
  EXPECT_TRUE(b.validate(net).ok());
  EXPECT_EQ(b.tile_count(), 2);
}

TEST(Binding, ValidateRejectsUnboundProcess) {
  const auto net = three_process_net();
  Binding b;
  b.groups = {{{0, 1}, 1}};
  EXPECT_FALSE(b.validate(net).ok());
}

TEST(Binding, ValidateRejectsDoubleBinding) {
  const auto net = three_process_net();
  Binding b;
  b.groups = {{{0, 1}, 1}, {{1, 2}, 1}};
  EXPECT_FALSE(b.validate(net).ok());
}

TEST(Binding, ValidateRejectsReplicatingNonReplicable) {
  auto net = three_process_net();
  net.process(1).replicable = false;
  Binding b;
  b.groups = {{{0}, 1}, {{1}, 2}, {{2}, 1}};
  EXPECT_FALSE(b.validate(net).ok());
}

TEST(CostModel, SingleProcessTileHasNoReconfig) {
  const auto net = three_process_net();
  Binding b;
  b.groups = {{{0}, 1}, {{1}, 1}, {{2}, 1}};
  const auto eval = evaluate(net, b, CostParams{});
  EXPECT_FALSE(eval.needs_reconfig);
  for (const auto& g : eval.groups) {
    EXPECT_DOUBLE_EQ(g.reconfig_ns, 0.0);
  }
  // II bound by the 400-cycle process: 1000 ns.
  EXPECT_DOUBLE_EQ(eval.ii_ns, 1000.0);
  EXPECT_NEAR(eval.items_per_sec, 1e6, 1.0);
}

TEST(CostModel, MultiProcessTilePaysData3Reload) {
  ProcessNetwork net = ProcessNetwork::pipeline(
      {make("a", 100, 10, 6), make("b", 100, 10, 3)}, 8);
  const auto eval = evaluate(net, all_on_one_tile(net), CostParams{});
  EXPECT_TRUE(eval.needs_reconfig);
  // Both pinned (20 insts << 512): reconfig = (6+3) data words.
  EXPECT_NEAR(eval.groups[0].reconfig_ns, 9 * 33.3333, 0.01);
  EXPECT_TRUE(eval.groups[0].all_pinned);
}

TEST(CostModel, UnpinnableInstructionsReloadEachActivation) {
  ProcessNetwork net = ProcessNetwork::pipeline(
      {make("big1", 100, 400), make("big2", 100, 300)}, 8);
  const auto eval = evaluate(net, all_on_one_tile(net), CostParams{});
  // Only one of the two fits the 512-word instruction memory.
  EXPECT_FALSE(eval.groups[0].all_pinned);
  EXPECT_EQ(eval.groups[0].pinned_insts, 400);
  EXPECT_NEAR(eval.groups[0].reconfig_ns, 300 * 50.0, 0.1);
}

TEST(CostModel, EqualSizedProcessesPinInGroupOrder) {
  // Two 300-word processes never share the 512-word instruction memory:
  // the one listed first in the group is pinned, and the other reloads its
  // instructions on each of its activations.
  Process thrice = make("thrice", 100, 300);
  thrice.invocations_per_item = 3;
  const ProcessNetwork net =
      ProcessNetwork::pipeline({make("once", 100, 300), thrice}, 8);
  for (const auto& [procs, reloads] :
       {std::pair{std::vector{0, 1}, 3}, std::pair{std::vector{1, 0}, 1}}) {
    Binding b;
    b.groups = {{procs, 1}};
    const auto eval = evaluate(net, b, CostParams{});
    EXPECT_EQ(eval.groups[0].pinned_insts, 300);
    EXPECT_NEAR(eval.groups[0].reconfig_ns, reloads * 300 * 50.0, 0.1);
  }
}

TEST(CostModel, ReplicationDividesEffectiveTime) {
  const auto net = three_process_net();
  Binding b;
  b.groups = {{{0}, 1}, {{1}, 4}, {{2}, 1}};
  const auto eval = evaluate(net, b, CostParams{});
  EXPECT_TRUE(eval.needs_relink);
  EXPECT_EQ(eval.tile_count, 6);
  // b's effective time: 400 cycles / 4 = 100 cycles = 250 ns -> II 250.
  EXPECT_DOUBLE_EQ(eval.ii_ns, 250.0);
}

TEST(CostModel, InvocationsPerItemMultiplyWork) {
  Process dct = make("dct", 100);
  dct.invocations_per_item = 4;
  ProcessNetwork net;
  net.add_process(dct);
  Binding b;
  b.groups = {{{0}, 1}};
  const auto eval = evaluate(net, b, CostParams{});
  EXPECT_DOUBLE_EQ(eval.ii_ns, 400 * 2.5);
}

TEST(CostModel, UtilizationBoundsAndPerfectBalance) {
  ProcessNetwork net =
      ProcessNetwork::pipeline({make("a", 100), make("b", 100)}, 8);
  Binding b;
  b.groups = {{{0}, 1}, {{1}, 1}};
  const auto eval = evaluate(net, b, CostParams{});
  EXPECT_NEAR(eval.avg_utilization, 1.0, 1e-9);
}

TEST(CostModel, UtilizationReflectsImbalance) {
  const auto net = three_process_net();  // 100 / 400 / 100
  Binding b;
  b.groups = {{{0}, 1}, {{1}, 1}, {{2}, 1}};
  const auto eval = evaluate(net, b, CostParams{});
  // (0.25 + 1.0 + 0.25) / 3
  EXPECT_NEAR(eval.avg_utilization, 0.5, 1e-9);
  EXPECT_GT(eval.avg_utilization, 0.0);
  EXPECT_LE(eval.avg_utilization, 1.0);
}

TEST(CostModel, TimeForItemsScalesLinearly) {
  const auto net = three_process_net();
  const auto eval = evaluate(net, all_on_one_tile(net), CostParams{});
  EXPECT_NEAR(eval.time_for_items(625), 625 * eval.ii_ns, 1e-6);
}

TEST(Binding, DescribeMentionsReplication) {
  const auto net = three_process_net();
  Binding b;
  b.groups = {{{0, 1}, 1}, {{2}, 3}};
  const auto text = b.describe(net);
  EXPECT_NE(text.find("(x3)"), std::string::npos);
  EXPECT_NE(text.find("a"), std::string::npos);
}

/// Every double and flag the cost model derives for binding {subset,
/// complement} (the subset alone when it is the whole network), on one
/// line; %.17g round-trips a double exactly.
std::string subset_record(const ProcessNetwork& net, unsigned subset,
                          const CostParams& params) {
  Binding b;
  b.groups.resize(1);
  std::vector<int> rest;
  for (int p = 0; p < net.size(); ++p) {
    ((subset >> p) & 1u ? b.groups[0].procs : rest).push_back(p);
  }
  if (!rest.empty()) b.groups.push_back({rest, 1});
  char line[256];
  std::snprintf(line, sizeof line, "%x busy=%.17g", subset,
                group_busy_ns(net, b.groups[0].procs, params));
  std::string s = line;
  const BindingEval eval = evaluate(net, b, params);
  std::snprintf(line, sizeof line, " ii=%.17g ips=%.17g util=%.17g %d%d",
                eval.ii_ns, eval.items_per_sec, eval.avg_utilization,
                eval.needs_reconfig, eval.needs_relink);
  s += line;
  for (const GroupEval& g : eval.groups) {
    std::snprintf(line, sizeof line, " [%.17g %.17g %d %d %d%d]", g.work_ns,
                  g.reconfig_ns, g.pinned_insts, g.total_insts, g.all_pinned,
                  g.data_fits);
    s += line;
  }
  return s + "\n";
}

TEST(CostModel, EveryJpegProcessSubsetEvaluatesBitIdentically) {
  // Digest recorded before evaluate_group stopped allocating; any change to
  // the pinned set or to a summation order shows up here.
  std::string records;
  for (const auto& net :
       {jpeg::jpeg_main_pipeline(), jpeg::jpeg_split_pipeline()}) {
    for (const bool pinning : {true, false}) {
      CostParams params;
      params.allow_pinning = pinning;
      for (unsigned subset = 1; subset < (1u << net.size()); ++subset) {
        records += subset_record(net, subset, params);
      }
    }
  }
  EXPECT_EQ(service::fnv1a(records), 0xa6068cd927df74e3ull)
      << "first record: " << records.substr(0, records.find('\n'));
}

}  // namespace
}  // namespace cgra::mapping
