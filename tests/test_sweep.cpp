// Sweep driver tests: deterministic result ordering, identical output for
// 1 vs N lanes, exception propagation and reuse across jobs.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "apps/jpeg/process_table.hpp"
#include "dse/sweep.hpp"

namespace cgra::dse {
namespace {

TEST(Sweep, MapReturnsResultsInCandidateOrder) {
  Sweep pool(4);
  EXPECT_EQ(pool.lanes(), 4);
  const auto out = pool.map<int>(100, [](int i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
  }
}

TEST(Sweep, EveryCandidateRunsExactlyOnce) {
  Sweep pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(257, [&](int i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Sweep, SingleLaneRunsInline) {
  Sweep pool(1);
  EXPECT_EQ(pool.lanes(), 1);
  const auto out = pool.map<int>(5, [](int i) { return i + 1; });
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Sweep, ExceptionPropagatesAfterAllCandidatesFinish) {
  Sweep pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for(20,
                                 [&](int i) {
                                   ran.fetch_add(1);
                                   if (i == 3) {
                                     throw std::runtime_error("candidate 3");
                                   }
                                 }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 20);  // the failure does not skip other candidates
}

TEST(Sweep, PoolIsReusableAcrossJobs) {
  Sweep pool(2);
  for (int round = 0; round < 50; ++round) {
    const auto out = pool.map<int>(8, [&](int i) { return i + round; });
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(out[static_cast<std::size_t>(i)], i + round);
    }
  }
  // Back-to-back jobs: a worker that finishes a job's last candidate must
  // not claim an index of the next job against the previous job's
  // function.  Every job's function stays alive, so a stale call shows up
  // as a second hit instead of a use-after-free.
  Sweep wide(4);
  constexpr int kJobs = 2000;
  constexpr int kPerJob = 4;
  std::vector<std::atomic<int>> hits(kPerJob * kJobs);
  std::vector<std::function<void(int)>> jobs;
  for (int j = 0; j < kJobs; ++j) {
    jobs.emplace_back([&hits, j](int i) {
      // Long enough for the workers to take part in every job.
      volatile int spin = 0;
      for (int k = 0; k < 20000; ++k) spin = spin + 1;
      hits[static_cast<std::size_t>(kPerJob * j + i)].fetch_add(1);
    });
  }
  for (const auto& job : jobs) wide.parallel_for(kPerJob, job);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SweepDeterminism, RebalanceSweepIdenticalForOneAndManyLanes) {
  const auto net = jpeg::jpeg_main_pipeline();
  const mapping::CostParams params{};
  constexpr int kMaxTiles = 12;

  const auto serial =
      mapping::sweep(net, kMaxTiles, mapping::RebalanceAlgorithm::kTwo,
                     params);
  Sweep one(1);
  Sweep many(4);
  const auto p1 = one.rebalance_sweep(net, kMaxTiles,
                                      mapping::RebalanceAlgorithm::kTwo,
                                      params);
  const auto pn = many.rebalance_sweep(net, kMaxTiles,
                                       mapping::RebalanceAlgorithm::kTwo,
                                       params);

  ASSERT_EQ(p1.size(), serial.size());
  ASSERT_EQ(pn.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    for (const auto* p : {&p1[i], &pn[i]}) {
      EXPECT_EQ(p->tiles, serial[i].tiles);
      // Bit-identical evaluation: same candidate, same pure computation.
      EXPECT_EQ(p->eval.items_per_sec, serial[i].eval.items_per_sec);
      EXPECT_EQ(p->eval.avg_utilization, serial[i].eval.avg_utilization);
      ASSERT_EQ(p->binding.groups.size(), serial[i].binding.groups.size());
      for (std::size_t gi = 0; gi < serial[i].binding.groups.size(); ++gi) {
        EXPECT_EQ(p->binding.groups[gi].procs,
                  serial[i].binding.groups[gi].procs);
        EXPECT_EQ(p->binding.groups[gi].replication,
                  serial[i].binding.groups[gi].replication);
      }
    }
  }
  // The ranking consequence: identical best-throughput budget either way.
  const auto best = [](const std::vector<mapping::SweepPoint>& v) {
    std::size_t b = 0;
    for (std::size_t i = 1; i < v.size(); ++i) {
      if (v[i].eval.items_per_sec > v[b].eval.items_per_sec) b = i;
    }
    return v[b].tiles;
  };
  EXPECT_EQ(best(p1), best(serial));
  EXPECT_EQ(best(pn), best(serial));
}

TEST(SweepDeterminism, MeasuredProcessTimesIdenticalForOneAndManyLanes) {
  const auto g = fft::make_geometry(64);
  const auto serial = measure_process_times(g);
  Sweep one(1);
  Sweep many(4);
  const auto p1 = one.measure_process_times(g);
  const auto pn = many.measure_process_times(g);
  for (const auto* p : {&p1, &pn}) {
    ASSERT_EQ(p->bf.size(), serial.bf.size());
    for (std::size_t s = 0; s < serial.bf.size(); ++s) {
      EXPECT_EQ(p->bf[s], serial.bf[s]);
    }
    EXPECT_EQ(p->vcp, serial.vcp);
    EXPECT_EQ(p->hcp, serial.hcp);
  }
}

// Mapper-driven placements as sweep candidates: each budget maps
// independently, so results are positional and lane-count independent.
TEST(Sweep, MapperSweepIsDeterministicAcrossLaneCounts) {
  const auto net = jpeg::jpeg_main_pipeline();
  const std::vector<int> budgets = {1, 2, 4};
  std::vector<MapperSweepPoint> want;
  {
    Sweep serial(1);
    want = serial.mapper_sweep(net, 4, 4, budgets);
  }
  Sweep pool(4);
  const auto got = pool.mapper_sweep(net, 4, 4, budgets);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(got[i].mapped.ok()) << got[i].mapped.status.message();
    EXPECT_EQ(got[i].tiles, budgets[i]);
    EXPECT_EQ(got[i].mapped.cost.total_ns(), want[i].mapped.cost.total_ns());
    EXPECT_EQ(got[i].mapped.binding.describe(net),
              want[i].mapped.binding.describe(net));
  }
  // More tiles never hurt: the sweep's totals are monotonically
  // non-increasing in the budget.
  EXPECT_LE(got[1].mapped.cost.total_ns(), got[0].mapped.cost.total_ns());
  EXPECT_LE(got[2].mapped.cost.total_ns(), got[1].mapped.cost.total_ns());
}

}  // namespace
}  // namespace cgra::dse
