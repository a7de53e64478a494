#include "workload/workload.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "workload/histogram.h"

namespace rdfref {
namespace workload {
namespace {

// ---------------------------------------------------------------------------
// LatencyHistogram: exact percentiles in the linear range, bounded relative
// error above it, lock-free merge, quantile monotonicity.

TEST(HistogramTest, ExactPercentilesOnKnownDistribution) {
  LatencyHistogram h;
  // 1..30, once each — all below kSubBuckets, so buckets are singletons and
  // quantiles are exact order statistics.
  for (uint64_t v = 1; v <= 30; ++v) h.Record(v);
  EXPECT_EQ(h.TotalCount(), 30u);
  EXPECT_EQ(h.Percentile(50), 15u);   // rank ceil(0.5*30)  = 15
  EXPECT_EQ(h.Percentile(95), 29u);   // rank ceil(0.95*30) = 29
  EXPECT_EQ(h.Percentile(99), 30u);   // rank ceil(0.99*30) = 30
  EXPECT_EQ(h.Percentile(100), 30u);
  EXPECT_EQ(h.ValueAtQuantile(0.0), 1u);  // rank clamps to 1
}

TEST(HistogramTest, SkewMovesTheMedian) {
  LatencyHistogram h;
  for (int i = 0; i < 99; ++i) h.Record(2);
  h.Record(25);
  EXPECT_EQ(h.Percentile(50), 2u);
  EXPECT_EQ(h.Percentile(99), 2u);
  EXPECT_EQ(h.Percentile(100), 25u);
}

TEST(HistogramTest, EmptyHistogramReportsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.TotalCount(), 0u);
  EXPECT_EQ(h.Percentile(50), 0u);
  EXPECT_EQ(h.Percentile(99), 0u);
}

TEST(HistogramTest, RelativeErrorBoundAboveLinearRange) {
  // Every value maps to a bucket whose upper bound overestimates it by at
  // most a factor of 1 + 1/kSubBuckets.
  for (uint64_t v : {32ull, 33ull, 100ull, 1023ull, 1024ull, 123456ull,
                     999999999ull, (1ull << 40) + 7}) {
    const size_t slot = LatencyHistogram::SlotFor(v);
    const uint64_t ub = LatencyHistogram::SlotUpperBound(slot);
    EXPECT_GE(ub, v);
    EXPECT_LE(static_cast<double>(ub - v),
              static_cast<double>(v) / LatencyHistogram::kSubBuckets)
        << "value " << v << " slot " << slot << " ub " << ub;
  }
  // And slot assignment is stable at the exact bucket boundaries.
  EXPECT_EQ(LatencyHistogram::SlotFor(31), 31u);
  EXPECT_EQ(LatencyHistogram::SlotUpperBound(LatencyHistogram::SlotFor(31)),
            31u);
  EXPECT_GE(LatencyHistogram::SlotUpperBound(LatencyHistogram::SlotFor(32)),
            32u);
}

TEST(HistogramTest, QuantilesAreMonotone) {
  LatencyHistogram h;
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) h.Record(rng.Uniform(1u << 20));
  uint64_t prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const uint64_t v = h.ValueAtQuantile(q);
    EXPECT_GE(v, prev) << "quantile " << q;
    prev = v;
  }
}

TEST(HistogramTest, MergeAcrossThreadsMatchesSingleHistogram) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  // Per-thread histograms, merged afterwards...
  std::vector<std::unique_ptr<LatencyHistogram>> parts;
  for (int t = 0; t < kThreads; ++t) {
    parts.push_back(std::make_unique<LatencyHistogram>());
  }
  // ...and one shared histogram all threads hammer concurrently.
  LatencyHistogram shared;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + static_cast<uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        const uint64_t v = rng.Uniform(1u << 16);
        parts[static_cast<size_t>(t)]->Record(v);
        shared.Record(v);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  LatencyHistogram merged;
  for (const auto& part : parts) merged.Merge(*part);
  EXPECT_EQ(merged.TotalCount(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(shared.TotalCount(), merged.TotalCount());
  // Same multiset of recordings => identical quantiles.
  for (double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    EXPECT_EQ(merged.Percentile(p), shared.Percentile(p)) << "p" << p;
  }
}

TEST(HistogramTest, ClearResets) {
  LatencyHistogram h;
  h.Record(5);
  h.Record(500);
  h.Clear();
  EXPECT_EQ(h.TotalCount(), 0u);
  EXPECT_EQ(h.Percentile(99), 0u);
}

// ---------------------------------------------------------------------------
// MixSampler: deterministic, weight-respecting draws.

TEST(MixSamplerTest, RespectsWeightsDeterministically) {
  auto answerer = MakeSp2bAnswerer(0.05);
  auto mix = Sp2bQueryMix(answerer.get());
  ASSERT_TRUE(mix.ok()) << mix.status();
  MixSampler sampler(&*mix);
  std::vector<int> counts(mix->queries.size(), 0);
  Rng rng(9);
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) ++counts[sampler.Sample(&rng)];
  double total_weight = 0;
  for (const WorkloadQuery& q : mix->queries) total_weight += q.weight;
  for (size_t i = 0; i < counts.size(); ++i) {
    const double expected = kDraws * mix->queries[i].weight / total_weight;
    EXPECT_NEAR(counts[i], expected, expected * 0.25 + 30)
        << mix->queries[i].name;
  }
  // Same seed => same sequence.
  Rng r1(77), r2(77);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sampler.Sample(&r1), sampler.Sample(&r2));
  }
}

// ---------------------------------------------------------------------------
// The sp2b mix and the closed-loop driver.

TEST(Sp2bMixTest, AllQueriesParseWithValidCovers) {
  auto answerer = MakeSp2bAnswerer(0.05);
  auto mix = Sp2bQueryMix(answerer.get());
  ASSERT_TRUE(mix.ok()) << mix.status();
  EXPECT_EQ(mix->queries.size(), 7u);
  for (const WorkloadQuery& q : mix->queries) {
    EXPECT_FALSE(q.name.empty());
    EXPECT_GT(q.weight, 0.0);
    EXPECT_TRUE(q.cover.Validate(q.cq).ok()) << q.name;
  }
}

TEST(DriverTest, RejectsInvalidConfigurations) {
  auto answerer = MakeSp2bAnswerer(0.05);
  auto mix = Sp2bQueryMix(answerer.get());
  ASSERT_TRUE(mix.ok());
  DriverOptions bad;
  bad.ops_per_client = 10;
  bad.strategy = api::Strategy::kSaturation;
  bad.concurrent_writer = true;
  EXPECT_FALSE(RunClosedLoop(answerer.get(), *mix, bad).ok());
  DriverOptions dat;
  dat.ops_per_client = 10;
  dat.strategy = api::Strategy::kDatalog;
  dat.clients = 2;
  EXPECT_FALSE(RunClosedLoop(answerer.get(), *mix, dat).ok());
  DriverOptions none;
  none.ops_per_client = 0;
  none.duration_ms = 0;
  EXPECT_FALSE(RunClosedLoop(answerer.get(), *mix, none).ok());
  WorkloadMix empty;
  DriverOptions ok_opts;
  ok_opts.ops_per_client = 1;
  EXPECT_FALSE(RunClosedLoop(answerer.get(), empty, ok_opts).ok());
}

TEST(DriverTest, OpsModeRunsExactlyTheRequestedQueries) {
  auto answerer = MakeSp2bAnswerer(0.05);
  auto mix = Sp2bQueryMix(answerer.get());
  ASSERT_TRUE(mix.ok());
  DriverOptions options;
  options.strategy = api::Strategy::kRefUcq;
  options.clients = 2;
  options.ops_per_client = 25;
  options.seed = 5;
  auto report = RunClosedLoop(answerer.get(), *mix, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->total_queries, 50u);
  EXPECT_EQ(report->errors, 0u);
  EXPECT_GT(report->total_rows, 0u);
  EXPECT_GT(report->throughput_qps, 0.0);
  uint64_t per_query_total = 0;
  for (const QueryStats& q : report->per_query) per_query_total += q.count;
  EXPECT_EQ(per_query_total, report->total_queries);
  // Same seed, same ops => same draws => identical row totals.
  auto again = RunClosedLoop(answerer.get(), *mix, options);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->total_rows, report->total_rows);
}

TEST(DriverTest, StrategiesAgreeOnRowTotals) {
  // Every complete strategy must return the same answers, so a seeded
  // ops-mode run yields identical row totals across them.
  auto answerer = MakeSp2bAnswerer(0.05);
  auto mix = Sp2bQueryMix(answerer.get());
  ASSERT_TRUE(mix.ok());
  DriverOptions options;
  options.clients = 1;
  options.ops_per_client = 30;
  options.seed = 13;
  uint64_t expected_rows = 0;
  for (api::Strategy s : {api::Strategy::kRefUcq, api::Strategy::kRefJucq,
                          api::Strategy::kRefScq, api::Strategy::kSaturation}) {
    options.strategy = s;
    auto report = RunClosedLoop(answerer.get(), *mix, options);
    ASSERT_TRUE(report.ok()) << api::StrategyName(s) << ": "
                             << report.status();
    EXPECT_EQ(report->errors, 0u) << api::StrategyName(s);
    if (expected_rows == 0) {
      expected_rows = report->total_rows;
    } else {
      EXPECT_EQ(report->total_rows, expected_rows) << api::StrategyName(s);
    }
  }
  EXPECT_GT(expected_rows, 0u);
}

// The TSan stress test: many clients and a churning writer share one
// answerer; snapshot isolation must keep every answer identical to the
// read-only run, and the run must shut down cleanly.
TEST(DriverTest, ConcurrentWriterPreservesAnswersAndShutsDownCleanly) {
  auto answerer = MakeSp2bAnswerer(0.05);
  auto mix = Sp2bQueryMix(answerer.get());
  ASSERT_TRUE(mix.ok());
  DriverOptions readonly;
  readonly.strategy = api::Strategy::kRefUcq;
  readonly.clients = 4;
  readonly.ops_per_client = 15;
  readonly.seed = 21;
  auto baseline = RunClosedLoop(answerer.get(), *mix, readonly);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  DriverOptions contended = readonly;
  contended.concurrent_writer = true;
  contended.writer_batch = 64;
  const size_t size_before =
      answerer->versions().snapshot()->Materialize().size();
  auto report = RunClosedLoop(answerer.get(), *mix, contended);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->errors, 0u);
  EXPECT_EQ(report->total_queries, 60u);
  EXPECT_GT(report->writer_ops, 0u);
  // Churn over a workload-only property never touches any mix query, so
  // snapshot-isolated answers match the uncontended run bit-for-bit.
  EXPECT_EQ(report->total_rows, baseline->total_rows);
  // Clean shutdown: the writer drained its churn, the store is as before.
  EXPECT_EQ(answerer->versions().snapshot()->Materialize().size(),
            size_before);
}

// A cached row's view state ends with the row: the next row (here an
// uncached one, as in a workload_driver sweep) starts from an empty cache
// and no GCov hints instead of inheriting the previous row's entries.
TEST(DriverTest, CachedRowLeavesNoViewStateForTheNextRow) {
  auto answerer = MakeSp2bAnswerer(0.05);
  auto mix = Sp2bQueryMix(answerer.get());
  ASSERT_TRUE(mix.ok());
  DriverOptions cached;
  cached.strategy = api::Strategy::kRefGcov;
  cached.clients = 1;
  cached.ops_per_client = 20;
  cached.seed = 3;
  cached.view_cache = true;
  auto first = RunClosedLoop(answerer.get(), *mix, cached);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_GT(first->cache_entries, 0u);
  EXPECT_FALSE(first->selected_views.empty());

  EXPECT_FALSE(answerer->view_cache_enabled());
  EXPECT_EQ(answerer->view_cache_stats().entries, 0u);
  EXPECT_TRUE(answerer->view_hints().empty());

  DriverOptions uncached = cached;
  uncached.view_cache = false;
  auto second = RunClosedLoop(answerer.get(), *mix, uncached);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->errors, 0u);
  EXPECT_EQ(second->cache_entries, 0u);
  EXPECT_EQ(second->total_rows, first->total_rows);  // same seeded draws
  EXPECT_EQ(answerer->view_cache_stats().entries, 0u);
  EXPECT_TRUE(answerer->view_hints().empty());
}

TEST(DriverTest, DurationModeStops) {
  auto answerer = MakeSp2bAnswerer(0.05);
  auto mix = Sp2bQueryMix(answerer.get());
  ASSERT_TRUE(mix.ok());
  DriverOptions options;
  options.strategy = api::Strategy::kRefUcq;
  options.clients = 2;
  options.ops_per_client = 0;
  options.duration_ms = 50;
  auto report = RunClosedLoop(answerer.get(), *mix, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->total_queries, 0u);
  EXPECT_EQ(report->errors, 0u);
  EXPECT_GE(report->wall_ms, 50.0);
}

}  // namespace
}  // namespace workload
}  // namespace rdfref
