// Observability layer tests: metrics registry semantics (hot path,
// histogram bucket edges, exact totals under concurrent updates), span
// timeline nesting and Chrome-trace round-trips, profile reconciliation,
// and the BENCH_*.json schema.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/table.hpp"
#include "fabric/fabric.hpp"
#include "isa/assembler.hpp"
#include "obs/bench_report.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/span.hpp"
#include "obs/tracer.hpp"

namespace cgra::obs {
namespace {

// ---------------------------------------------------------------- metrics

TEST(Metrics, CounterFindOrCreateAndHotPath) {
  MetricsRegistry reg;
  const auto a = reg.counter("fabric.cycles");
  const auto b = reg.counter("fabric.cycles");
  ASSERT_TRUE(a.valid());
  EXPECT_EQ(a.index, b.index);  // find-or-create: one slot per name
  EXPECT_EQ(reg.metric_count(), 1u);

  reg.add(a);
  reg.add(a, 41);
  EXPECT_EQ(reg.counter_value(a), 42);
  EXPECT_EQ(reg.counter_value("fabric.cycles"), 42);
  EXPECT_EQ(reg.counter_value("no.such.metric"), 0);
}

TEST(Metrics, GaugeSetOverwrites) {
  MetricsRegistry reg;
  const auto g = reg.gauge("icap.occupancy");
  reg.set(g, 0.25);
  reg.set(g, 0.75);
  EXPECT_EQ(reg.gauge_value(g), 0.75);
  EXPECT_EQ(reg.gauge_value("icap.occupancy"), 0.75);
}

TEST(Metrics, HistogramBucketEdges) {
  MetricsRegistry reg;
  const auto h = reg.histogram("stall.cycles", {10.0, 20.0});
  ASSERT_TRUE(h.valid());
  reg.observe(h, 5.0);    // bucket 0
  reg.observe(h, 10.0);   // exactly on the bound: v <= bound -> bucket 0
  reg.observe(h, 10.5);   // bucket 1
  reg.observe(h, 20.0);   // bucket 1
  reg.observe(h, 20.001); // overflow bucket
  const auto snap = reg.histogram_snapshot(h);
  ASSERT_EQ(snap.bounds.size(), 2u);
  ASSERT_EQ(snap.counts.size(), 3u);  // two buckets + overflow
  EXPECT_EQ(snap.counts[0], 2);
  EXPECT_EQ(snap.counts[1], 2);
  EXPECT_EQ(snap.counts[2], 1);
  EXPECT_EQ(snap.total, 5);
  EXPECT_DOUBLE_EQ(snap.sum, 5.0 + 10.0 + 10.5 + 20.0 + 20.001);
}

TEST(Metrics, HistogramReregistrationKeepsFirstBounds) {
  MetricsRegistry reg;
  const auto a = reg.histogram("h", {1.0, 2.0});
  const auto b = reg.histogram("h", {100.0});
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(reg.histogram_snapshot(b).bounds.size(), 2u);
}

TEST(Metrics, ResetValuesKeepsDefinitionsAndHandles) {
  MetricsRegistry reg;
  const auto c = reg.counter("c");
  reg.add(c, 7);
  reg.reset_values();
  EXPECT_EQ(reg.counter_value(c), 0);
  EXPECT_EQ(reg.metric_count(), 1u);
  reg.add(c, 3);
  EXPECT_EQ(reg.counter_value(c), 3);  // handle survives the reset
}

TEST(Metrics, ConcurrentUpdatesAreExact) {
  // Updates from several threads, no lock: every add and observe lands.
  MetricsRegistry reg;
  const auto c = reg.counter("c");
  const auto h = reg.histogram("h", {1.0, 2.0});
  constexpr int kThreads = 4;
  constexpr int kEach = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kEach; ++i) {
        reg.add(c);
        reg.observe(h, static_cast<double>((t + i) % 3));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.counter_value(c), kThreads * kEach);
  const auto snap = reg.histogram_snapshot(h);
  EXPECT_EQ(snap.total, kThreads * kEach);
  EXPECT_EQ(snap.counts[0] + snap.counts[1] + snap.counts[2], snap.total);
  // Integer-valued doubles add exactly in any order, so the sum is exact.
  std::int64_t want_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kEach; ++i) want_sum += (t + i) % 3;
  }
  EXPECT_EQ(snap.sum, static_cast<double>(want_sum));
}

TEST(Metrics, ExportersAreWellFormed) {
  MetricsRegistry reg;
  reg.add(reg.counter("a.count"), 3);
  reg.set(reg.gauge("b.gauge"), 1.5);
  reg.observe(reg.histogram("c.hist", {1.0}), 0.5);

  JsonValue parsed;
  ASSERT_TRUE(parse_json(reg.to_json(), &parsed).ok());
  ASSERT_TRUE(parsed.is_object());
  ASSERT_NE(parsed.find("counters"), nullptr);
  ASSERT_NE(parsed.find("gauges"), nullptr);
  ASSERT_NE(parsed.find("histograms"), nullptr);
  const auto* counters = parsed.find("counters");
  ASSERT_NE(counters->find("a.count"), nullptr);
  EXPECT_EQ(counters->find("a.count")->number, 3.0);

  const std::string csv = reg.to_csv();
  EXPECT_NE(csv.find("counter,a.count"), std::string::npos);
  EXPECT_NE(reg.to_table().find("a.count"), std::string::npos);
}

// Integration: the fabric's attached counters agree with TileStats.
TEST(Metrics, FabricCountersMatchTileStats) {
  fabric::Fabric fab(1, 1);
  MetricsRegistry reg;
  fab.attach_metrics(&reg);
  auto r = isa::assemble("  movi 0, #5\nl:\n  sub 0, 0, #1\n  bnez 0, l\n"
                         "  halt\n");
  ASSERT_TRUE(r.ok());
  fab.tile(0).load_program(r.program);
  fab.tile(0).restart();
  const auto run = fab.run(100);
  EXPECT_EQ(reg.counter_value("fabric.cycles"), run.cycles);
  EXPECT_EQ(reg.counter_value("fabric.retired"),
            fab.tile(0).stats().instructions);
  EXPECT_EQ(reg.counter_value("fabric.faults"), 0);
}

// ------------------------------------------------------------------ spans

TEST(Spans, NestingAndOpenSpanAccounting) {
  SpanTimeline tl;
  const auto outer = tl.begin("epoch", "epoch", kTrackEpochs, 0.0);
  tl.complete("stream:t0", "icap", kTrackIcap, 0.0, 40.0);
  EXPECT_EQ(tl.open_spans(), 1u);
  tl.end(outer, 100.0);
  EXPECT_EQ(tl.open_spans(), 0u);

  const auto dangling = tl.begin("unbalanced", "epoch", kTrackEpochs, 100.0);
  (void)dangling;
  EXPECT_EQ(tl.open_spans(), 1u);

  ASSERT_EQ(tl.spans().size(), 3u);
  EXPECT_EQ(tl.spans()[0].name, "epoch");
  EXPECT_DOUBLE_EQ(tl.spans()[0].dur_ns, 100.0);
  EXPECT_TRUE(tl.spans()[2].open);
}

TEST(Spans, CategoryAndPrefixTotals) {
  SpanTimeline tl;
  tl.complete("reconfig:a", "reconfig", kTrackIcap, 0.0, 100.0);
  tl.complete("reconfig:b", "reconfig", kTrackIcap, 200.0, 50.0);
  tl.complete("bf-stage-0", "epoch", kTrackEpochs, 0.0, 30.0);
  tl.instant("recovery:scrub", "recovery", tile_track(1), 10.0);
  EXPECT_DOUBLE_EQ(tl.total_in_category("reconfig"), 150.0);
  EXPECT_DOUBLE_EQ(tl.total_in_category("recovery"), 0.0);  // instants: 0 dur
  EXPECT_DOUBLE_EQ(tl.total_with_prefix("reconfig:"), 150.0);
  EXPECT_DOUBLE_EQ(tl.total_with_prefix("bf-"), 30.0);
}

TEST(Spans, ChromeTraceRoundTrip) {
  SpanTimeline tl;
  tl.set_track_name(kTrackEpochs, "epochs");
  tl.set_track_name(tile_track(0), "tile 0");
  tl.complete("bf-stage-0", "epoch", kTrackEpochs, 2.5, 250.0,
              {{"cycles", "100", true}, {"kind", "pair", false}});
  tl.instant("recovery:rollback", "recovery", tile_track(0), 125.0,
             {{"attempt", "2", true}});
  const auto open_id = tl.begin("reconfig:s1", "reconfig", kTrackIcap, 252.5);
  tl.end(open_id, 502.5);

  const std::string json = tl.to_chrome_json("test-process");
  ASSERT_TRUE(validate_chrome_trace(json).ok());

  std::vector<Span> back;
  ASSERT_TRUE(parse_chrome_trace(json, &back).ok());
  ASSERT_EQ(back.size(), 3u);  // metadata dropped

  const Span* bf = nullptr;
  const Span* rec = nullptr;
  const Span* cfg = nullptr;
  for (const auto& s : back) {
    if (s.name == "bf-stage-0") bf = &s;
    if (s.name == "recovery:rollback") rec = &s;
    if (s.name == "reconfig:s1") cfg = &s;
  }
  ASSERT_NE(bf, nullptr);
  ASSERT_NE(rec, nullptr);
  ASSERT_NE(cfg, nullptr);
  EXPECT_DOUBLE_EQ(bf->start_ns, 2.5);
  EXPECT_DOUBLE_EQ(bf->dur_ns, 250.0);
  EXPECT_EQ(bf->track, kTrackEpochs);
  ASSERT_EQ(bf->args.size(), 2u);
  EXPECT_TRUE(rec->instant);
  EXPECT_DOUBLE_EQ(rec->start_ns, 125.0);
  EXPECT_DOUBLE_EQ(cfg->dur_ns, 250.0);
}

TEST(Spans, SameTimestampSpansExportInInsertionOrder) {
  // Perfetto nests same-ts events by array order, so the enclosing span
  // recorded first must stay first after the exporter's stable sort.
  SpanTimeline tl;
  tl.complete("outer", "reconfig", kTrackIcap, 100.0, 500.0);
  tl.complete("inner", "icap", kTrackIcap, 100.0, 200.0);
  const std::string json = tl.to_chrome_json();
  EXPECT_LT(json.find("\"outer\""), json.find("\"inner\""));
}

TEST(Spans, ValidatorRejectsMalformedTraces) {
  EXPECT_FALSE(validate_chrome_trace("not json").ok());
  EXPECT_FALSE(validate_chrome_trace("{}").ok());  // no traceEvents
  EXPECT_FALSE(
      validate_chrome_trace("{\"traceEvents\": 5}").ok());  // not an array
  // An "X" event without dur violates the schema.
  EXPECT_FALSE(validate_chrome_trace(
                   "{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"a\","
                   "\"ts\":0,\"pid\":1,\"tid\":0}]}")
                   .ok());
  // Minimal conforming trace.
  EXPECT_TRUE(validate_chrome_trace(
                  "{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"a\","
                  "\"ts\":0,\"dur\":1,\"pid\":1,\"tid\":0}]}")
                  .ok());
}

TEST(Spans, ClearResetsEverything) {
  SpanTimeline tl;
  tl.begin("open", "epoch", kTrackEpochs, 0.0);
  tl.clear();
  EXPECT_TRUE(tl.spans().empty());
  EXPECT_EQ(tl.open_spans(), 0u);
}

// ---------------------------------------------------------------- profile

ProfileReport small_report() {
  ProfileReport p;
  p.total_cycles = 100;
  p.total_ns = cycles_to_ns(100);
  p.tiles.push_back({0, 60, 30, 10, 5, false});
  p.tiles.push_back({1, 100, 0, 0, 0, false});
  return p;
}

TEST(Profile, ReconcilePassesWhenCyclesSum) {
  const auto p = small_report();
  EXPECT_TRUE(p.reconcile().ok());
  EXPECT_DOUBLE_EQ(p.tiles[0].utilization(), 0.6);
  EXPECT_DOUBLE_EQ(p.fabric_utilization(), (60.0 + 100.0) / 200.0);
}

TEST(Profile, ReconcileFailsOnMissingCycles) {
  auto p = small_report();
  p.tiles[0].stalled -= 1;  // break the invariant by one cycle
  const auto st = p.reconcile();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("tile 0"), std::string::npos);
}

TEST(Profile, ReconcileFailsOnClockMismatch) {
  auto p = small_report();
  p.total_ns += 1.0;
  EXPECT_FALSE(p.reconcile().ok());
}

TEST(Profile, RenderAndExportersMentionEveryTile) {
  const auto p = small_report();
  const std::string text = p.render();
  EXPECT_NE(text.find("tile"), std::string::npos);
  JsonValue parsed;
  ASSERT_TRUE(parse_json(p.to_json(), &parsed).ok());
  const auto* tiles = parsed.find("tiles");
  ASSERT_NE(tiles, nullptr);
  ASSERT_TRUE(tiles->is_array());
  EXPECT_EQ(tiles->array.size(), 2u);
  const std::string csv = p.to_csv();
  EXPECT_NE(csv.find("tile,retired"), std::string::npos);
}

TEST(Profile, DriftRowsComputeSignedPercentages) {
  DriftReport d;
  d.model = "fft-tau";
  d.add("tau1", 100.0, 150.0);
  d.add("tau2", 100.0, 75.0);
  d.add_unmeasured("tau0", 40.0, "host-side");
  EXPECT_DOUBLE_EQ(d.rows[0].drift_pct(), 50.0);
  EXPECT_DOUBLE_EQ(d.rows[1].drift_pct(), -25.0);
  EXPECT_FALSE(d.rows[2].has_measured);
  JsonValue parsed;
  ASSERT_TRUE(parse_json(d.to_json(), &parsed).ok());
  EXPECT_NE(d.render().find("tau1"), std::string::npos);
}

// ------------------------------------------------------------ bench report

TEST(BenchReport, JsonSchemaRoundTrips) {
  BenchReport report("unit_test");
  report.add("throughput", 1234.5, "FFT/s", {{"cols", "2"}});
  report.add("plain", 1.0, "x");
  TextTable table({"a", "b"});
  table.add_row({"1", "2"});
  report.add_table("t", table);

  JsonValue parsed;
  ASSERT_TRUE(parse_json(report.to_json(), &parsed).ok());
  ASSERT_NE(parsed.find("bench"), nullptr);
  EXPECT_EQ(parsed.find("bench")->str, "unit_test");
  const auto* metrics = parsed.find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->array.size(), 2u);
  const auto& m0 = metrics->array[0];
  EXPECT_EQ(m0.find("name")->str, "throughput");
  EXPECT_EQ(m0.find("value")->number, 1234.5);
  EXPECT_EQ(m0.find("unit")->str, "FFT/s");
  ASSERT_NE(m0.find("params"), nullptr);
  EXPECT_EQ(m0.find("params")->find("cols")->str, "2");
  const auto* tables = parsed.find("tables");
  ASSERT_NE(tables, nullptr);
  ASSERT_EQ(tables->array.size(), 1u);
  EXPECT_EQ(tables->array[0].find("header")->array.size(), 2u);
  ASSERT_EQ(tables->array[0].find("rows")->array.size(), 1u);
}

TEST(BenchReport, WriteProducesParseableFile) {
  BenchReport report("write_smoke");
  report.add("m", 1.0, "");
  ASSERT_TRUE(report.write("."));
  std::FILE* f = std::fopen("BENCH_write_smoke.json", "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
    content.append(buf, got);
  }
  std::fclose(f);
  std::remove("BENCH_write_smoke.json");
  JsonValue parsed;
  EXPECT_TRUE(parse_json(content, &parsed).ok());
}

// ------------------------------------------------------------------ tracer

TEST(FlightRing, RecordsInOrderAndRoundsCapacity) {
  FlightRing ring(10);  // rounds up to the next power of two
  EXPECT_EQ(ring.capacity(), 16u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    ring.record(7, FlightEventKind::kEnqueue, static_cast<std::uint16_t>(i),
                2 * i, 100.0 * i);
  }
  EXPECT_EQ(ring.recorded(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].trace_id, 7u);
    EXPECT_EQ(events[i].kind, FlightEventKind::kEnqueue);
    EXPECT_EQ(events[i].code, i);
    EXPECT_EQ(events[i].arg, 2 * i);
  }
}

TEST(FlightRing, WrapKeepsNewestAndCountsDropped) {
  FlightRing ring(8);
  for (std::uint32_t i = 0; i < 20; ++i) {
    ring.record(1, FlightEventKind::kRetry, 0, i, static_cast<double>(i));
  }
  EXPECT_EQ(ring.recorded(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(events.front().arg, 12u);  // oldest surviving event
  EXPECT_EQ(events.back().arg, 19u);
}

TEST(Tracer, MakeContextDeterministicAndNonzero) {
  TracerOptions opt;
  opt.seed = 42;
  Tracer a(opt);
  Tracer b(opt);
  const auto c1 = a.make_context();
  const auto c2 = b.make_context();
  EXPECT_TRUE(c1.valid());
  EXPECT_EQ(c1.trace_id, c2.trace_id);  // same seed, same id stream
  EXPECT_EQ(c1.parent_span_id, c2.parent_span_id);
  EXPECT_NE(a.make_context().trace_id, c1.trace_id);
  EXPECT_EQ(Tracer::trace_hex(0x1a2b), "0000000000001a2b");
}

TEST(Tracer, SpanCarriesTraceArgsAndMergesAcrossTracers) {
  Tracer tracer;
  const auto ctx = tracer.make_context();
  tracer.span(kTraceTrackClient, "call", ctx, 10.0, 100.0,
              {{"status", "ok", false}});
  tracer.instant(kTraceTrackQueue, "mark", ctx, 20.0);
  tracer.span(kTraceTrackFabric, "dropped", TraceContext{}, 0.0, 1.0);
  EXPECT_EQ(tracer.span_count(), 2u);  // the invalid context records nothing
  const std::string json = tracer.to_chrome_json("test");
  EXPECT_TRUE(validate_chrome_trace(json).ok());
  EXPECT_NE(json.find(Tracer::trace_hex(ctx.trace_id)), std::string::npos);

  // The client-side merge path: parse one tracer's export, graft it
  // into another, and the result still validates.
  std::vector<Span> spans;
  ASSERT_TRUE(parse_chrome_trace(json, &spans).ok());
  Tracer other;
  other.merge_spans(spans);
  EXPECT_EQ(other.span_count(), 2u);
  EXPECT_TRUE(validate_chrome_trace(other.to_chrome_json()).ok());
}

TEST(Tracer, AnomalyDumpKeepsOwnTraceAndChaosFires) {
  Tracer tracer;
  const auto mine = tracer.make_context();
  const auto other = tracer.make_context();
  tracer.event(mine, FlightEventKind::kEnqueue, 0, 1);
  tracer.event(other, FlightEventKind::kEnqueue, 0, 2);
  tracer.event(TraceContext{}, FlightEventKind::kChaosFire, 3, 4);
  tracer.note_anomaly(mine, AnomalyReason::kDeadlineExceeded, "late");
  const auto anomalies = tracer.anomalies();
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].trace_id, mine.trace_id);
  EXPECT_EQ(anomalies[0].reason, AnomalyReason::kDeadlineExceeded);
  EXPECT_EQ(anomalies[0].detail, "late");
  // Own enqueue + the chaos fire + the kAnomaly marker itself; the other
  // trace's enqueue is filtered out.
  ASSERT_EQ(anomalies[0].events.size(), 3u);
  EXPECT_EQ(anomalies[0].events[0].kind, FlightEventKind::kEnqueue);
  EXPECT_EQ(anomalies[0].events[1].kind, FlightEventKind::kChaosFire);
  EXPECT_EQ(anomalies[0].events[2].kind, FlightEventKind::kAnomaly);
  // The dump annotates the flight-recorder track in the export.
  const std::string json = tracer.to_chrome_json();
  EXPECT_TRUE(validate_chrome_trace(json).ok());
  EXPECT_NE(json.find("anomaly: deadline-exceeded"), std::string::npos);
}

TEST(Tracer, AnomaliesAreFifoBounded) {
  TracerOptions opt;
  opt.max_anomalies = 4;
  Tracer tracer(opt);
  for (int i = 0; i < 10; ++i) {
    TraceContext ctx{static_cast<std::uint64_t>(i + 1), 0};
    tracer.note_anomaly(ctx, AnomalyReason::kError, std::to_string(i));
  }
  const auto anomalies = tracer.anomalies();
  ASSERT_EQ(anomalies.size(), 4u);
  EXPECT_EQ(anomalies.front().detail, "6");
  EXPECT_EQ(anomalies.back().detail, "9");
}

TEST(Tracer, SlowTailReservoirFlagsOnlyStragglers) {
  Tracer tracer;
  const auto ctx = tracer.make_context();
  // Uniform completions: strictly-greater-than-p99 never fires.
  for (int i = 0; i < 100; ++i) tracer.note_complete(ctx, 1e6);
  EXPECT_TRUE(tracer.anomalies().empty());
  tracer.note_complete(ctx, 5e8);  // a 500 ms straggler
  const auto anomalies = tracer.anomalies();
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].reason, AnomalyReason::kSlowTail);
}

TEST(Metrics, HistogramQuantileInterpolates) {
  HistogramSnapshot snap;
  snap.name = "h";
  snap.bounds = {1.0, 2.0, 4.0};
  snap.counts = {10, 10, 0, 0};
  snap.total = 20;
  EXPECT_DOUBLE_EQ(histogram_quantile(snap, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(snap, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(snap, 0.75), 1.5);
  EXPECT_DOUBLE_EQ(histogram_quantile(snap, 1.0), 2.0);
  // Overflow bucket clamps to the last finite bound.
  HistogramSnapshot over;
  over.bounds = {1.0, 2.0, 4.0};
  over.counts = {0, 0, 0, 5};
  over.total = 5;
  EXPECT_DOUBLE_EQ(histogram_quantile(over, 0.9), 4.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(HistogramSnapshot{}, 0.5), 0.0);
}

// -------------------------------------------------------------- json utils

TEST(Json, EscapeAndNumberFormatting) {
  EXPECT_EQ(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(json_number(42.0), "42");
  EXPECT_EQ(json_number(2.5), "2.5");
  JsonValue v;
  ASSERT_TRUE(parse_json("{\"k\": [1, true, \"s\", null]}", &v).ok());
  ASSERT_NE(v.find("k"), nullptr);
  ASSERT_EQ(v.find("k")->array.size(), 4u);
  EXPECT_FALSE(parse_json("{\"k\": }", &v).ok());
  EXPECT_FALSE(parse_json("[1, 2", &v).ok());
}

}  // namespace
}  // namespace cgra::obs
