// Tests for the telemetry subsystem (obs): counter/gauge/histogram math,
// span nesting and self-time accounting, JSONL report round-trips through
// the service's JSON parser, disabled-mode inertness, the guarantee that
// flow instrumentation never changes placement results, and the run window
// a cold RL-preset place::run owns.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "benchgen/generator.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "par/par.hpp"
#include "place/flow.hpp"
#include "place/placer.hpp"
#include "svc/json.hpp"
#include "util/timer.hpp"

namespace mp::obs {
namespace {

// ---------------------------------------------------------------------------
// Report lines are parsed with the service's JSON parser (svc::Json).

/// Parses one report line; a malformed line fails the test and yields null.
svc::Json parse_line(const std::string& line) {
  try {
    return svc::Json::parse(line);
  } catch (const svc::JsonError& e) {
    ADD_FAILURE() << e.what() << " in: " << line.substr(0, 80);
    return svc::Json();
  }
}

/// Member `key` of an object; fails the test and yields null when absent.
const svc::Json& at(const svc::Json& object, const std::string& key) {
  static const svc::Json null_json;
  const svc::Json* member = object.find(key);
  EXPECT_NE(member, nullptr) << "missing key: " << key;
  return member != nullptr ? *member : null_json;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return lines;
  std::string line;
  int c;
  while ((c = std::fgetc(f)) != EOF) {
    if (c == '\n') {
      lines.push_back(line);
      line.clear();
    } else {
      line += static_cast<char>(c);
    }
  }
  if (!line.empty()) lines.push_back(line);
  std::fclose(f);
  return lines;
}

// Busy-waits so span totals are measured by the same wall clock Timer uses.
void spin_for(double seconds) {
  util::Timer t;
  while (t.seconds() < seconds) {}
}

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    reset_values();
  }
  void TearDown() override {
    set_enabled(true);
    reset_values();
  }
};

// ---------------------------------------------------------------------------
// Counters / gauges

TEST_F(ObsTest, CounterAddsAndResets) {
  Counter& c = Registry::global().counter("test.counter");
  EXPECT_EQ(c.value(), 0);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  // Same name returns the same entry.
  EXPECT_EQ(&Registry::global().counter("test.counter"), &c);
  reset_values();
  EXPECT_EQ(c.value(), 0);
}

TEST_F(ObsTest, GaugeKeepsLastValue) {
  Gauge& g = Registry::global().gauge("test.gauge");
  g.set(1.5);
  g.set(-2.75);
  EXPECT_DOUBLE_EQ(g.value(), -2.75);
}

TEST_F(ObsTest, MacrosRecordIntoGlobalRegistry) {
  MP_OBS_COUNT("test.macro_counter", 3);
  MP_OBS_COUNT("test.macro_counter", 4);
  MP_OBS_GAUGE("test.macro_gauge", 9.0);
  MP_OBS_HIST("test.macro_hist", 2.0);
  EXPECT_EQ(Registry::global().counter("test.macro_counter").value(), 7);
  EXPECT_DOUBLE_EQ(Registry::global().gauge("test.macro_gauge").value(), 9.0);
  EXPECT_EQ(Registry::global().histogram("test.macro_hist").count(), 1);
}

TEST_F(ObsTest, ContextsIsolateMetricsPerJob) {
  // Two concurrent "jobs" record the same metric names inside their own
  // contexts: each lands in its own registry (tagged with the job id), the
  // global registry sees nothing, and the binding restores on scope exit.
  EXPECT_EQ(current_context_tag(), "");
  Context job_a("job-a");
  Context job_b("job-b");
  std::thread tb([&] {
    ScopedContext scoped(&job_b);
    MP_OBS_COUNT("test.ctx_counter", 5);
    Span span("ctx.phase");
  });
  {
    ScopedContext scoped(&job_a);
    EXPECT_EQ(current_context_tag(), "job-a");
    EXPECT_EQ(&current_registry(), &job_a.registry());
    MP_OBS_COUNT("test.ctx_counter", 2);
    MP_OBS_COUNT("test.ctx_counter", 1);
    Span span("ctx.phase");
  }
  tb.join();
  EXPECT_EQ(current_context_tag(), "");
  EXPECT_EQ(&current_registry(), &Registry::global());
  EXPECT_EQ(job_a.registry().counter("test.ctx_counter").value(), 3);
  EXPECT_EQ(job_b.registry().counter("test.ctx_counter").value(), 5);
  EXPECT_EQ(Registry::global().counter("test.ctx_counter").value(), 0);
}

TEST_F(ObsTest, ContextPropagatesToParPoolWorkers) {
  // par:: carries the obs context into pool workers, so a job's fan-out
  // records into the job's registry, not the global one.
  Context job("job-par");
  {
    ScopedContext scoped(&job);
    par::ThreadPool pool(3);
    par::ScopedPool scoped_pool(&pool);
    std::atomic<long long> ticks{0};
    par::parallel_for(0, 64, 1, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        MP_OBS_COUNT("test.ctx_par_counter", 1);
        ticks.fetch_add(1);
      }
    });
    EXPECT_EQ(ticks.load(), 64);
  }
  EXPECT_EQ(job.registry().counter("test.ctx_par_counter").value(), 64);
  EXPECT_EQ(Registry::global().counter("test.ctx_par_counter").value(), 0);
}

// ---------------------------------------------------------------------------
// Histogram math

TEST_F(ObsTest, HistogramExactStatistics) {
  Histogram h;
  for (double v : {4.0, 1.0, 16.0, 0.25}) h.record(v);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 4);
  EXPECT_DOUBLE_EQ(s.sum, 21.25);
  EXPECT_DOUBLE_EQ(s.min, 0.25);
  EXPECT_DOUBLE_EQ(s.max, 16.0);
  EXPECT_DOUBLE_EQ(s.mean(), 21.25 / 4.0);
}

TEST_F(ObsTest, HistogramQuantilesOnUniformDistribution) {
  // 1..1000 once each: true p50 = 500, p90 = 900.  Log-scale bins bound the
  // relative error by the bin width, 2^(1/4) - 1 ~ 19%; allow 25% headroom.
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  EXPECT_NEAR(h.quantile(0.5), 500.0, 500.0 * 0.25);
  EXPECT_NEAR(h.quantile(0.9), 900.0, 900.0 * 0.25);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
}

TEST_F(ObsTest, HistogramQuantileEdgeCases) {
  // Empty histogram: every quantile is 0 (matching the min/max convention).
  Histogram empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(1.0), 0.0);
  // One sample: all mass in one bin, clamped to [min, max] -> exact.
  Histogram one;
  one.record(3.5);
  EXPECT_DOUBLE_EQ(one.quantile(0.0), 3.5);
  EXPECT_DOUBLE_EQ(one.quantile(0.5), 3.5);
  EXPECT_DOUBLE_EQ(one.quantile(0.99), 3.5);
  EXPECT_DOUBLE_EQ(one.quantile(1.0), 3.5);
}

TEST_F(ObsTest, HistogramQuantilePinsExactBinBoundaries) {
  // Two well-separated spikes: ranks at or below the first spike's mass must
  // resolve to the first spike's bin, ranks above to the second's.  The
  // spike values are bin representatives, so interpolation stays inside a
  // single bin and the estimate lands within one bin width of the spike.
  const double lo = Histogram::bin_value(Histogram::kZeroBin);        // ~1
  const double hi = Histogram::bin_value(Histogram::kZeroBin + 40);   // ~2^10
  Histogram h;
  for (int i = 0; i < 90; ++i) h.record(lo);
  for (int i = 0; i < 10; ++i) h.record(hi);
  const double bin_width = std::exp2(1.0 / Histogram::kSubBins) - 1.0;
  EXPECT_NEAR(h.quantile(0.5), lo, lo * bin_width);
  EXPECT_NEAR(h.quantile(0.9), lo, lo * bin_width);
  EXPECT_NEAR(h.quantile(0.95), hi, hi * bin_width);
  EXPECT_NEAR(h.quantile(0.99), hi, hi * bin_width);
}

TEST_F(ObsTest, HistogramQuantileInterpolationErrorBound) {
  // The documented guarantee: relative error below one bin width,
  // 2^(1/kSubBins) - 1.  Check it against exact quantiles of a log-uniform
  // sample where every bin boundary is crossed many times.
  std::vector<double> values;
  Histogram h;
  for (int i = 0; i < 4000; ++i) {
    const double v = std::exp2(static_cast<double>(i % 1000) / 100.0);  // [1, 2^10)
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  const double bound = std::exp2(1.0 / Histogram::kSubBins) - 1.0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(values.size()));
    const double exact = values[std::min(rank, values.size() - 1)];
    const double estimate = h.quantile(q);
    EXPECT_LE(std::abs(estimate - exact) / exact, bound)
        << "q=" << q << " exact=" << exact << " estimate=" << estimate;
  }
}

TEST_F(ObsTest, HistogramSnapshotIsConsistentUnderConcurrentRecords) {
  // Writers hammer record(1.0) while a reader snapshots.  Every sample is
  // 1.0, so any snapshot flagged consistent must have sum == count exactly;
  // a torn read (count incremented, sum not yet) would break that equality.
  // Under sustained overlap the retry loop is allowed to give up — but then
  // the snapshot must be FLAGGED inconsistent, never silently torn.
  constexpr int kWriters = 3;
  constexpr long long kPerWriter = 40000;
  Histogram h;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      for (long long i = 0; i < kPerWriter; ++i) h.record(1.0);
    });
  }
  while (h.count() < kWriters * kPerWriter) {
    const HistogramSnapshot s = h.snapshot();
    if (s.consistent && s.count > 0) {
      EXPECT_DOUBLE_EQ(s.sum, static_cast<double>(s.count));
      EXPECT_DOUBLE_EQ(s.min, 1.0);
      EXPECT_DOUBLE_EQ(s.max, 1.0);
      long long binned = s.underflow;
      for (long long b : s.bins) binned += b;
      EXPECT_EQ(binned, s.count);
    }
  }
  for (std::thread& t : writers) t.join();
  // Quiescent now: the snapshot must come back consistent and complete.
  const HistogramSnapshot s = h.snapshot();
  EXPECT_TRUE(s.consistent);
  EXPECT_EQ(s.count, kWriters * kPerWriter);
  EXPECT_DOUBLE_EQ(s.sum, static_cast<double>(s.count));
}

TEST_F(ObsTest, HistogramQuantileOfConstantIsExact) {
  // All mass in one bin; clamping to [min, max] makes the estimate exact.
  Histogram h;
  for (int i = 0; i < 100; ++i) h.record(7.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 7.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 7.0);
}

TEST_F(ObsTest, HistogramNonPositiveSamplesGoToUnderflow) {
  Histogram h;
  h.record(-5.0);
  h.record(0.0);
  h.record(1.0);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 3);
  EXPECT_EQ(s.underflow, 2);
  EXPECT_DOUBLE_EQ(s.min, -5.0);
  EXPECT_DOUBLE_EQ(s.max, 1.0);
  // Rank 1.5 of 3 falls inside the underflow mass -> reports min.
  EXPECT_DOUBLE_EQ(s.quantile(0.5), -5.0);
}

TEST_F(ObsTest, HistogramIgnoresNonFiniteAndResets) {
  Histogram h;
  h.record(std::nan(""));
  h.record(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(), 0);
  h.record(2.0);
  EXPECT_EQ(h.count(), 1);
  h.reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST_F(ObsTest, HistogramBinValueIsGeometricMidpoint) {
  // kZeroBin covers [1, 2^(1/4)); its representative lies inside.
  const double v = Histogram::bin_value(Histogram::kZeroBin);
  EXPECT_GT(v, 1.0);
  EXPECT_LT(v, std::exp2(1.0 / Histogram::kSubBins));
  // Midpoints are strictly increasing across bins.
  EXPECT_LT(Histogram::bin_value(10), Histogram::bin_value(11));
}

// ---------------------------------------------------------------------------
// Spans

TEST_F(ObsTest, SpanNestingAndSelfTime) {
  {
    Span outer("outer");
    spin_for(0.004);
    {
      Span inner("inner");
      spin_for(0.008);
    }
    spin_for(0.004);
  }
  const RegistrySnapshot snap = Registry::global().snapshot();
  ASSERT_EQ(snap.spans.size(), 1u);
  const SpanSnapshot& outer = snap.spans[0];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.count, 1);
  ASSERT_EQ(outer.children.size(), 1u);
  const SpanSnapshot& inner = outer.children[0];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(inner.count, 1);
  EXPECT_GE(inner.total_seconds, 0.008);
  EXPECT_GE(outer.total_seconds, inner.total_seconds + 0.008);
  // Self time is wall time minus the children's wall time.
  EXPECT_NEAR(outer.self_seconds, outer.total_seconds - inner.total_seconds, 1e-12);
  EXPECT_GE(outer.self_seconds, 0.008);
  // Leaves own all of their time.
  EXPECT_DOUBLE_EQ(inner.self_seconds, inner.total_seconds);
}

TEST_F(ObsTest, RepeatedSpansAggregateByPath) {
  for (int i = 0; i < 3; ++i) {
    MP_OBS_SPAN("loop");
    spin_for(0.001);
  }
  const RegistrySnapshot snap = Registry::global().snapshot();
  ASSERT_EQ(snap.spans.size(), 1u);
  EXPECT_EQ(snap.spans[0].name, "loop");
  EXPECT_EQ(snap.spans[0].count, 3);
  EXPECT_GE(snap.spans[0].total_seconds, 0.003);
}

TEST_F(ObsTest, SameNameUnderDifferentParentsIsDistinct) {
  {
    Span a("parent_a");
    Span s("shared");
  }
  {
    Span b("parent_b");
    Span s("shared");
  }
  const RegistrySnapshot snap = Registry::global().snapshot();
  ASSERT_EQ(snap.spans.size(), 2u);
  for (const SpanSnapshot& top : snap.spans) {
    ASSERT_EQ(top.children.size(), 1u);
    EXPECT_EQ(top.children[0].name, "shared");
    EXPECT_EQ(top.children[0].count, 1);
  }
}

// ---------------------------------------------------------------------------
// Disabled mode

TEST_F(ObsTest, DisabledModeRecordsNothing) {
  set_enabled(false);
  EXPECT_FALSE(enabled());
  MP_OBS_COUNT("test.never_created", 1);
  MP_OBS_GAUGE("test.never_created_gauge", 1.0);
  MP_OBS_HIST("test.never_created_hist", 1.0);
  {
    Span s("never_recorded");
    spin_for(0.001);
  }
  set_enabled(true);
  const RegistrySnapshot snap = Registry::global().snapshot();
  for (const auto& [name, value] : snap.counters) {
    EXPECT_NE(name, "test.never_created");
  }
  for (const auto& [name, value] : snap.gauges) {
    EXPECT_NE(name, "test.never_created_gauge");
  }
  for (const auto& [name, h] : snap.histograms) {
    EXPECT_NE(name, "test.never_created_hist");
  }
  EXPECT_TRUE(snap.spans.empty());
}

TEST_F(ObsTest, DisabledMacrosDoNotEvaluateArguments) {
  set_enabled(false);
  int evaluations = 0;
  const auto side_effect = [&]() { ++evaluations; return 1.0; };
  MP_OBS_HIST("test.lazy", side_effect());
  MP_OBS_GAUGE("test.lazy_gauge", side_effect());
  EXPECT_EQ(evaluations, 0);
  set_enabled(true);
  MP_OBS_HIST("test.lazy", side_effect());
  EXPECT_EQ(evaluations, 1);
}

// ---------------------------------------------------------------------------
// JSONL reports

TEST_F(ObsTest, RunReportRoundTripsThroughJsonParser) {
  Registry::global().counter("rt.counter").add(42);
  Registry::global().gauge("rt.gauge").set(2.5);
  Histogram& h = Registry::global().histogram("rt.hist");
  for (int i = 0; i < 10; ++i) h.record(3.0);
  {
    Span outer("rt.outer");
    Span inner("rt.inner");
    spin_for(0.001);
  }

  const std::string path = ::testing::TempDir() + "obs_roundtrip.jsonl";
  std::remove(path.c_str());
  ReportWriter writer(path);
  ASSERT_TRUE(writer.valid());
  writer.write_run("unit_test", Registry::global().snapshot());

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  const svc::Json doc = parse_line(lines[0]);
  ASSERT_TRUE(doc.is_object());

  EXPECT_EQ(at(doc, "kind").as_string(), "run");
  EXPECT_EQ(at(doc, "label").as_string(), "unit_test");
  EXPECT_DOUBLE_EQ(at(at(doc, "counters"), "rt.counter").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(at(at(doc, "gauges"), "rt.gauge").as_number(), 2.5);

  const svc::Json& hist = at(at(doc, "histograms"), "rt.hist");
  EXPECT_DOUBLE_EQ(at(hist, "count").as_number(), 10.0);
  EXPECT_DOUBLE_EQ(at(hist, "sum").as_number(), 30.0);
  EXPECT_DOUBLE_EQ(at(hist, "mean").as_number(), 3.0);
  // Constant samples: every reported quantile is exact.
  EXPECT_DOUBLE_EQ(at(hist, "p50").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(at(hist, "p90").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(at(hist, "p95").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(at(hist, "p99").as_number(), 3.0);

  const svc::Json& spans = at(doc, "spans");
  ASSERT_TRUE(spans.is_array());
  ASSERT_EQ(spans.size(), 1u);
  const svc::Json& outer = spans.items()[0];
  EXPECT_EQ(at(outer, "name").as_string(), "rt.outer");
  EXPECT_GT(at(outer, "wall_s").as_number(), 0.0);
  ASSERT_EQ(at(outer, "children").size(), 1u);
  EXPECT_EQ(at(at(outer, "children").items()[0], "name").as_string(),
            "rt.inner");
  std::remove(path.c_str());
}

TEST_F(ObsTest, RunReportAppendsOneLinePerRun) {
  const std::string path = ::testing::TempDir() + "obs_append.jsonl";
  std::remove(path.c_str());
  ReportWriter writer(path);
  writer.write_run("first", Registry::global().snapshot());
  writer.write_run("second", Registry::global().snapshot());
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(at(parse_line(lines[0]), "label").as_string(), "first");
  EXPECT_EQ(at(parse_line(lines[1]), "label").as_string(), "second");
  std::remove(path.c_str());
}

TEST_F(ObsTest, NonFiniteValuesSerializeAsNull) {
  Registry::global().gauge("rt.nan_gauge").set(std::nan(""));
  const std::string path = ::testing::TempDir() + "obs_nan.jsonl";
  std::remove(path.c_str());
  ReportWriter(path).write_run("nan", Registry::global().snapshot());
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  const svc::Json doc = parse_line(lines[0]);
  ASSERT_TRUE(doc.is_object());
  // at() fails the test when the key is absent, so null here means "null".
  EXPECT_TRUE(at(at(doc, "gauges"), "rt.nan_gauge").is_null());
  std::remove(path.c_str());
}

TEST_F(ObsTest, TableReportRoundTrips) {
  const std::string path = ::testing::TempDir() + "obs_table.jsonl";
  std::remove(path.c_str());
  ReportWriter writer(path);
  writer.write_table("bench_x", {"hpwl", "seconds"},
                     {{"ibm01", {12.5, 0.25}}, {"ibm02", {99.0, 1.0}}});
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  const svc::Json doc = parse_line(lines[0]);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(at(doc, "kind").as_string(), "table");
  EXPECT_EQ(at(doc, "bench").as_string(), "bench_x");
  ASSERT_EQ(at(doc, "columns").size(), 2u);
  EXPECT_EQ(at(doc, "columns").items()[0].as_string(), "hpwl");
  ASSERT_EQ(at(doc, "rows").size(), 2u);
  const svc::Json& row = at(doc, "rows").items()[0];
  EXPECT_EQ(at(row, "name").as_string(), "ibm01");
  EXPECT_DOUBLE_EQ(at(row, "values").items()[1].as_number(), 0.25);
  std::remove(path.c_str());
}

TEST_F(ObsTest, EscapedStringsSurviveRoundTrip) {
  Registry::global().counter("weird \"name\"\twith\nescapes").add(1);
  const std::string path = ::testing::TempDir() + "obs_escape.jsonl";
  std::remove(path.c_str());
  ReportWriter(path).write_run("label \\ \"quoted\"",
                               Registry::global().snapshot());
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  const svc::Json doc = parse_line(lines[0]);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(at(doc, "label").as_string(), "label \\ \"quoted\"");
  EXPECT_DOUBLE_EQ(
      at(at(doc, "counters"), "weird \"name\"\twith\nescapes").as_number(),
      1.0);
  std::remove(path.c_str());
}

TEST_F(ObsTest, EmptyDestinationIsInvalidAndWritesNothing) {
  ReportWriter writer((std::string()));
  EXPECT_FALSE(writer.valid());
  writer.write_run("dropped", Registry::global().snapshot());  // must not crash
}

TEST_F(ObsTest, ConcurrentWritersToOneDestinationNeverInterleaveLines) {
  // Four writers (one ReportWriter each, same path — the per-destination
  // mutex is keyed by path, not per instance) append many run lines
  // concurrently.  Regression: before the mutex, fprintf bodies from
  // different service workers could interleave mid-line.
  const std::string path = ::testing::TempDir() + "obs_interleave.jsonl";
  std::remove(path.c_str());
  constexpr int kWriters = 4;
  constexpr int kLines = 50;
  // A long counter name makes each line big enough to straddle stdio
  // buffer boundaries, where unsynchronized interleaving actually bites.
  Registry::global().counter(std::string(2048, 'x')).add(1);
  const RegistrySnapshot snap = Registry::global().snapshot();
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      ReportWriter writer(path);
      for (int i = 0; i < kLines; ++i) {
        writer.write_run("w" + std::to_string(w) + "." + std::to_string(i),
                         snap);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kWriters * kLines));
  for (const std::string& line : lines) {
    const svc::Json doc = parse_line(line);
    ASSERT_TRUE(doc.is_object()) << "torn line: " << line.substr(0, 80);
    EXPECT_EQ(at(doc, "kind").as_string(), "run");
  }
  std::remove(path.c_str());
}

TEST_F(ObsTest, PrometheusTextExposesAllMetricKinds) {
  Registry::global().counter("svc.jobs.done").add(3);
  Registry::global().gauge("svc.queue_depth").set(2.0);
  Histogram& h = Registry::global().histogram("svc.run_time");
  for (int i = 0; i < 8; ++i) h.record(0.5);
  const std::string text = prometheus_text(Registry::global().snapshot());
  // Names are prefixed and sanitized ('.' -> '_').
  EXPECT_NE(text.find("# TYPE mp_svc_jobs_done counter"), std::string::npos);
  EXPECT_NE(text.find("mp_svc_jobs_done 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE mp_svc_queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE mp_svc_run_time summary"), std::string::npos);
  EXPECT_NE(text.find("mp_svc_run_time{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("mp_svc_run_time{quantile=\"0.99\"}"), std::string::npos);
  EXPECT_NE(text.find("mp_svc_run_time_count 8"), std::string::npos);
  EXPECT_NE(text.find("mp_svc_run_time_sum"), std::string::npos);
  // Exposition ends with a newline (required by the text format).
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
}

TEST_F(ObsTest, SummaryTableListsPhasesAndCounters) {
  {
    Span outer("phase_a");
    Span inner("phase_b");
    spin_for(0.001);
  }
  Registry::global().counter("summary.counter").add(5);
  Registry::global().histogram("summary.latency").record(0.25);
  const std::string table = summary_table();
  EXPECT_NE(table.find("phase_a"), std::string::npos);
  EXPECT_NE(table.find("phase_b"), std::string::npos);
  EXPECT_NE(table.find("summary.counter"), std::string::npos);
  // Histograms get their own quantile table.
  EXPECT_NE(table.find("summary.latency"), std::string::npos);
  EXPECT_NE(table.find("p50"), std::string::npos);
  EXPECT_NE(table.find("p95"), std::string::npos);
  EXPECT_NE(table.find("p99"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Flow instrumentation is inert: identical placements with obs off and on.

netlist::Design small_bench(std::uint64_t seed) {
  benchgen::BenchSpec spec;
  spec.movable_macros = 8;
  spec.std_cells = 150;
  spec.nets = 220;
  spec.seed = seed;
  return benchgen::generate(spec);
}

double run_small_flow(netlist::Design& design) {
  place::FlowOptions options;
  options.grid_dim = 4;
  options.initial_gp.max_iterations = 3;
  options.final_gp.max_iterations = 4;
  place::FlowContext context = place::prepare_flow(design, options);
  std::vector<grid::CellCoord> anchors;
  for (std::size_t g = 0; g < context.clustering.macro_groups.size(); ++g) {
    anchors.push_back({static_cast<int>(g) % 4, static_cast<int>(g / 4) % 4});
  }
  return place::finalize_placement(design, context, anchors, options);
}

TEST_F(ObsTest, FlowInstrumentationIsInert) {
  netlist::Design d_off = small_bench(314);
  netlist::Design d_on = small_bench(314);

  set_enabled(false);
  const double hpwl_off = run_small_flow(d_off);

  set_enabled(true);
  reset_values();
  const double hpwl_on = run_small_flow(d_on);

  // Bit-for-bit identical results...
  EXPECT_EQ(hpwl_off, hpwl_on);
  ASSERT_EQ(d_off.num_nodes(), d_on.num_nodes());
  for (std::size_t i = 0; i < d_off.num_nodes(); ++i) {
    const netlist::NodeId id = static_cast<netlist::NodeId>(i);
    EXPECT_EQ(d_off.node(id).position.x, d_on.node(id).position.x);
    EXPECT_EQ(d_off.node(id).position.y, d_on.node(id).position.y);
  }

  // ...while the enabled run actually recorded the flow's telemetry.
  const RegistrySnapshot snap = Registry::global().snapshot();
  std::vector<std::string> top;
  for (const SpanSnapshot& s : snap.spans) top.push_back(s.name);
  EXPECT_NE(std::find(top.begin(), top.end(), "flow.prepare"), top.end());
  EXPECT_NE(std::find(top.begin(), top.end(), "flow.finalize"), top.end());
  bool saw_gp = false;
  for (const auto& [name, value] : snap.counters) {
    if (name == "gp.invocations") saw_gp = value > 0;
  }
  EXPECT_TRUE(saw_gp);
}

// ---------------------------------------------------------------------------
// A cold RL-preset place::run owns one telemetry window.

bool span_tree_holds(const svc::Json& spans, const std::string& name) {
  for (const svc::Json& span : spans.items()) {
    if (at(span, "name").as_string() == name) return true;
    const svc::Json* children = span.find("children");
    if (children != nullptr && span_tree_holds(*children, name)) return true;
  }
  return false;
}

TEST_F(ObsTest, ColdRlOnlyRunWritesOneRunReport) {
  const std::string path = ::testing::TempDir() + "obs_rl_only.jsonl";
  std::remove(path.c_str());
  const char* previous = std::getenv("MP_OBS_OUT");
  const std::string saved = previous != nullptr ? previous : "";
  ::setenv("MP_OBS_OUT", path.c_str(), 1);

  place::PresetKnobs knobs;
  knobs.episodes = 4;
  knobs.gamma = 2;
  knobs.grid = 4;
  knobs.channels = 8;
  knobs.blocks = 1;
  netlist::Design design = small_bench(316);
  place::run(design, place::spec_from_preset(place::Preset::kRlOnly, knobs));

  if (previous != nullptr) {
    ::setenv("MP_OBS_OUT", saved.c_str(), 1);
  } else {
    ::unsetenv("MP_OBS_OUT");
  }
  std::vector<svc::Json> runs;
  for (const std::string& line : read_lines(path)) {
    svc::Json doc = parse_line(line);
    if (doc.is_object() && at(doc, "kind").as_string() == "run") {
      runs.push_back(std::move(doc));
    }
  }
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(at(runs[0], "label").as_string(), "rl_only_place");
  EXPECT_TRUE(span_tree_holds(at(runs[0], "spans"), "rl.train"));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mp::obs
