// Tests of the benchmark's helpers: the percentile rule, the seed → arrival
// schedule contract, metric names (including every name BENCHMARK.json
// declares) and a round trip of the result line.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "bench_lib.hpp"
#include "svc/json.hpp"

namespace {

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Quantile, NearestRankLeavesTheTailBeyond) {
  const std::vector<double> v = iota(100);
  EXPECT_EQ(mpbench::quantile(v, 0.9), 90.0);  // ten samples beyond it
  EXPECT_EQ(mpbench::quantile(v, 0.5), 50.0);
  EXPECT_EQ(mpbench::quantile(v, 1.0), 100.0);
  EXPECT_EQ(mpbench::quantile(v, 0.0), 1.0);
  EXPECT_EQ(mpbench::quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
  EXPECT_THROW(mpbench::quantile({}, 0.5), std::invalid_argument);
}

TEST(Quantile, MedianAveragesTheMiddlePair) {
  EXPECT_EQ(mpbench::median({4.0, 1.0, 3.0}), 3.0);
  EXPECT_EQ(mpbench::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW(mpbench::median({}), std::invalid_argument);
}

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_FALSE(mpbench::tail_quantile(0).has_value());
  EXPECT_FALSE(mpbench::tail_quantile(19).has_value());
  EXPECT_EQ(*mpbench::tail_quantile(20), 0.5);
  EXPECT_EQ(*mpbench::tail_quantile(99), 0.5);  // p90 would leave nine
  EXPECT_EQ(*mpbench::tail_quantile(100), 0.9);
  EXPECT_EQ(*mpbench::tail_quantile(199), 0.9);
  EXPECT_EQ(*mpbench::tail_quantile(200), 0.95);
  EXPECT_EQ(*mpbench::tail_quantile(1000), 0.99);
  EXPECT_EQ(*mpbench::tail_quantile(10000), 0.999);
  // The rule and the quantile agree: ten samples lie strictly beyond.
  for (const long long n : {20LL, 100LL, 137LL, 200LL, 1000LL}) {
    const double q = *mpbench::tail_quantile(n);
    const std::vector<double> v = iota(static_cast<int>(n));
    const double cut = mpbench::quantile(v, q);
    long long beyond = 0;
    for (const double x : v) beyond += x > cut ? 1 : 0;
    EXPECT_GE(beyond, 10) << n;
    EXPECT_EQ(beyond, mpbench::samples_beyond(n, q)) << n;
  }
}

TEST(Schedule, PureFunctionOfTheSeed) {
  const auto a = mpbench::eco_schedule(7, 100, 3.2, 5);
  const auto b = mpbench::eco_schedule(7, 100, 3.2, 5);
  const auto c = mpbench::eco_schedule(8, 100, 3.2, 5);
  ASSERT_EQ(a.size(), 100u);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at_s, b[i].at_s);
    EXPECT_EQ(a[i].netlist, b[i].netlist);
    differs |= a[i].at_s != c[i].at_s;
  }
  EXPECT_TRUE(differs);
}

TEST(Schedule, EveryNetlistTwiceAGapApartAtTheRate) {
  const int gap = 5;
  const auto s = mpbench::eco_schedule(3, 200, 4.0, gap);
  std::map<int, std::vector<int>> sends;
  for (std::size_t i = 0; i < s.size(); ++i) {
    sends[s[i].netlist].push_back(static_cast<int>(i));
    if (i > 0) {
      EXPECT_GE(s[i].at_s, s[i - 1].at_s);
    }
  }
  EXPECT_EQ(s.front().at_s, 0.0);
  EXPECT_EQ(sends.size(), 100u);
  for (const auto& [netlist, at] : sends) {
    ASSERT_EQ(at.size(), 2u) << netlist;
    EXPECT_EQ(at[1] - at[0], gap) << netlist;
  }
  // Every block of 2·gap arrivals spans exactly 2·gap / rate seconds, and
  // its gaps are the same strata in a seed-dependent order.
  std::vector<double> first_block_gaps;
  for (std::size_t i = 0; i + 1 < s.size(); ++i) {
    if (i % (2 * gap) == 0) {
      EXPECT_NEAR(s[i].at_s, static_cast<double>(i) / 4.0, 1e-9) << i;
    }
    if (i < 2 * gap) first_block_gaps.push_back(s[i + 1].at_s - s[i].at_s);
  }
  std::vector<double> sorted = first_block_gaps;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_LT(sorted.front() * 10.0, sorted.back());  // exponential spread
  EXPECT_NE(sorted, first_block_gaps);              // shuffled
  EXPECT_THROW(mpbench::eco_schedule(1, 101, 4.0, gap), std::invalid_argument);
  EXPECT_THROW(mpbench::eco_schedule(1, 100, 0.0, gap), std::invalid_argument);
}

TEST(MetricNames, CharacterSetAndLength) {
  EXPECT_TRUE(mpbench::valid_metric_name("rl.update_s"));
  EXPECT_TRUE(mpbench::valid_metric_name("svc.queue_wait_p90_s"));
  EXPECT_TRUE(mpbench::valid_metric_name("0-9.A_z"));
  EXPECT_TRUE(mpbench::valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(mpbench::valid_metric_name(std::string(65, 'a')));
  EXPECT_FALSE(mpbench::valid_metric_name(""));
  EXPECT_FALSE(mpbench::valid_metric_name(".hidden"));
  EXPECT_FALSE(mpbench::valid_metric_name("_x"));
  EXPECT_FALSE(mpbench::valid_metric_name("a b"));
  EXPECT_FALSE(mpbench::valid_metric_name("p90/s"));
  EXPECT_FALSE(mpbench::valid_metric_name("é"));
}

TEST(MetricNames, EveryDeclaredMetricIsValid) {
  std::ifstream in(MPBENCH_DECLARATION);
  ASSERT_TRUE(in.good()) << MPBENCH_DECLARATION;
  std::stringstream text;
  text << in.rdbuf();
  const mp::svc::Json decl = mp::svc::Json::parse(text.str());
  std::size_t names = 0;
  for (const char* list : {"end_to_end", "per_layer"}) {
    for (const mp::svc::Json& m : decl.find(list)->items()) {
      EXPECT_TRUE(mpbench::valid_metric_name(m.find("name")->as_string()))
          << m.find("name")->as_string();
      ++names;
    }
  }
  EXPECT_GT(names, 0u);
}

// Reads a result line back with the repository's JSON parser.
mpbench::RunResult parse_result(const std::string& line) {
  const mp::svc::Json j = mp::svc::Json::parse(line);
  EXPECT_EQ(j.members().size(), 4u);
  mpbench::RunResult r;
  r.correct = j.find("correct")->as_bool();
  r.attempted = static_cast<long long>(j.find("attempted")->as_number());
  r.failed = static_cast<long long>(j.find("failed")->as_number());
  for (const auto& [name, entry] : j.find("metrics")->members()) {
    EXPECT_EQ(entry.members().size(), 2u) << name;
    r.metrics.push_back({name, entry.find("value")->as_number(),
                         entry.find("unit")->as_string()});
  }
  return r;
}

TEST(ResultLine, RoundTripKeepsEveryDigit) {
  mpbench::RunResult r;
  r.correct = true;
  r.attempted = 124;
  r.failed = 0;
  r.metrics = {{"place_s", 9.8561054321987654, "s"},
               {"hpwl", 170529.65012812345, "HPWL"},
               {"tiny", 1e-300, "s"},
               {"third", 1.0 / 3.0, "ratio"},
               {"count", 552.0, "count"}};
  const std::string line = mpbench::format_result(r);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const mpbench::RunResult back = parse_result(line);
  EXPECT_EQ(back.correct, r.correct);
  EXPECT_EQ(back.attempted, r.attempted);
  EXPECT_EQ(back.failed, r.failed);
  ASSERT_EQ(back.metrics.size(), r.metrics.size());
  std::map<std::string, mpbench::Metric> by_name;
  for (const auto& m : back.metrics) by_name[m.name] = m;
  for (const auto& m : r.metrics) {
    ASSERT_EQ(by_name.count(m.name), 1u) << m.name;
    EXPECT_EQ(by_name[m.name].value, m.value) << m.name;  // bit-identical
    EXPECT_EQ(by_name[m.name].unit, m.unit) << m.name;
  }
  EXPECT_EQ(mpbench::format_result(back), line);
}

TEST(ResultLine, RejectsWhatTheContractForbids) {
  mpbench::RunResult r;
  r.metrics = {{"a", 1.0, "s"}, {"a", 2.0, "s"}};
  EXPECT_THROW(mpbench::format_result(r), std::invalid_argument);
  r.metrics = {{"bad name", 1.0, "s"}};
  EXPECT_THROW(mpbench::format_result(r), std::invalid_argument);
  r.metrics = {{"nan", std::numeric_limits<double>::quiet_NaN(), "s"}};
  EXPECT_THROW(mpbench::format_result(r), std::invalid_argument);
}

TEST(CheckLedger, AnOperationFailsOnceAndEveryCheckIsNamed) {
  mpbench::CheckLedger ledger;
  ledger.begin("placement 1");
  ledger.expect(true, "finalized");
  ledger.begin("placement 2");
  ledger.expect(false, "no_macro_overlap");
  ledger.expect(false, "inside_region");
  ledger.begin("job 3");
  ledger.expect(false, "refused: queue full");
  EXPECT_EQ(ledger.attempted(), 3);
  EXPECT_EQ(ledger.failed(), 2);
  ASSERT_EQ(ledger.failures().size(), 3u);
  EXPECT_EQ(ledger.failures()[0], "placement 2: no_macro_overlap");
  EXPECT_EQ(ledger.failures()[2], "job 3: refused: queue full");
}

}  // namespace
