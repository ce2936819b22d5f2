#pragma once
// Helpers of the end-to-end benchmark that carry its statistical and
// scheduling rules, kept apart from main.cpp so test_bench_lib.cpp can pin
// them: order statistics, the tail-percentile rule, the open-loop ECO
// arrival schedule, metric-name validation, the named-check ledger and the
// one-line JSON result format (mpbench/README.md).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace mpbench {

/// Nearest-rank quantile of `samples` (any order): the smallest sample with
/// at least q·n samples at or below it.  q in [0, 1]; throws on no samples.
double quantile(std::vector<double> samples, double q);

/// Median by the usual rule (mean of the two middle samples when n is even).
double median(std::vector<double> samples);

/// Samples strictly beyond the nearest-rank q-quantile of n samples:
/// n - ceil(q·n).
long long samples_beyond(long long n, double q);

/// The highest of the reported percentiles {50, 90, 95, 99, 99.9} that has
/// at least ten samples beyond it, as a fraction (0.9 for p90); nullopt when
/// n < 20, which supports none.
std::optional<double> tail_quantile(long long n);

/// One job of the open-loop ECO stream.
struct Arrival {
  double at_s = 0.0;  ///< scheduled send time, seconds after stream start
  int netlist = 0;    ///< index of the changed netlist the job places
};

/// Open-loop schedule of `jobs` ECO jobs at `rate_per_s`, in blocks of
/// 2·repeat_gap jobs.  Within a block, netlists k..k+gap-1 go out in order
/// and then again in the same order, and the gaps between arrivals are the
/// block's equal-probability strata of the exponential distribution, scaled
/// to the rate, in an order util::Rng(seed) shuffles: Poisson arrivals
/// sampled in strata, so every block spans exactly block/rate seconds.  A
/// pure function of its arguments; `jobs` must be a positive multiple of
/// 2·repeat_gap.
std::vector<Arrival> eco_schedule(std::uint64_t seed, int jobs,
                                  double rate_per_s, int repeat_gap);

/// A metric name the benchmark contract accepts: 1-64 characters from
/// [A-Za-z0-9_.-], starting with a letter or digit.
bool valid_metric_name(const std::string& name);

/// Counts operations and the named checks they failed.  An operation fails
/// once however many of its checks fail; each failed check is kept by name
/// for the report.
class CheckLedger {
 public:
  /// Starts an operation labelled `what` (e.g. "placement 2").
  void begin(std::string what);
  /// Records check `name` of the current operation; false marks it failed.
  void expect(bool ok, const std::string& name);

  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }
  /// "<operation>: <check>" for every failed check, in order.
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::string current_;
  bool current_failed_ = false;
  long long attempted_ = 0;
  long long failed_ = 0;
  std::vector<std::string> failures_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's result line.
struct RunResult {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;
};

/// One-line JSON: {"attempted":..,"correct":..,"failed":..,"metrics":
/// {"<name>":{"unit":"..","value":..}}}.  Values keep all their digits.
/// Throws std::invalid_argument on an invalid or repeated metric name or a
/// non-finite value.
std::string format_result(const RunResult& result);

}  // namespace mpbench
