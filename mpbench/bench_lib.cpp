#include "bench_lib.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "svc/json.hpp"
#include "util/rng.hpp"

namespace mpbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("quantile of no samples");
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  return samples[std::min(rank, samples.size()) - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

long long samples_beyond(long long n, double q) {
  return n - static_cast<long long>(std::ceil(q * static_cast<double>(n)));
}

std::optional<double> tail_quantile(long long n) {
  std::optional<double> best;
  for (const double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    if (samples_beyond(n, q) >= 10) best = q;
  }
  return best;
}

std::vector<Arrival> eco_schedule(std::uint64_t seed, int jobs,
                                  double rate_per_s, int repeat_gap) {
  const int block = 2 * repeat_gap;
  if (repeat_gap < 1 || jobs < 1 || jobs % block != 0 || !(rate_per_s > 0.0)) {
    throw std::invalid_argument("eco_schedule: bad shape");
  }
  // The block's gaps: midpoints of its equal-probability strata of the
  // exponential distribution, scaled so they sum to block / rate.
  std::vector<double> strata;
  double sum = 0.0;
  for (int i = 0; i < block; ++i) {
    strata.push_back(-std::log(1.0 - (i + 0.5) / block));
    sum += strata.back();
  }
  for (double& g : strata) g *= block / (sum * rate_per_s);

  mp::util::Rng rng(seed);
  std::vector<Arrival> out;
  out.reserve(static_cast<std::size_t>(jobs));
  double t = 0.0;
  for (int b = 0; b < jobs / block; ++b) {
    std::vector<double> gaps = strata;
    rng.shuffle(gaps);
    for (int i = 0; i < block; ++i) {
      out.push_back({t, b * repeat_gap + i % repeat_gap});
      t += gaps[static_cast<std::size_t>(i)];
    }
  }
  return out;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void CheckLedger::begin(std::string what) {
  current_ = std::move(what);
  current_failed_ = false;
  ++attempted_;
}

void CheckLedger::expect(bool ok, const std::string& name) {
  if (ok) return;
  failures_.push_back(current_ + ": " + name);
  if (!current_failed_) {
    current_failed_ = true;
    ++failed_;
  }
}

std::string format_result(const RunResult& result) {
  using mp::svc::Json;
  Json metrics = Json::object();
  std::set<std::string> seen;
  for (const Metric& m : result.metrics) {
    if (!valid_metric_name(m.name) || !seen.insert(m.name).second) {
      throw std::invalid_argument("bad or repeated metric name: " + m.name);
    }
    if (!std::isfinite(m.value)) {
      throw std::invalid_argument("non-finite metric: " + m.name);
    }
    Json entry = Json::object();
    entry["value"] = Json::number(m.value);
    entry["unit"] = Json::string(m.unit);
    metrics[m.name] = entry;
  }
  Json line = Json::object();
  line["correct"] = Json::boolean(result.correct);
  line["attempted"] = Json::number(result.attempted);
  line["failed"] = Json::number(result.failed);
  line["metrics"] = metrics;
  return line.dump();
}

}  // namespace mpbench
