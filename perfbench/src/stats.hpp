// Sample statistics and result emission for the request benchmark.
//
// Header-only and free of library dependencies so tests/stats_selftest.cpp
// can pin every rule the reported numbers rest on: the median, Python's
// statistics.quantiles quartiles (the spread the benchmark's stability
// check uses), the tail percentile with at least ten samples beyond it,
// failure accounting, and the one-line JSON result.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// Median of a sample (mean of the two middle values for even sizes).
/// Throws on an empty sample.
inline double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

/// Quartiles exactly as Python's statistics.quantiles(data, n=4) computes
/// them (the default "exclusive" method). Needs at least two samples.
inline Quartiles quartiles(std::vector<double> samples) {
  if (samples.size() < 2) {
    throw std::invalid_argument("quartiles need at least two samples");
  }
  std::sort(samples.begin(), samples.end());
  const auto ld = static_cast<long long>(samples.size());
  const long long m = ld + 1;
  double cut[3] = {0.0, 0.0, 0.0};
  for (long long i = 1; i < 4; ++i) {
    const long long j = std::clamp(i * m / 4, 1LL, ld - 1);
    const long long delta = i * m - j * 4;
    cut[i - 1] = (samples[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(4 - delta) +
                  samples[static_cast<std::size_t>(j)] *
                      static_cast<double>(delta)) /
                 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

/// The highest sample that still has `minBeyond` samples above it, i.e.
/// the sorted sample at rank n - minBeyond - 1, and the percentile of the
/// sample at or below it.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  /// Samples strictly beyond `value` by rank.
  std::size_t beyond = 0;
  std::size_t samples = 0;
};

/// With fewer than minBeyond + 1 samples no sample qualifies; the minimum
/// is returned and `beyond` reports the shortfall (beyond < minBeyond).
inline Tail tailPercentile(std::vector<double> samples,
                           std::size_t minBeyond = 10) {
  if (samples.empty()) throw std::invalid_argument("tail of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const std::size_t rank = n > minBeyond ? n - minBeyond - 1 : 0;
  Tail tail;
  tail.value = samples[rank];
  tail.samples = n;
  tail.beyond = n - rank - 1;
  tail.percentile = 100.0 * static_cast<double>(rank + 1) /
                    static_cast<double>(n);
  return tail;
}

/// Attempted/failed request accounting behind failed_frac.
class FailureCount {
 public:
  void record(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  /// failed / attempted; 1 when nothing was attempted, so an empty run
  /// can never read as a clean one.
  [[nodiscard]] double fraction() const {
    return attempted_ == 0 ? 1.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A finite double in the shortest form that reads back to the same bits.
inline std::string formatNumber(double value) {
  if (!std::isfinite(value)) {
    throw std::invalid_argument("non-finite value has no JSON form");
  }
  char buf[32];
  const std::to_chars_result end = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, end.ptr);
}

/// JSON string literal for the names and units this benchmark emits
/// (quotes and backslashes escaped; control characters are rejected).
inline std::string quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (static_cast<unsigned char>(c) < 0x20) {
      throw std::invalid_argument("control character in JSON string");
    }
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

/// The benchmark's last stdout line: exactly the keys correct, attempted,
/// failed and metrics, each metric as {"value": v, "unit": u}. Throws on a
/// non-finite value or a repeated name, which no result may carry.
inline std::string resultJson(bool correct, const FailureCount& count,
                              const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(count.attempted());
  out += ", \"failed\": " + std::to_string(count.failed());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (metrics[j].name == metrics[i].name) {
        throw std::invalid_argument("metric reported twice: " +
                                    metrics[i].name);
      }
    }
    if (i > 0) out += ", ";
    out += quote(metrics[i].name) + ": {\"value\": " +
           formatNumber(metrics[i].value) +
           ", \"unit\": " + quote(metrics[i].unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
