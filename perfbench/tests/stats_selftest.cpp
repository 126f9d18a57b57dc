// Self-test of the benchmark's statistics and result emission
// (src/stats.hpp). perfbench/run.py runs it after every build and refuses
// to measure when it fails, so a broken percentile or JSON rule can never
// produce a result. Exits 1 and names every failed check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool condition, const std::string& what) {
  if (!condition) {
    std::printf("FAIL %s\n", what.c_str());
    ++failures;
  }
}

void expectNear(double got, double want, const std::string& what) {
  expect(std::fabs(got - want) <= 1e-12,
         what + ": got " + std::to_string(got) + ", want " +
             std::to_string(want));
}

template <typename F>
void expectThrows(F&& f, const std::string& what) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return;
  }
  expect(false, what + ": no exception");
}

void testMedian() {
  expectNear(perfbench::median({3.0, 1.0, 2.0}), 2.0, "odd median");
  expectNear(perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5, "even median");
  expectNear(perfbench::median({7.0}), 7.0, "single median");
  expectThrows([] { (void)perfbench::median({}); }, "empty median");
}

void testQuartiles() {
  // Expected values from Python: statistics.quantiles(data, n=4).
  const struct {
    std::vector<double> data;
    double q1, q2, q3;
  } cases[] = {
      {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
      {{3.5, 1.25}, 0.6875, 2.375, 4.0625},
      {{5, 1, 4, 2, 3}, 1.5, 3.0, 4.5},
      {{0.1, 0.7, 0.2, 0.9, 0.4, 0.3, 0.8}, 0.2, 0.4, 0.8},
  };
  for (const auto& c : cases) {
    const perfbench::Quartiles q = perfbench::quartiles(c.data);
    const std::string label = "quartiles n=" + std::to_string(c.data.size());
    expectNear(q.q1, c.q1, label + " q1");
    expectNear(q.q2, c.q2, label + " q2");
    expectNear(q.q3, c.q3, label + " q3");
  }
  expectThrows([] { (void)perfbench::quartiles({1.0}); }, "quartiles n=1");
}

void testTail() {
  // 100 samples 1..100 (shuffled): the sample with exactly ten above it
  // is 90, the 90th percentile.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  perfbench::Tail t = perfbench::tailPercentile(hundred);
  expectNear(t.value, 90.0, "tail of 100 value");
  expectNear(t.percentile, 90.0, "tail of 100 percentile");
  expect(t.beyond == 10 && t.samples == 100, "tail of 100 counts");

  // 25 samples: rank 14 (value 15) has ten beyond it, the 60th percentile.
  std::vector<double> twentyFive;
  for (int i = 1; i <= 25; ++i) twentyFive.push_back(i);
  t = perfbench::tailPercentile(twentyFive);
  expectNear(t.value, 15.0, "tail of 25 value");
  expectNear(t.percentile, 60.0, "tail of 25 percentile");
  expect(t.beyond == 10, "tail of 25 beyond");

  // Exactly eleven samples: only the minimum has ten beyond it.
  std::vector<double> eleven;
  for (int i = 0; i < 11; ++i) eleven.push_back(10.0 + i);
  t = perfbench::tailPercentile(eleven);
  expectNear(t.value, 10.0, "tail of 11 value");
  expect(t.beyond == 10, "tail of 11 beyond");

  // Too few samples: the shortfall shows in `beyond`.
  t = perfbench::tailPercentile({2.0, 1.0, 3.0});
  expectNear(t.value, 1.0, "tail of 3 value");
  expect(t.beyond == 2 && t.beyond < 10, "tail of 3 reports shortfall");

  // Ties: ranks, not distinct values, count as samples beyond.
  t = perfbench::tailPercentile(std::vector<double>(20, 5.0));
  expectNear(t.value, 5.0, "tail of ties value");
  expect(t.beyond == 10, "tail of ties beyond");
  expectThrows([] { (void)perfbench::tailPercentile({}); }, "empty tail");
}

void testFailureCount() {
  perfbench::FailureCount count;
  expectNear(count.fraction(), 1.0, "nothing attempted reads as failed");
  for (int i = 0; i < 8; ++i) count.record(i % 4 != 3);
  expect(count.attempted() == 8, "attempted counts every request");
  expect(count.failed() == 2, "failed counts failing requests");
  expectNear(count.fraction(), 0.25, "failed fraction");
}

void testJson() {
  perfbench::FailureCount count;
  count.record(true);
  count.record(true);
  const std::string json = perfbench::resultJson(
      true, count,
      {{"request_p50_s", 0.1234567890123, "s"}, {"peak_rss_mb", 512, "MB"}});
  expect(json ==
             "{\"correct\": true, \"attempted\": 2, \"failed\": 0, "
             "\"metrics\": {\"request_p50_s\": {\"value\": 0.1234567890123, "
             "\"unit\": \"s\"}, \"peak_rss_mb\": {\"value\": 512, \"unit\": "
             "\"MB\"}}}",
         "result JSON layout: " + json);
  expect(perfbench::formatNumber(0.1) == "0.1", "shortest round-trip 0.1");
  expect(std::strtod(perfbench::formatNumber(1.0 / 3.0).c_str(), nullptr) ==
             1.0 / 3.0,
         "all digits kept");
  expect(perfbench::formatNumber(1.5e-7) == "1.5e-07", "exponent form");
  expect(perfbench::formatNumber(50.0) == "50", "integral values");
  expect(perfbench::quote("a\"b\\") == "\"a\\\"b\\\\\"", "string escapes");
  expectThrows(
      [] { (void)perfbench::formatNumber(std::nan("")); }, "NaN refused");
  expectThrows([] { (void)perfbench::formatNumber(
                         std::numeric_limits<double>::infinity()); },
               "infinity refused");
  expectThrows(
      [&] {
        (void)perfbench::resultJson(true, count,
                                    {{"x", 1, "s"}, {"x", 2, "s"}});
      },
      "duplicate metric refused");
}

}  // namespace

int main() {
  testMedian();
  testQuartiles();
  testTail();
  testFailureCount();
  testJson();
  if (failures != 0) {
    std::printf("perfbench stats self-test: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench stats self-test: ok\n");
  return 0;
}
