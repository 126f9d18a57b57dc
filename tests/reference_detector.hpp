// Test-only oracle: the sorted-block quantized ML decision.
//
// Sorts the metric blocks by their cell tuple (h_{b,0}, ..., h_{b,nt-1},
// y_b) with std::sort, then sums each hypothesis' per-block residuals in
// that order, recomputing every quantizer reconstruction value per call.
// Slow but plainly the definition; mimo::MlDetector::detectQuantized's
// precomputed residual table must reproduce its decision on every cell
// tuple.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "comm/channel.hpp"
#include "mimo/detector.hpp"

namespace mimostat::test {

inline int referenceDetectQuantized(const mimo::MlDetector& detector,
                                    const std::vector<int>& yCells,
                                    const std::vector<int>& hCells) {
  const auto nt = static_cast<std::size_t>(detector.params().nt);
  const std::size_t blocks = yCells.size();
  std::vector<std::size_t> order(blocks);
  for (std::size_t b = 0; b < blocks; ++b) order[b] = b;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    for (std::size_t k = 0; k < nt; ++k) {
      if (hCells[a * nt + k] != hCells[b * nt + k]) {
        return hCells[a * nt + k] < hCells[b * nt + k];
      }
    }
    return yCells[a] < yCells[b];
  });

  int best = 0;
  double bestMetric = std::numeric_limits<double>::infinity();
  for (int s = 0; s < detector.params().numHypotheses(); ++s) {
    double metric = 0.0;
    for (const std::size_t b : order) {
      double expected = 0.0;
      for (std::size_t k = 0; k < nt; ++k) {
        expected += detector.hQuantizer().value(hCells[b * nt + k]) *
                    comm::bpsk((s >> k) & 1);
      }
      metric += std::fabs(detector.yQuantizer().value(yCells[b]) - expected);
    }
    if (metric < bestMetric) {
      bestMetric = metric;
      best = s;
    }
  }
  return best;
}

}  // namespace mimostat::test
