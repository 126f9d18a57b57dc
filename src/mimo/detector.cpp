#include "mimo/detector.hpp"

#include <array>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "comm/channel.hpp"

namespace mimostat::mimo {

MimoParams mimo1x2Params() { return MimoParams{}; }

MimoParams mimo2x2Params() {
  MimoParams p;
  p.nr = 2;
  p.nt = 2;
  p.snrDb = 10.0;
  p.hLevels = 3;
  p.hRange = 1.5;
  p.yLevels = 6;
  p.yRange = 3.0;
  return p;
}

MimoParams mimo1x4Params() {
  MimoParams p;
  p.nr = 4;
  // The paper quotes 12 dB but does not pin down its noise normalization;
  // under our convention (DESIGN.md §5: per-dimension sigma^2 = N0/2 with
  // unit per-antenna signal power) 22 dB reproduces the paper's operating
  // point: a BER ~1e-5, low enough that a 1e5-step simulation typically
  // observes zero errors while the model checker computes it exactly.
  p.snrDb = 22.0;
  p.hLevels = 2;
  p.hRange = 1.2;
  p.yLevels = 2;
  p.yRange = 1.2;
  return p;
}

namespace {

/// Per-block residual |y_b - sum_k h_{b,k} bpsk(s_k)| for hypothesis s.
double blockResidual(double y, const double* h, int nt, int hypothesis) {
  double expected = 0.0;
  for (int k = 0; k < nt; ++k) {
    expected += h[k] * comm::bpsk((hypothesis >> k) & 1);
  }
  return std::fabs(y - expected);
}

}  // namespace

MlDetector::MlDetector(const MimoParams& params)
    : params_(params),
      hQuant_(params.hLevels, params.hRange),
      yQuant_(params.yLevels, params.yRange) {
  if (params_.nr < 1 || params_.nr > kMaxBlocks || params_.nt < 1 ||
      params_.nt > kMaxBlocks) {
    throw std::invalid_argument("MlDetector: nr and nt must lie in [1, " +
                                std::to_string(kMaxBlocks) + "]");
  }
  const int nt = params_.nt;
  const int hypotheses = params_.numHypotheses();
  int hTuples = 1;
  for (int k = 0; k < nt; ++k) hTuples *= params_.hLevels;
  residual_.resize(static_cast<std::size_t>(hTuples) *
                   static_cast<std::size_t>(params_.yLevels) *
                   static_cast<std::size_t>(hypotheses));
  std::array<double, kMaxBlocks> hv{};
  for (int hTuple = 0; hTuple < hTuples; ++hTuple) {
    // Digit k of hTuple (h_{b,0} most significant) is h_{b,k}'s cell.
    for (int k = nt - 1, rest = hTuple; k >= 0; --k) {
      hv[static_cast<std::size_t>(k)] = hQuant_.value(rest % params_.hLevels);
      rest /= params_.hLevels;
    }
    for (int yc = 0; yc < params_.yLevels; ++yc) {
      const std::size_t code =
          static_cast<std::size_t>(hTuple) * params_.yLevels + yc;
      for (int s = 0; s < hypotheses; ++s) {
        residual_[code * static_cast<std::size_t>(hypotheses) +
                  static_cast<std::size_t>(s)] =
            blockResidual(yQuant_.value(yc), hv.data(), nt, s);
      }
    }
  }
}

int MlDetector::detectAnalog(const std::vector<double>& y,
                             const std::vector<double>& h) const {
  assert(y.size() == static_cast<std::size_t>(params_.numBlocks()));
  assert(h.size() == static_cast<std::size_t>(params_.numChannelParts()));
  const int nt = params_.nt;
  int best = 0;
  double bestMetric = std::numeric_limits<double>::infinity();
  for (int s = 0; s < params_.numHypotheses(); ++s) {
    double metric = 0.0;
    for (std::size_t b = 0; b < y.size(); ++b) {
      metric += blockResidual(y[b], &h[b * static_cast<std::size_t>(nt)], nt, s);
    }
    if (metric < bestMetric) {  // ties keep the smaller hypothesis index
      bestMetric = metric;
      best = s;
    }
  }
  return best;
}

int MlDetector::detectQuantized(std::span<const int> yCells,
                                std::span<const int> hCells) const {
  // Cells index the residual table: check them in every build.
  if (yCells.size() != static_cast<std::size_t>(params_.numBlocks()) ||
      hCells.size() != static_cast<std::size_t>(params_.numChannelParts())) {
    throw std::invalid_argument("MlDetector::detectQuantized: " +
                                std::to_string(yCells.size()) + " y and " +
                                std::to_string(hCells.size()) +
                                " h cells for this configuration");
  }
  const auto cellOutOfRange = [](int cell, int levels) {
    return static_cast<unsigned>(cell) >= static_cast<unsigned>(levels);
  };
  const auto nt = static_cast<std::size_t>(params_.nt);
  const std::size_t blocks = yCells.size();

  // Quantized metrics frequently tie in exact arithmetic; floating-point
  // addition is not associative, so a naive block-order sum would break the
  // block-permutation symmetry the DTMC reduction relies on. Accumulate in
  // a canonical block order (ascending cell-tuple codes) so the decision is
  // a function of the block multiset only.
  std::array<std::uint32_t, 2 * kMaxBlocks> codes{};
  assert(blocks <= codes.size());
  for (std::size_t b = 0; b < blocks; ++b) {
    std::uint32_t code = 0;
    for (std::size_t k = 0; k < nt; ++k) {
      const int cell = hCells[b * nt + k];
      if (cellOutOfRange(cell, params_.hLevels)) {
        throw std::out_of_range("MlDetector::detectQuantized: h cell " +
                                std::to_string(cell));
      }
      code = code * static_cast<std::uint32_t>(params_.hLevels) +
             static_cast<std::uint32_t>(cell);
    }
    if (cellOutOfRange(yCells[b], params_.yLevels)) {
      throw std::out_of_range("MlDetector::detectQuantized: y cell " +
                              std::to_string(yCells[b]));
    }
    code = code * static_cast<std::uint32_t>(params_.yLevels) +
           static_cast<std::uint32_t>(yCells[b]);
    // Insertion sort: at most 2 * kMaxBlocks codes.
    std::size_t i = b;
    for (; i > 0 && codes[i - 1] > code; --i) codes[i] = codes[i - 1];
    codes[i] = code;
  }

  const int hypotheses = params_.numHypotheses();
  int best = 0;
  double bestMetric = std::numeric_limits<double>::infinity();
  for (int s = 0; s < hypotheses; ++s) {
    double metric = 0.0;
    for (std::size_t i = 0; i < blocks; ++i) {
      metric += residual_[static_cast<std::size_t>(codes[i]) *
                              static_cast<std::size_t>(hypotheses) +
                          static_cast<std::size_t>(s)];
    }
    if (metric < bestMetric) {
      bestMetric = metric;
      best = s;
    }
  }
  return best;
}

}  // namespace mimostat::mimo
