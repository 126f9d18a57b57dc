#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "comm/channel.hpp"
#include "mimo/detector.hpp"
#include "mimo/sim.hpp"
#include "reference_detector.hpp"
#include "util/rng.hpp"

namespace mimostat {
namespace {

TEST(Detector, ParamsHelpers) {
  const auto p2 = mimo::mimo1x2Params();
  EXPECT_EQ(p2.nr, 2);
  EXPECT_EQ(p2.numBlocks(), 4);
  const auto p4 = mimo::mimo1x4Params();
  EXPECT_EQ(p4.nr, 4);
  EXPECT_EQ(p4.numBlocks(), 8);
  EXPECT_GT(p4.snrDb, p2.snrDb);
}

TEST(Detector, AnalogMatchesBruteForce) {
  const mimo::MlDetector detector(mimo::mimo1x2Params());
  util::Xoshiro256 rng(5);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<double> y(4);
    std::vector<double> h(4);
    for (int b = 0; b < 4; ++b) {
      y[b] = 2.0 * rng.nextDouble() - 1.0;
      h[b] = 2.0 * rng.nextDouble() - 1.0;
    }
    double m0 = 0.0;
    double m1 = 0.0;
    for (int b = 0; b < 4; ++b) {
      m0 += std::fabs(y[b] + h[b]);
      m1 += std::fabs(y[b] - h[b]);
    }
    EXPECT_EQ(detector.detectAnalog(y, h), m0 <= m1 ? 0 : 1);
  }
}

TEST(Detector, PerfectObservationDecodesCorrectly) {
  const mimo::MlDetector detector(mimo::mimo1x2Params());
  util::Xoshiro256 rng(9);
  for (int trial = 0; trial < 500; ++trial) {
    const int x = rng.nextBit() ? 1 : 0;
    std::vector<double> h(4);
    std::vector<double> y(4);
    bool informative = false;
    for (int b = 0; b < 4; ++b) {
      h[b] = rng.nextGaussian();
      if (std::fabs(h[b]) > 0.3) informative = true;
      y[b] = h[b] * comm::bpsk(x);  // noiseless
    }
    if (!informative) continue;
    EXPECT_EQ(detector.detectAnalog(y, h), x);
  }
}

TEST(Detector, TieBreaksToZero) {
  const mimo::MlDetector detector(mimo::mimo1x2Params());
  const std::vector<double> y(4, 0.0);
  const std::vector<double> h(4, 0.0);
  EXPECT_EQ(detector.detectAnalog(y, h), 0);
  const std::vector<int> yCells(4, 0);
  const std::vector<int> hCells = {1, 1, 1, 1};  // middle cell, value 0
  EXPECT_EQ(detector.detectQuantized(yCells, hCells), 0);
}

TEST(Detector, QuantizedAgreesWithAnalogOnReconstructionValues) {
  const mimo::MlDetector detector(mimo::mimo1x2Params());
  util::Xoshiro256 rng(13);
  for (int trial = 0; trial < 1000; ++trial) {
    std::vector<int> yCells(4);
    std::vector<int> hCells(4);
    std::vector<double> y(4);
    std::vector<double> h(4);
    for (int b = 0; b < 4; ++b) {
      yCells[b] = static_cast<int>(rng.nextBounded(6));
      hCells[b] = static_cast<int>(rng.nextBounded(3));
      y[b] = detector.yQuantizer().value(yCells[b]);
      h[b] = detector.hQuantizer().value(hCells[b]);
    }
    EXPECT_EQ(detector.detectQuantized(yCells, hCells),
              detector.detectAnalog(y, h));
  }
}

/// Compares detectQuantized with the sorted-block oracle on every cell
/// tuple of `params` (an odometer over h cells, then y cells) and returns
/// the number of tuples checked.
std::uint64_t expectDecisionsMatchOracle(const mimo::MimoParams& params) {
  const mimo::MlDetector detector(params);
  std::vector<int> hCells(static_cast<std::size_t>(params.numChannelParts()));
  std::vector<int> yCells(static_cast<std::size_t>(params.numBlocks()));
  const auto advance = [](std::vector<int>& cells, int levels) {
    for (int& c : cells) {
      if (++c < levels) return true;
      c = 0;
    }
    return false;
  };
  std::uint64_t tuples = 0;
  std::uint64_t mismatches = 0;
  do {
    do {
      ++tuples;
      if (detector.detectQuantized(yCells, hCells) !=
          test::referenceDetectQuantized(detector, yCells, hCells)) {
        ++mismatches;
      }
    } while (advance(yCells, params.yLevels));
  } while (advance(hCells, params.hLevels));
  EXPECT_EQ(mismatches, 0u) << "of " << tuples << " cell tuples";
  return tuples;
}

TEST(DetectorTable, RejectsCellsOutsideTheTable) {
  const mimo::MlDetector detector(mimo::mimo1x2Params());
  const std::vector<int> yCells = {0, 5, 0, 0};
  const std::vector<int> hCells = {0, 1, 2, 1};
  EXPECT_NO_THROW((void)detector.detectQuantized(yCells, hCells));
  const auto detect = [&](std::vector<int> y, std::vector<int> h) {
    return detector.detectQuantized(y, h);
  };
  EXPECT_THROW((void)detect({0, 0, 6, 0}, hCells), std::out_of_range);
  EXPECT_THROW((void)detect({0, -1, 0, 0}, hCells), std::out_of_range);
  EXPECT_THROW((void)detect(yCells, {0, 3, 0, 0}), std::out_of_range);
  EXPECT_THROW((void)detect({0, 0, 0}, hCells), std::invalid_argument);
  mimo::MimoParams tooMany = mimo::mimo1x2Params();
  tooMany.nr = mimo::MlDetector::kMaxBlocks + 1;
  EXPECT_THROW((void)mimo::MlDetector(tooMany), std::invalid_argument);
}

TEST(DetectorTable, DecisionsMatchSortedBlockOracle1x2) {
  EXPECT_EQ(expectDecisionsMatchOracle(mimo::mimo1x2Params()), 104'976u);
}

TEST(DetectorTable, DecisionsMatchSortedBlockOracle1x4) {
  EXPECT_EQ(expectDecisionsMatchOracle(mimo::mimo1x4Params()), 65'536u);
}

TEST(DetectorTable, DecisionsMatchSortedBlockOracle2x2) {
  EXPECT_EQ(expectDecisionsMatchOracle(mimo::mimo2x2Params()), 8'503'056u);
}

TEST(DetectorSim, AnalogBeatsQuantized) {
  // Quantization costs performance: the analog detector's BER must be no
  // worse than the coarsely quantized one.
  const auto params = mimo::mimo1x2Params();
  const auto analog = mimo::simulateAnalog(params, 200000, 3);
  const auto quantized = mimo::simulateQuantized(params, 200000, 3);
  EXPECT_LE(analog.bitErrors.estimate(),
            quantized.bitErrors.estimate() + 0.01);
}

TEST(DetectorSim, MoreAntennasFewerErrors) {
  // Receive diversity: the 1x4 detector at its (higher) SNR has a BER
  // orders of magnitude below the 1x2 detector — Table V's shape.
  const auto ber1x2 =
      mimo::simulateQuantized(mimo::mimo1x2Params(), 200000, 17);
  const auto ber1x4 =
      mimo::simulateQuantized(mimo::mimo1x4Params(), 200000, 17);
  EXPECT_LT(ber1x4.bitErrors.estimate(),
            0.5 * ber1x2.bitErrors.estimate() + 1e-6);
}

TEST(Detector2x2, ParamsAndShapes) {
  const auto p = mimo::mimo2x2Params();
  EXPECT_EQ(p.nt, 2);
  EXPECT_EQ(p.numBlocks(), 4);        // 2*Nr real dimensions
  EXPECT_EQ(p.numChannelParts(), 8);  // nt coefficients per block
  EXPECT_EQ(p.numHypotheses(), 4);    // BPSK vectors (s1, s2)
}

TEST(Detector2x2, AnalogMatchesBruteForce) {
  // Paper Eq. 14/15: argmin over the four (s1, s2) hypotheses of the sum
  // of per-dimension L1 residuals.
  const mimo::MlDetector detector(mimo::mimo2x2Params());
  util::Xoshiro256 rng(19);
  for (int trial = 0; trial < 1000; ++trial) {
    std::vector<double> y(4);
    std::vector<double> h(8);
    for (auto& v : y) v = 2.0 * rng.nextDouble() - 1.0;
    for (auto& v : h) v = 2.0 * rng.nextDouble() - 1.0;
    int best = 0;
    double bestMetric = 1e300;
    for (int s = 0; s < 4; ++s) {
      double metric = 0.0;
      for (int b = 0; b < 4; ++b) {
        metric += std::fabs(y[b] - h[2 * b] * comm::bpsk(s & 1) -
                            h[2 * b + 1] * comm::bpsk((s >> 1) & 1));
      }
      if (metric < bestMetric) {
        bestMetric = metric;
        best = s;
      }
    }
    EXPECT_EQ(detector.detectAnalog(y, h), best) << trial;
  }
}

TEST(Detector2x2, NoiselessDecodesBothStreams) {
  const mimo::MlDetector detector(mimo::mimo2x2Params());
  util::Xoshiro256 rng(23);
  int checked = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const int x = static_cast<int>(rng.nextBounded(4));
    std::vector<double> h(8);
    for (auto& v : h) v = rng.nextGaussian();
    std::vector<double> y(4);
    bool wellConditioned = true;
    for (int b = 0; b < 4; ++b) {
      y[b] = h[2 * b] * comm::bpsk(x & 1) + h[2 * b + 1] * comm::bpsk(x >> 1);
    }
    // Skip near-singular channels where hypotheses are almost ambiguous.
    for (int s = 0; s < 4; ++s) {
      if (s == x) continue;
      double metric = 0.0;
      for (int b = 0; b < 4; ++b) {
        metric += std::fabs(y[b] - h[2 * b] * comm::bpsk(s & 1) -
                            h[2 * b + 1] * comm::bpsk((s >> 1) & 1));
      }
      if (metric < 0.3) wellConditioned = false;
    }
    if (!wellConditioned) continue;
    ++checked;
    EXPECT_EQ(detector.detectAnalog(y, h), x) << trial;
  }
  EXPECT_GT(checked, 100);
}

TEST(Detector2x2, QuantizedSimBerIsReasonable) {
  // The 2x2 quantized datapath at 10 dB: BER well below coin flip, above
  // the 1-stream 1x2 detector at comparable SNR (spatial interference).
  const auto ber2x2 = mimo::simulateQuantized(mimo::mimo2x2Params(), 200000, 31);
  EXPECT_LT(ber2x2.bitErrors.estimate(), 0.3);
  EXPECT_GT(ber2x2.bitErrors.estimate(), 1e-4);
  EXPECT_EQ(ber2x2.bitErrors.trials(), 400000u);  // two bits per trial
}

TEST(Detector2x2, QuantizedPermutationInvariant) {
  // Swapping two metric blocks (y_b together with its nt coefficients)
  // must never change the quantized decision.
  const mimo::MlDetector detector(mimo::mimo2x2Params());
  util::Xoshiro256 rng(37);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<int> yCells(4);
    std::vector<int> hCells(8);
    for (auto& c : yCells) c = static_cast<int>(rng.nextBounded(6));
    for (auto& c : hCells) c = static_cast<int>(rng.nextBounded(3));
    const int base = detector.detectQuantized(yCells, hCells);
    const auto b1 = rng.nextBounded(4);
    const auto b2 = rng.nextBounded(4);
    std::swap(yCells[b1], yCells[b2]);
    std::swap(hCells[2 * b1], hCells[2 * b2]);
    std::swap(hCells[2 * b1 + 1], hCells[2 * b2 + 1]);
    EXPECT_EQ(detector.detectQuantized(yCells, hCells), base) << trial;
  }
}

TEST(DetectorSim, DeterministicPerSeed) {
  const auto a = mimo::simulateQuantized(mimo::mimo1x2Params(), 20000, 21);
  const auto b = mimo::simulateQuantized(mimo::mimo1x2Params(), 20000, 21);
  EXPECT_EQ(a.bitErrors.successes(), b.bitErrors.successes());
}

}  // namespace
}  // namespace mimostat
