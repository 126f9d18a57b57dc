// The explicit-state exploration — the one BFS behind buildExplicit,
// countReachable and modelSignature — against the plain vector-state builder
// (reference_builder.hpp), plus its validation errors and the packed-key
// layout it relies on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "dtmc/builder.hpp"
#include "dtmc/signature.hpp"
#include "engine/engine.hpp"
#include "engine/thread_pool.hpp"
#include "lump/bisim.hpp"
#include "mimo/detector.hpp"
#include "mimo/model.hpp"
#include "pml/model.hpp"
#include "reference_builder.hpp"
#include "test_models.hpp"
#include "util/rng.hpp"
#include "viterbi/model_full.hpp"
#include "viterbi/model_reduced.hpp"

namespace mimostat {
namespace {

/// Engine with `threads` workers and the default cache settings.
engine::EngineOptions engineOptions(std::size_t threads) {
  engine::EngineOptions options;
  options.threads = threads;
  return options;
}

template <typename T>
void expectSameBytes(const std::vector<T>& expected, const std::vector<T>& got,
                     const char* what) {
  ASSERT_EQ(expected.size(), got.size()) << what;
  EXPECT_EQ(std::memcmp(expected.data(), got.data(), got.size() * sizeof(T)),
            0)
      << what << " differs";
}

/// Asserts that every state of `d` decodes — through state(), stateInto()
/// and varValue() alike — to `expected`'s entry of the same index.
void expectDecodes(const dtmc::ExplicitDtmc& d,
                   const std::vector<dtmc::State>& expected) {
  ASSERT_EQ(d.numStates(), expected.size());
  ASSERT_EQ(d.keys().size(), d.numStates() * d.varLayout().words());
  dtmc::State scratch;
  for (std::uint32_t s = 0; s < d.numStates(); ++s) {
    ASSERT_EQ(d.state(s), expected[s]) << "state " << s;
    d.stateInto(s, scratch);
    ASSERT_EQ(scratch, expected[s]) << "state " << s;
    for (std::size_t v = 0; v < d.varLayout().numVars(); ++v) {
      ASSERT_EQ(d.varValue(s, v), expected[s][v])
          << "state " << s << ", variable " << v;
    }
  }
}

/// Asserts that two builds agree byte for byte: both CSR orientations the
/// matrix keeps, initial distribution, packed keys, signature and RI.
void expectSameBuild(const dtmc::BuildResult& expected,
                     const dtmc::BuildResult& got, const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.signature, expected.signature);
  EXPECT_EQ(got.reachabilityIterations, expected.reachabilityIterations);
  expectSameBytes(expected.dtmc.keys(), got.dtmc.keys(), "keys");
  expectSameBytes(expected.dtmc.initialDistribution(),
                  got.dtmc.initialDistribution(), "initial");
  const la::CsrMatrix& a = expected.dtmc.matrix();
  const la::CsrMatrix& b = got.dtmc.matrix();
  ASSERT_EQ(a.hasOriginal(), b.hasOriginal());
  ASSERT_EQ(a.hasTranspose(), b.hasTranspose());
  expectSameBytes(a.rowPtr(), b.rowPtr(), "rowPtr");
  if (a.hasOriginal()) {
    expectSameBytes(a.col(), b.col(), "col");
    expectSameBytes(a.val(), b.val(), "val");
  }
  if (a.hasTranspose()) {
    expectSameBytes(a.transposed().rowPtr(), b.transposed().rowPtr(),
                    "transposed rowPtr");
    expectSameBytes(a.transposed().col(), b.transposed().col(),
                    "transposed col");
    expectSameBytes(a.transposed().val(), b.transposed().val(),
                    "transposed val");
  }
}

/// Builds `model` with a 1-, 2- and 8-thread pool as the build's runner
/// and asserts each build equals `serial` byte for byte.
void expectPooledBuildsMatch(const dtmc::Model& model,
                             const dtmc::BuildOptions& options,
                             const dtmc::BuildResult& serial) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    engine::ThreadPool pool(threads);
    la::Exec exec;
    exec.runner = engine::laRunnerFor(pool);
    const std::string what = "pool of " + std::to_string(threads);
    expectSameBuild(serial, dtmc::buildExplicit(model, options, exec),
                    what.c_str());
  }
}

/// Builds `model` both ways and asserts byte-identical CSR (both
/// orientations the options keep), initial distribution, packed keys and
/// RI, and a decoded state table equal to the oracle's index by index;
/// then that pooled builds reproduce the serial build.
void expectMatchesOracle(const dtmc::Model& model,
                         const dtmc::BuildOptions& options = {}) {
  const test::ReferenceBuild oracle = test::referenceBuild(model, options);
  const dtmc::BuildResult built = dtmc::buildExplicit(model, options);
  expectPooledBuildsMatch(model, options, built);
  EXPECT_EQ(built.reachabilityIterations, oracle.reachabilityIterations);
  expectDecodes(built.dtmc, oracle.states);
  expectSameBytes(oracle.raw.keys, built.dtmc.keys(), "keys");
  expectSameBytes(oracle.raw.initial, built.dtmc.initialDistribution(),
                  "initial");

  const la::CsrMatrix& matrix = built.dtmc.matrix();
  const dtmc::ExplicitDtmc reference =
      dtmc::ExplicitDtmc::fromRaw(oracle.raw, options.orientation);
  EXPECT_EQ(matrix.hasOriginal(), reference.matrix().hasOriginal());
  if (matrix.hasOriginal()) {
    expectSameBytes(oracle.raw.rowPtr, built.dtmc.rowPtr(), "rowPtr");
    expectSameBytes(oracle.raw.col, built.dtmc.col(), "col");
    expectSameBytes(oracle.raw.val, built.dtmc.val(), "val");
  }
  if (matrix.hasTranspose()) {
    const la::CsrMatrix& t = matrix.transposed();
    const la::CsrMatrix& expected = reference.matrix().transposed();
    expectSameBytes(expected.rowPtr(), t.rowPtr(), "transposed rowPtr");
    expectSameBytes(expected.col(), t.col(), "transposed col");
    expectSameBytes(expected.val(), t.val(), "transposed val");
  }
}

viterbi::ViterbiParams smallViterbiParams(int traceLength) {
  viterbi::ViterbiParams p;
  p.tracebackLength = traceLength;
  p.quantLevels = 4;
  p.pmCap = 4;
  return p;
}

/// Three 31-bit variables: 93 bits, two key words.
class WideModel : public dtmc::Model {
 public:
  [[nodiscard]] std::vector<dtmc::VarSpec> variables() const override {
    return {{"a", 0, 0x7FFFFFFF}, {"b", -5, 0x7FFFFFF0}, {"c", 0, 0x7FFFFFFF}};
  }
  [[nodiscard]] std::vector<dtmc::State> initialStates() const override {
    return {{0, -5, 0x7FFFFFFF}};
  }
  void transitions(const dtmc::State& s,
                   std::vector<dtmc::Transition>& out) const override {
    // Successors differ in the field that straddles the word boundary and
    // in both neighbours, with a duplicate target.
    const std::int32_t a = s[0];
    if (a >= 40) return;  // dead end
    const auto b = static_cast<std::int32_t>(-5 + (s[1] + 5LL + 3 * a) % 100);
    const auto c =
        static_cast<std::int32_t>((s[2] + 1000LL * a) % 0x80000000LL);
    out.push_back({0.25, {a + 1, b, c}});
    out.push_back({0.25, {a + 2, 0x7FFFFFF0 - a, 7}});
    out.push_back({0.5, {a + 1, b, c}});
  }
};

/// State 0 steps to 1 with probability 1.2 and to 2 with `bad`; 1 and 2
/// are absorbing.
class BadProbabilityModel : public dtmc::Model {
 public:
  explicit BadProbabilityModel(double bad) : bad_(bad) {}
  [[nodiscard]] std::vector<dtmc::VarSpec> variables() const override {
    return {{"s", 0, 2}};
  }
  [[nodiscard]] std::vector<dtmc::State> initialStates() const override {
    return {{0}};
  }
  void transitions(const dtmc::State& s,
                   std::vector<dtmc::Transition>& out) const override {
    if (s[0] != 0) return;
    out.push_back({1.2, {1}});
    out.push_back({bad_, {2}});
  }

 private:
  double bad_;
};

/// Variable x in [0..3] whose state 3 steps to x = 4 = hi + 1.
class OverflowModel : public dtmc::Model {
 public:
  [[nodiscard]] std::vector<dtmc::VarSpec> variables() const override {
    return {{"x", 0, 3}, {"flag", 0, 1}};
  }
  [[nodiscard]] std::vector<dtmc::State> initialStates() const override {
    return {{0, 0}};
  }
  void transitions(const dtmc::State& s,
                   std::vector<dtmc::Transition>& out) const override {
    out.push_back({1.0, {s[0] + 1, 1}});
  }
};

/// Level 1 holds 500 states (1, i); each steps to (2, i) with
/// probability 1 except state (1, `badAt`), whose row carries probability
/// `badProb` or, with `outOfRange`, a target outside `level`'s [0..2]. The
/// level is wide enough for the wave-parallel path, and badAt lies in a
/// later wave than the first.
class WideLevelModel : public dtmc::Model {
 public:
  WideLevelModel(int badAt, double badProb, bool outOfRange)
      : badAt_(badAt), badProb_(badProb), outOfRange_(outOfRange) {}
  [[nodiscard]] std::vector<dtmc::VarSpec> variables() const override {
    return {{"level", 0, 2}, {"i", 0, 499}};
  }
  [[nodiscard]] std::vector<dtmc::State> initialStates() const override {
    return {{0, 0}};
  }
  void transitions(const dtmc::State& s,
                   std::vector<dtmc::Transition>& out) const override {
    if (s[0] == 0) {
      for (std::int32_t i = 0; i < 500; ++i) out.push_back({1.0 / 500, {1, i}});
    } else if (s[0] == 1) {
      if (s[1] != badAt_) {
        out.push_back({1.0, {2, s[1]}});
      } else if (outOfRange_) {
        out.push_back({1.0, {3, s[1]}});
      } else {
        out.push_back({badProb_, {2, s[1]}});
      }
    }
  }

 private:
  int badAt_;
  double badProb_;
  bool outOfRange_;
};

// ------------------------------------------------------ packed key layout

TEST(VarLayoutWords, WideLayoutRoundTripsAndOrdersLexicographically) {
  const dtmc::VarLayout layout(WideModel().variables());
  EXPECT_EQ(layout.totalBits(), 93);
  EXPECT_EQ(layout.words(), 2u);
  util::Xoshiro256 rng(5);
  std::vector<std::uint64_t> ka(2);
  std::vector<std::uint64_t> kb(2);
  for (int i = 0; i < 2000; ++i) {
    const auto draw = [&](std::int32_t lo, std::int32_t hi) {
      // Small ranges at both ends make equal prefixes likely.
      const std::int64_t span = rng.nextBounded(4);
      return rng.nextBounded(2) == 0 ? lo + static_cast<std::int32_t>(span)
                                     : hi - static_cast<std::int32_t>(span);
    };
    const dtmc::State a{draw(0, 0x7FFFFFFF), draw(-5, 0x7FFFFFF0),
                        draw(0, 0x7FFFFFFF)};
    const dtmc::State b{draw(0, 0x7FFFFFFF), draw(-5, 0x7FFFFFF0),
                        draw(0, 0x7FFFFFFF)};
    ASSERT_EQ(layout.packInto(a, ka.data()), dtmc::VarLayout::npos);
    ASSERT_EQ(layout.packInto(b, kb.data()), dtmc::VarLayout::npos);
    dtmc::State back;
    layout.unpackInto(ka.data(), back);
    EXPECT_EQ(back, a);
    EXPECT_EQ(ka < kb, a < b);
    EXPECT_EQ(ka == kb, a == b);
  }
}

TEST(VarLayoutWords, VariableZeroIsMostSignificant) {
  const dtmc::VarLayout layout({{"a", 0, 6}, {"b", -2, 2}, {"c", 0, 1}});
  EXPECT_EQ(layout.words(), 1u);
  // a=5 -> 101, b=-1 -> 001, c=1 -> 1.
  EXPECT_EQ(layout.pack({5, -1, 1}), 0b101'001'1u);
}

TEST(VarLayoutWords, PackIntoReportsTheOffendingVariable) {
  const dtmc::VarLayout layout({{"a", 0, 6}, {"b", -2, 2}});
  std::uint64_t key = 0;
  EXPECT_EQ(layout.packInto({7, 0}, &key), 0u);
  EXPECT_EQ(layout.packInto({0, -3}, &key), 1u);
  EXPECT_EQ(layout.packInto({0}, &key), 2u);  // wrong arity
  EXPECT_EQ(layout.packInto({6, 2}, &key), dtmc::VarLayout::npos);
}

// ------------------------------------------------- oracle, byte for byte

TEST(ExploreOracle, Mimo1x2) {
  expectMatchesOracle(mimo::MimoDetectorModel(mimo::mimo1x2Params()));
}

TEST(ExploreOracle, Mimo1x4) {
  expectMatchesOracle(mimo::MimoDetectorModel(mimo::mimo1x4Params()));
}

TEST(ExploreOracle, ReducedViterbi) {
  expectMatchesOracle(viterbi::ReducedViterbiModel(viterbi::ViterbiParams{}));
}

TEST(ExploreOracle, FullViterbi) {
  expectMatchesOracle(viterbi::FullViterbiModel(smallViterbiParams(3)));
}

TEST(ExploreOracle, PmlDuplicateTargets) {
  // Three updates land on s'=1: the merged sum must run in the oracle's
  // order to stay byte-identical.
  const pml::PmlModel model(R"(
dtmc
module m
  s : [0..3] init 0;
  [] s<3 -> 0.1 : (s'=s+1) + 0.2 : (s'=s+1) + 0.3 : (s'=s+1) + 0.4 : (s'=0);
endmodule
)");
  expectMatchesOracle(model);
}

TEST(ExploreOracle, GamblersRuin) {
  expectMatchesOracle(test::gamblersRuin(64, 0.4, 32));
}

TEST(ExploreOracle, WideLayout) {
  const WideModel model;
  ASSERT_FALSE(model.layout().fitsInU64());
  expectMatchesOracle(model);
}

TEST(ExploreOracle, DeadEnd) {
  expectMatchesOracle(test::MatrixModel({{0.0, 1.0}, {0.0, 0.0}}));
}

TEST(ExploreOracle, SeveralInitialStates) {
  // Repeated initial state: it carries twice the initial mass.
  expectMatchesOracle(test::MatrixModel(
      {{0.5, 0.5, 0.0}, {0.0, 1.0, 0.0}, {0.0, 0.3, 0.7}}, {2, 0, 2}));
}

TEST(ExploreOracle, ProbFloor) {
  dtmc::BuildOptions floored;
  floored.probFloor = 1e-3;
  const test::MatrixModel model(
      {{0.5, 0.4995, 5e-4}, {2e-4, 0.9998, 0.0}, {0.0, 0.0, 1.0}});
  expectMatchesOracle(model, floored);
  // The floor really dropped entries and renormalized.
  EXPECT_LT(dtmc::buildExplicit(model, floored).dtmc.numTransitions(),
            dtmc::buildExplicit(model).dtmc.numTransitions());

  const viterbi::ReducedViterbiModel viterbiModel(viterbi::ViterbiParams{});
  floored.probFloor = 1e-4;
  expectMatchesOracle(viterbiModel, floored);
}

TEST(ExploreOracle, TransposeOnly) {
  dtmc::BuildOptions transposeOnly;
  transposeOnly.orientation = la::KeepOrientation::kTransposeOnly;
  expectMatchesOracle(viterbi::ReducedViterbiModel(viterbi::ViterbiParams{}),
                      transposeOnly);
}

// --------------------------------------------------- decode on demand

TEST(DecodeOnDemand, QuotientRepresentativesDecodeToTheirBaseStates) {
  const WideModel wide;
  const viterbi::ReducedViterbiModel viterbiModel(smallViterbiParams(4));
  for (const dtmc::Model* model :
       std::vector<const dtmc::Model*>{&wide, &viterbiModel}) {
    const dtmc::BuildResult built = dtmc::buildExplicit(*model);
    const dtmc::ExplicitDtmc& base = built.dtmc;
    // Blocks keyed by variable 0's parity, so representatives differ.
    lump::InitialKeys keys(base.numStates());
    for (std::uint32_t s = 0; s < base.numStates(); ++s) {
      keys[s] = static_cast<std::uint64_t>(base.varValue(s, 0) & 1);
    }
    const lump::LumpResult lumped = lump::lump(base, keys);
    ASSERT_LT(lumped.quotient.numStates(), base.numStates());
    std::vector<dtmc::State> expected;
    for (const std::uint32_t rep : lumped.representative) {
      expected.push_back(base.state(rep));
    }
    expectDecodes(lumped.quotient, expected);
  }
}

TEST(DecodeOnDemand, ApproxBytesIsTheSumOfTheResidentArrays) {
  const WideModel wide;
  const viterbi::ReducedViterbiModel viterbiModel(smallViterbiParams(4));
  const mimo::MimoDetectorModel mimoModel(mimo::mimo1x2Params());
  for (const dtmc::Model* model :
       std::vector<const dtmc::Model*>{&wide, &viterbiModel, &mimoModel}) {
    const dtmc::ExplicitDtmc d = dtmc::buildExplicit(*model).dtmc;
    // CSR (both orientations, block tables), the initial distribution and
    // words() key words per state — no per-state heap object.
    const std::uint64_t perState =
        sizeof(double) + d.varLayout().words() * sizeof(std::uint64_t);
    EXPECT_EQ(engine::approxDtmcBytes(d),
              d.matrix().approxBytes() + d.numStates() * perState);
    // ... and no growth slack behind those arrays: the counted bytes are
    // the resident ones.
    const la::CsrMatrix& t = d.matrix().transposed();
    EXPECT_EQ(d.keys().capacity(), d.keys().size());
    EXPECT_EQ(d.initialDistribution().capacity(),
              d.initialDistribution().size());
    EXPECT_EQ(d.rowPtr().capacity(), d.rowPtr().size());
    EXPECT_EQ(d.col().capacity(), d.col().size());
    EXPECT_EQ(d.val().capacity(), d.val().size());
    EXPECT_EQ(t.rowPtr().capacity(), t.rowPtr().size());
    EXPECT_EQ(t.col().capacity(), t.col().size());
    EXPECT_EQ(t.val().capacity(), t.val().size());
  }
}

// ------------------------------------------- probe, build and count agree

TEST(ExploreSignature, ProbeHashesTheBuildStream) {
  const WideModel wide;
  const viterbi::ReducedViterbiModel viterbiModel(smallViterbiParams(4));
  const test::MatrixModel deadEnd({{0.0, 1.0}, {0.0, 0.0}});
  const test::MatrixModel ruin = test::gamblersRuin(40, 0.3, 20);
  for (const dtmc::Model* model :
       std::vector<const dtmc::Model*>{&wide, &viterbiModel, &deadEnd, &ruin}) {
    const dtmc::ModelSignature sig = dtmc::modelSignature(*model);
    const dtmc::BuildResult built = dtmc::buildExplicit(*model);
    const dtmc::CountResult count = dtmc::countReachable(*model);
    EXPECT_TRUE(sig.exact);
    EXPECT_EQ(sig.hash, built.signature);
    EXPECT_EQ(sig.states, built.dtmc.numStates());
    EXPECT_EQ(sig.transitions, built.dtmc.numTransitions());
    EXPECT_EQ(count.numStates, built.dtmc.numStates());
    EXPECT_EQ(count.numTransitions, built.dtmc.numTransitions());
    EXPECT_EQ(count.reachabilityIterations, built.reachabilityIterations);
  }
}

TEST(ExploreSignature, TruncatedProbeStopsPastTheCap) {
  const test::MatrixModel model = test::lineModel(50);
  dtmc::SignatureOptions capped;
  capped.maxStates = 10;
  const dtmc::ModelSignature sig = dtmc::modelSignature(model, capped);
  EXPECT_FALSE(sig.exact);
  EXPECT_EQ(sig.states, 11u);
  EXPECT_NE(sig.hash, dtmc::modelSignature(model).hash);

  dtmc::BuildOptions build;
  build.maxStates = 10;
  try {
    (void)dtmc::buildExplicit(model, build);
    FAIL() << "expected a state-limit error";
  } catch (const dtmc::BuildError& e) {
    EXPECT_EQ(e.kind(), dtmc::BuildError::Kind::kStateLimit);
    EXPECT_EQ(e.stateLimit(), 10u);
  }
}

// ------------------------------------------------------ validation errors

/// Builds `model` serially and with 2- and 8-thread pools, expecting each
/// to throw a BuildError of the same kind, message and state limit.
void expectSameErrorPooled(const dtmc::Model& model,
                           const dtmc::BuildOptions& options,
                           dtmc::BuildError::Kind kind) {
  std::string serialWhat;
  std::uint64_t serialLimit = 0;
  try {
    (void)dtmc::buildExplicit(model, options);
    FAIL() << "expected a build error";
  } catch (const dtmc::BuildError& e) {
    EXPECT_EQ(e.kind(), kind) << e.what();
    serialWhat = e.what();
    serialLimit = e.stateLimit();
  }
  for (const std::size_t threads : {2u, 8u}) {
    engine::ThreadPool pool(threads);
    la::Exec exec;
    exec.runner = engine::laRunnerFor(pool);
    try {
      (void)dtmc::buildExplicit(model, options, exec);
      FAIL() << "expected a build error, pool of " << threads;
    } catch (const dtmc::BuildError& e) {
      EXPECT_EQ(e.kind(), kind) << e.what();
      EXPECT_EQ(e.what(), serialWhat) << "pool of " << threads;
      EXPECT_EQ(e.stateLimit(), serialLimit);
    }
  }
}

TEST(ExplorePooled, ErrorsInsideAWaveMatchTheSerialBuild) {
  for (const double bad : {-0.5, std::numeric_limits<double>::quiet_NaN()}) {
    expectSameErrorPooled(WideLevelModel(300, bad, false), {},
                          dtmc::BuildError::Kind::kBadProbability);
  }
  expectSameErrorPooled(WideLevelModel(300, 1.0, true), {},
                        dtmc::BuildError::Kind::kOutOfRange);
  // The very first state of the level, and the last.
  expectSameErrorPooled(WideLevelModel(0, -1.0, false), {},
                        dtmc::BuildError::Kind::kBadProbability);
  expectSameErrorPooled(WideLevelModel(499, 1.0, true), {},
                        dtmc::BuildError::Kind::kOutOfRange);
}

TEST(ExplorePooled, EarlierStateLimitBeatsALaterBadRow) {
  // Rows (1, 0..99) intern (2, 0..99): the 101st new state of level 2
  // overflows the cap before row (1, 300) is merged.
  dtmc::BuildOptions capped;
  capped.maxStates = 1 + 500 + 100;
  expectSameErrorPooled(WideLevelModel(300, -0.5, false), capped,
                        dtmc::BuildError::Kind::kStateLimit);
  expectSameErrorPooled(WideLevelModel(300, 1.0, true), capped,
                        dtmc::BuildError::Kind::kStateLimit);
  // Overflow two rows before the bad one, likely inside the same chunk.
  capped.maxStates = 1 + 500 + 298;
  expectSameErrorPooled(WideLevelModel(300, -0.5, false), capped,
                        dtmc::BuildError::Kind::kStateLimit);
}

TEST(ExplorePooled, ValidWideLevelMatchesTheSerialBuild) {
  const WideLevelModel model(-1, 0.0, false);
  const dtmc::BuildResult serial = dtmc::buildExplicit(model);
  EXPECT_EQ(serial.dtmc.numStates(), 1u + 500 + 500);
  expectPooledBuildsMatch(model, {}, serial);
}

TEST(ExploreValidation, OutOfRangeTargetNamesVariableAndState) {
  const OverflowModel model;
  try {
    (void)dtmc::buildExplicit(model);
    FAIL() << "expected an out-of-range error";
  } catch (const dtmc::BuildError& e) {
    EXPECT_EQ(e.kind(), dtmc::BuildError::Kind::kOutOfRange);
    const std::string what = e.what();
    EXPECT_NE(what.find("x=4"), std::string::npos) << what;
    EXPECT_NE(what.find("[0..3]"), std::string::npos) << what;
    EXPECT_NE(what.find("(x=3, flag=1)"), std::string::npos) << what;
  }
  // Every entry point shares the check: no packed key ever aliases.
  EXPECT_THROW((void)dtmc::modelSignature(model), dtmc::BuildError);
  EXPECT_THROW((void)dtmc::countReachable(model), dtmc::BuildError);
}

TEST(ExploreValidation, OutOfRangeInitialStateAndWrongArity) {
  test::MatrixModel initialOutside({{1.0}}, {1});
  EXPECT_THROW((void)dtmc::buildExplicit(initialOutside), dtmc::BuildError);

  class ShortState : public OverflowModel {
    void transitions(const dtmc::State& /*s*/,
                     std::vector<dtmc::Transition>& out) const override {
      out.push_back({1.0, {0}});
    }
  };
  try {
    (void)dtmc::buildExplicit(ShortState());
    FAIL() << "expected an arity error";
  } catch (const dtmc::BuildError& e) {
    EXPECT_EQ(e.kind(), dtmc::BuildError::Kind::kOutOfRange);
    EXPECT_NE(std::string(e.what()).find("has 1 values"), std::string::npos)
        << e.what();
  }
}

TEST(ExploreValidation, NegativeAndNonFiniteProbabilitiesAreErrors) {
  for (const double bad : {-0.2, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    const BadProbabilityModel model(bad);
    try {
      (void)dtmc::buildExplicit(model);
      FAIL() << "expected a probability error for " << bad;
    } catch (const dtmc::BuildError& e) {
      EXPECT_EQ(e.kind(), dtmc::BuildError::Kind::kBadProbability);
      EXPECT_NE(std::string(e.what()).find("(s=0)"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ExploreValidation, BadProbabilitiesReachTheResponse) {
  // Checked anyway, these chains would answer P=?[F<=3 ...] with -0.35 and
  // NaN: the request must fail instead.
  for (const double bad : {-0.2, std::numeric_limits<double>::quiet_NaN()}) {
    const BadProbabilityModel model(bad);
    engine::AnalysisEngine eng(engineOptions(2));
    engine::AnalysisRequest request;
    request.model = &model;
    request.properties = {"P=? [ F<=3 s=2 ]"};
    EXPECT_THROW((void)eng.analyze(request), dtmc::BuildError) << bad;

    request.options.backend = engine::Backend::kExact;
    const std::vector<engine::AnalysisResponse> responses =
        eng.analyzeAll({request, request});
    for (const engine::AnalysisResponse& response : responses) {
      EXPECT_FALSE(response.ok()) << bad;
      EXPECT_NE(response.error.find("transition probability"),
                std::string::npos)
          << response.error;
      EXPECT_TRUE(response.results.empty());
    }
    EXPECT_EQ(eng.cachedModelCount(), 0u);
  }
}

TEST(ExploreValidation, FloorThatEmptiesARowIsAnError) {
  dtmc::BuildOptions floored;
  floored.probFloor = 0.6;
  const test::MatrixModel model({{0.5, 0.5}, {0.0, 1.0}});
  try {
    (void)dtmc::buildExplicit(model, floored);
    FAIL() << "expected an empty-row error";
  } catch (const dtmc::BuildError& e) {
    EXPECT_EQ(e.kind(), dtmc::BuildError::Kind::kEmptyRow);
  }
}

TEST(ExploreValidation, NoInitialStatesIsAnError) {
  const test::MatrixModel model({{1.0}}, {});
  try {
    (void)dtmc::buildExplicit(model);
    FAIL() << "expected a no-initial-states error";
  } catch (const dtmc::BuildError& e) {
    EXPECT_EQ(e.kind(), dtmc::BuildError::Kind::kNoInitialStates);
  }
}

}  // namespace
}  // namespace mimostat
