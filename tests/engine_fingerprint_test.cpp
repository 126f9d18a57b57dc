// Model::fingerprint and the engine's fingerprint-keyed requests: every
// parameter is covered, equal parameters alias (and build the same chain),
// and a cold fingerprinted request explores its model exactly once.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "dtmc/builder.hpp"
#include "dtmc/signature.hpp"
#include "engine/engine.hpp"
#include "mimo/detector.hpp"
#include "mimo/model.hpp"
#include "viterbi/model_reduced.hpp"

namespace mimostat {
namespace {

/// Engine with `threads` workers and the default cache settings.
engine::EngineOptions engineOptions(std::size_t threads) {
  engine::EngineOptions options;
  options.threads = threads;
  return options;
}

viterbi::ViterbiParams smallViterbiParams() {
  viterbi::ViterbiParams p;
  p.tracebackLength = 3;
  return p;
}

/// Forwards every Model call to `inner`, counting transitions() calls. The
/// fingerprint is forwarded unless `withFingerprint` is false.
class CountingModel : public dtmc::Model {
 public:
  explicit CountingModel(const dtmc::Model& inner, bool withFingerprint = true)
      : inner_(inner), withFingerprint_(withFingerprint) {}

  [[nodiscard]] std::vector<dtmc::VarSpec> variables() const override {
    return inner_.variables();
  }
  [[nodiscard]] std::vector<dtmc::State> initialStates() const override {
    return inner_.initialStates();
  }
  void transitions(const dtmc::State& s,
                   std::vector<dtmc::Transition>& out) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    inner_.transitions(s, out);
  }
  [[nodiscard]] bool atom(const dtmc::State& s,
                          std::string_view name) const override {
    return inner_.atom(s, name);
  }
  [[nodiscard]] double stateReward(const dtmc::State& s,
                                   std::string_view name) const override {
    return inner_.stateReward(s, name);
  }
  [[nodiscard]] std::optional<std::uint64_t> fingerprint() const override {
    return withFingerprint_ ? inner_.fingerprint() : std::nullopt;
  }

  [[nodiscard]] std::uint64_t calls() const { return calls_.load(); }
  void reset() { calls_.store(0); }

 private:
  const dtmc::Model& inner_;
  bool withFingerprint_;
  mutable std::atomic<std::uint64_t> calls_{0};
};

template <typename Params, typename Model>
void expectEveryFieldCounts(
    const Params& base,
    const std::vector<std::pair<const char*, std::function<void(Params&)>>>&
        perturbations) {
  const std::uint64_t reference = *Model(base).fingerprint();
  EXPECT_EQ(*Model(base).fingerprint(), reference);
  for (const auto& [field, perturb] : perturbations) {
    Params changed = base;
    perturb(changed);
    EXPECT_NE(*Model(changed).fingerprint(), reference) << field;
  }
}

TEST(ModelFingerprint, EveryMimoParamsFieldCounts) {
  // One perturbation per field; MimoDetectorModel::fingerprint's
  // static_assert on sizeof(MimoParams) forces this list to grow with it.
  expectEveryFieldCounts<mimo::MimoParams, mimo::MimoDetectorModel>(
      mimo::mimo1x2Params(),
      {{"nr", [](mimo::MimoParams& p) { p.nr = 1; }},
       {"nt", [](mimo::MimoParams& p) { p.nt = 2; }},
       {"snrDb", [](mimo::MimoParams& p) { p.snrDb += 1e-9; }},
       {"hLevels", [](mimo::MimoParams& p) { p.hLevels += 1; }},
       {"hRange", [](mimo::MimoParams& p) { p.hRange += 1e-9; }},
       {"yLevels", [](mimo::MimoParams& p) { p.yLevels += 2; }},
       {"yRange", [](mimo::MimoParams& p) { p.yRange += 1e-9; }}});
}

TEST(ModelFingerprint, EveryViterbiParamsFieldCounts) {
  expectEveryFieldCounts<viterbi::ViterbiParams, viterbi::ReducedViterbiModel>(
      smallViterbiParams(),
      {{"tracebackLength",
        [](viterbi::ViterbiParams& p) { p.tracebackLength = 4; }},
       {"snrDb", [](viterbi::ViterbiParams& p) { p.snrDb += 1e-9; }},
       {"quantLevels", [](viterbi::ViterbiParams& p) { p.quantLevels = 8; }},
       {"quantRange", [](viterbi::ViterbiParams& p) { p.quantRange += 1e-9; }},
       {"pmCap", [](viterbi::ViterbiParams& p) { p.pmCap = 5; }},
       {"bmCap", [](viterbi::ViterbiParams& p) { p.bmCap = 5; }},
       {"bmScale", [](viterbi::ViterbiParams& p) { p.bmScale = 3.0; }},
       {"withErrorCounter",
        [](viterbi::ViterbiParams& p) { p.withErrorCounter = true; }},
       {"errorThreshold",
        [](viterbi::ViterbiParams& p) { p.errorThreshold = 2; }}});
}

TEST(ModelFingerprint, EqualParametersAliasTheSameChain) {
  const viterbi::ReducedViterbiModel a(smallViterbiParams());
  const viterbi::ReducedViterbiModel b(smallViterbiParams());
  ASSERT_TRUE(a.fingerprint().has_value());
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(dtmc::buildExplicit(a).signature, dtmc::buildExplicit(b).signature);
  EXPECT_EQ(dtmc::buildExplicit(a).signature, dtmc::modelSignature(b).hash);

  const mimo::MimoDetectorModel m(mimo::mimo1x4Params());
  const mimo::MimoDetectorModel n(mimo::mimo1x4Params());
  EXPECT_EQ(m.fingerprint(), n.fingerprint());
  EXPECT_EQ(dtmc::buildExplicit(m).signature, dtmc::buildExplicit(n).signature);

  // Class tags keep different model classes apart.
  EXPECT_NE(m.fingerprint(), a.fingerprint());
}

TEST(EngineFingerprint, ColdRequestExploresTheModelOnce) {
  const viterbi::ReducedViterbiModel inner(smallViterbiParams());
  CountingModel model(inner);
  engine::AnalysisEngine eng(engineOptions(2));
  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = {"R=? [ I=10 ]", "P=? [ F<=5 \"error\" ]"};

  const engine::AnalysisResponse cold = eng.analyze(request);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold.cacheHit);
  EXPECT_EQ(cold.backend, engine::Backend::kExact);
  EXPECT_EQ(model.calls(), cold.states);

  model.reset();
  const engine::AnalysisResponse warm = eng.analyze(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.cacheHit);
  EXPECT_EQ(model.calls(), 0u);
  EXPECT_EQ(warm.modelKey, cold.modelKey);
  for (std::size_t i = 0; i < cold.results.size(); ++i) {
    EXPECT_EQ(warm.results[i].value, cold.results[i].value);
  }

  // The same model without a fingerprint is probed first: two explorations
  // cold, one (the probe) warm — and the same answers.
  const CountingModel probed(inner, /*withFingerprint=*/false);
  engine::AnalysisEngine other(engineOptions(2));
  request.model = &probed;
  const engine::AnalysisResponse probedCold = other.analyze(request);
  EXPECT_EQ(probed.calls(), 2 * probedCold.states);
  for (std::size_t i = 0; i < cold.results.size(); ++i) {
    EXPECT_EQ(probedCold.results[i].value, cold.results[i].value);
  }
}

TEST(EngineFingerprint, EqualParametersShareOneBuild) {
  const viterbi::ReducedViterbiModel a(smallViterbiParams());
  const viterbi::ReducedViterbiModel b(smallViterbiParams());
  engine::AnalysisEngine eng(engineOptions(2));
  engine::AnalysisRequest request;
  request.model = &a;
  request.properties = {"R=? [ I=10 ]"};
  const engine::AnalysisResponse first = eng.analyze(request);
  request.model = &b;
  const engine::AnalysisResponse second = eng.analyze(request);
  EXPECT_TRUE(second.cacheHit);
  EXPECT_EQ(second.modelKey, first.modelKey);
  EXPECT_EQ(eng.buildCount(), 1u);
  // ensureBuilt resolves the same key.
  bool hit = false;
  (void)eng.ensureBuilt(a, {}, std::nullopt, &hit);
  EXPECT_TRUE(hit);
}

TEST(EngineFingerprint, AutoBackendBudgetMatchesTheProbeDecision) {
  // A fingerprinted kAuto miss builds capped at the state budget; an
  // overflow falls back to sampling exactly where the probe would.
  const viterbi::ReducedViterbiModel inner(smallViterbiParams());
  const std::uint64_t states = dtmc::buildExplicit(inner).dtmc.numStates();
  const CountingModel fingerprinted(inner);
  const CountingModel probed(inner, /*withFingerprint=*/false);
  for (const std::uint64_t budget : {states - 1, states}) {
    for (const CountingModel* model : {&fingerprinted, &probed}) {
      engine::AnalysisEngine eng(engineOptions(2));
      engine::AnalysisRequest request;
      request.model = model;
      request.properties = {"P=? [ F<=5 \"error\" ]"};
      request.options.stateBudget = budget;
      request.options.smc.paths = 200;
      const engine::AnalysisResponse response = eng.analyze(request);
      ASSERT_TRUE(response.ok()) << response.error;
      EXPECT_EQ(response.backend, budget < states ? engine::Backend::kSampling
                                                  : engine::Backend::kExact)
          << "budget " << budget;
      // A budget overflow leaves no cache entry behind.
      EXPECT_EQ(eng.cachedModelCount(), budget < states ? 0u : 1u);
    }
  }
}

TEST(EngineFingerprint, BudgetAboveMaxStatesKeepsTheProbeDecision) {
  // With stateBudget > build.maxStates a capped build cannot tell the two
  // overflows apart, so the engine probes — but still keys by fingerprint.
  const viterbi::ReducedViterbiModel model(smallViterbiParams());
  const std::uint64_t states = dtmc::buildExplicit(model).dtmc.numStates();
  engine::AnalysisEngine eng(engineOptions(2));
  engine::AnalysisRequest request;
  request.model = &model;
  request.properties = {"P=? [ F<=5 \"error\" ]"};
  request.options.smc.paths = 100;

  // Within the budget but past maxStates: an error, as before.
  request.options.build.maxStates = states - 1;
  request.options.stateBudget = states;
  EXPECT_THROW((void)eng.analyze(request), dtmc::BuildError);

  // Past both: sampled.
  request.options.build.maxStates = states - 2;
  request.options.stateBudget = states - 1;
  const engine::AnalysisResponse sampled = eng.analyze(request);
  ASSERT_TRUE(sampled.ok()) << sampled.error;
  EXPECT_EQ(sampled.backend, engine::Backend::kSampling);

  request.options.build.maxStates = states;
  request.options.backend = engine::Backend::kExact;
  const engine::AnalysisResponse exact = eng.analyze(request);
  ASSERT_TRUE(exact.ok()) << exact.error;
  EXPECT_EQ(exact.modelKey, sampled.modelKey);
}

TEST(EngineFingerprint, ExactRequestsJoiningABudgetBuildStillBuild) {
  // An exact request may join the in-flight budget-capped build of a kAuto
  // request for the same key; when that build outgrows the budget the
  // exact request must build under its own cap, not inherit the overflow.
  const viterbi::ReducedViterbiModel model(smallViterbiParams());
  engine::AnalysisRequest autoRequest;
  autoRequest.model = &model;
  autoRequest.properties = {"P=? [ F<=5 \"error\" ]"};
  autoRequest.options.stateBudget = 10;
  autoRequest.options.smc.paths = 100;
  engine::AnalysisRequest exactRequest = autoRequest;
  exactRequest.options.backend = engine::Backend::kExact;
  for (int round = 0; round < 5; ++round) {
    engine::AnalysisEngine eng(engineOptions(4));
    const std::vector<engine::AnalysisResponse> responses = eng.analyzeAll(
        {autoRequest, exactRequest, autoRequest, exactRequest});
    // A kAuto request answers exactly when it finds the exact request's
    // build cached, by sampling otherwise.
    for (const engine::AnalysisResponse& response : responses) {
      ASSERT_TRUE(response.ok()) << response.error;
    }
    EXPECT_EQ(responses[1].backend, engine::Backend::kExact);
    EXPECT_EQ(responses[3].backend, engine::Backend::kExact);
  }
}

}  // namespace
}  // namespace mimostat
