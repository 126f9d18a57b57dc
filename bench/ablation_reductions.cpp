// Ablation study of the design choices DESIGN.md calls out:
//   1. Hand (domain-specific) reduction vs generic bisimulation lumping vs
//      no reduction, on the Viterbi error model.
//   2. Probability-floor (PRISM's 1e-15 discard) effect on model size.
//   3. Hash-set vs BDD state-set storage for reachability.
// Shapes: the hand reduction dominates the full model; generic lumping on
// top of the hand reduction finds little extra (the hand abstraction is
// near-optimal for the property); the BDD set trades time for memory.
#include <cstdio>

#include "bdd/stateset.hpp"
#include "dtmc/builder.hpp"
#include "lump/bisim.hpp"
#include "mc/checker.hpp"
#include "util/hash.hpp"
#include "util/timer.hpp"
#include "viterbi/model_full.hpp"
#include "viterbi/model_reduced.hpp"

int main() {
  using namespace mimostat;

  std::printf("=== Ablation 1: reduction strategies (Viterbi, L=4) ===\n\n");
  viterbi::ViterbiParams params;
  params.tracebackLength = 4;  // keeps the *full* model buildable

  const viterbi::FullViterbiModel fullModel(params);
  const viterbi::ReducedViterbiModel reducedModel(params);

  util::Stopwatch fullTimer;
  const auto full = dtmc::buildExplicit(fullModel);
  const double fullBuild = fullTimer.elapsedSeconds();
  const mc::Checker fullChecker(full.dtmc, fullModel);
  util::Stopwatch fullCheckTimer;
  const double fullP2 = fullChecker.check("R=? [ I=100 ]").value;
  const double fullCheck = fullCheckTimer.elapsedSeconds();

  util::Stopwatch reducedTimer;
  const auto reduced = dtmc::buildExplicit(reducedModel);
  const double reducedBuild = reducedTimer.elapsedSeconds();
  const mc::Checker reducedChecker(reduced.dtmc, reducedModel);
  util::Stopwatch reducedCheckTimer;
  const double reducedP2 = reducedChecker.check("R=? [ I=100 ]").value;
  const double reducedCheck = reducedCheckTimer.elapsedSeconds();

  // Generic lumping on the full model, keyed by the reward (flag).
  util::Stopwatch lumpTimer;
  const auto reward = full.dtmc.evalReward(fullModel, "");
  const auto lumped =
      lump::lump(full.dtmc, lump::keysFromRewardAndLabels(reward, {}));
  const double lumpSeconds = lumpTimer.elapsedSeconds();

  std::printf("%-28s %10s %12s %12s %14s\n", "Strategy", "States",
              "build(s)", "check(s)", "P2(T=100)");
  std::printf("%-28s %10u %12.2f %12.3f %14.8f\n", "none (full model M)",
              full.dtmc.numStates(), fullBuild, fullCheck, fullP2);
  std::printf("%-28s %10u %12.2f %12.3f %14.8f\n", "hand reduction (M_R)",
              reduced.dtmc.numStates(), reducedBuild, reducedCheck, reducedP2);
  std::printf("%-28s %10u %12.2f %12s %14s\n", "generic lumping of M",
              lumped.partition.numBlocks, lumpSeconds, "-", "-");
  std::printf("\nP2 preserved by hand reduction: %s (|diff| = %.2e)\n",
              std::abs(fullP2 - reducedP2) < 1e-10 ? "yes" : "NO",
              std::abs(fullP2 - reducedP2));
  std::printf("Generic lumping vs hand reduction block count: %u vs %u\n",
              lumped.partition.numBlocks, reduced.dtmc.numStates());

  std::printf("\n=== Ablation 2: probability floor (PRISM 1e-15 discard) "
              "===\n\n");
  for (const double floor : {0.0, 1e-15, 1e-9, 1e-6}) {
    dtmc::BuildOptions options;
    options.probFloor = floor;
    const auto result = dtmc::buildExplicit(reducedModel, options);
    const mc::Checker checker(result.dtmc, reducedModel);
    std::printf("  floor=%-8.0e states=%-8u transitions=%-9llu "
                "P2(T=100)=%.8f\n",
                floor, result.dtmc.numStates(),
                static_cast<unsigned long long>(result.dtmc.numTransitions()),
                checker.check("R=? [ I=100 ]").value);
  }

  std::printf("\n=== Ablation 3: hash-set vs BDD state storage ===\n\n");
  {
    const auto layout = reducedModel.layout();
    const auto count = dtmc::countReachable(reducedModel);
    // Replay reachability into both set implementations (the layout fits
    // in 64 bits, so each state's packed key is one word).
    const auto built = dtmc::buildExplicit(reducedModel);
    util::Stopwatch hashTimer;
    util::PackedStateSet hashSet;
    for (const std::uint64_t key : built.dtmc.keys()) hashSet.insert(key);
    const double hashSeconds = hashTimer.elapsedSeconds();

    util::Stopwatch bddTimer;
    bdd::BddStateSet bddSet(static_cast<std::uint32_t>(layout.totalBits()));
    for (const std::uint64_t key : built.dtmc.keys()) bddSet.insert(key);
    const double bddSeconds = bddTimer.elapsedSeconds();

    std::printf("  states=%llu\n",
                static_cast<unsigned long long>(count.numStates));
    std::printf("  hash set: %.4fs, %zu slots x 8B = %zu KB\n", hashSeconds,
                hashSet.capacity(), hashSet.capacity() * 8 / 1024);
    std::printf("  BDD set:  %.4fs, %zu nodes x 12B = %zu KB\n", bddSeconds,
                bddSet.nodeCount(), bddSet.nodeCount() * 12 / 1024);
    std::printf("  sizes agree: %s\n",
                bddSet.size() == static_cast<double>(hashSet.size()) ? "yes"
                                                                     : "NO");
  }
  return 0;
}
