// Structural model signatures for build caching.
//
// A signature identifies a dtmc::Model's *transition structure* (variable
// layout, initial states, reachable transition relation), so an engine can
// reuse an already-built ExplicitDtmc for a structurally identical model.
// modelSignature is the builder's exploration (builder.hpp) without CSR
// output, so it hashes the very stream buildExplicit folds into
// BuildResult::signature; the hash depends on the model alone, hence is
// stable across runs and processes. Atoms and rewards are deliberately NOT
// part of it: the explicit DTMC stores only structure, and label / reward
// vectors are always re-evaluated through the requesting model.
//
// The probe doubles as a capped reachable-state count: when `exact` is true
// it visited the whole reachable set and `states` is its size.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "dtmc/model.hpp"
#include "la/bit_vector.hpp"

namespace mimostat::dtmc {

struct SignatureOptions {
  /// Abort the probe (exact=false) past this many visited states.
  std::uint64_t maxStates = 1'000'000;
};

struct ModelSignature {
  /// Hash over layout + initial states + probed transition relation.
  std::uint64_t hash = 0;
  /// The probe covered the entire reachable set.
  bool exact = false;
  /// States visited (the reachable count when exact).
  std::uint64_t states = 0;
  /// Merged transitions hashed during the probe (the built nnz when exact).
  std::uint64_t transitions = 0;
};

/// Deterministic structural signature of a model. Never throws on large
/// models — the probe truncates and reports exact=false instead — but
/// throws dtmc::BuildError on an invalid one (bad probability, out-of-range
/// value, no initial states).
[[nodiscard]] ModelSignature modelSignature(const Model& model,
                                            const SignatureOptions& options = {});

/// Order-independent digest over the label masks and reward vectors an
/// evaluation plan needs — the optional second half of a cache key for
/// plan-aware reduction artifacts (the engine's quotient cache). Entries
/// combine an identity hash (the mask's structural formula hash / the reward
/// structure's name) with a content hash (the evaluated bits / values), then
/// XOR into the accumulator, so insertion order never matters; two plans
/// needing the same atoms and rewards digest equal no matter how their
/// properties were listed. An empty digest hashes to 0 (plan needs nothing —
/// every state may merge).
class LabelRewardDigest {
 public:
  /// Mask entry: `formulaHash` identifies the state formula (use
  /// pctl::structuralHash), the BitVector is its evaluated truth set.
  void addMask(std::uint64_t formulaHash, const la::BitVector& mask);
  /// Reward entry: the reward structure's name plus its evaluated vector.
  void addReward(std::string_view name, const std::vector<double>& values);

  [[nodiscard]] std::uint64_t hash() const { return hash_; }
  [[nodiscard]] std::uint32_t entries() const { return entries_; }

 private:
  std::uint64_t hash_ = 0;
  std::uint32_t entries_ = 0;
};

}  // namespace mimostat::dtmc
