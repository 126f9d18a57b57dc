// Abstract DTMC model interface — the library's analogue of a PRISM module.
//
// A model declares its state variables, its initial states, and a transition
// function mapping each state to a probability distribution over successor
// states (paper Eq. 2-5 define such a function for the Viterbi decoder).
// Labels (atomic propositions) and reward structures are exposed by name so
// pCTL properties can refer to them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dtmc/state.hpp"

namespace mimostat::dtmc {

/// One probabilistic successor: (probability, target state).
struct Transition {
  double prob = 0.0;
  State target;
};

/// Thread safety: transitions(), atom(), stateReward() and fingerprint()
/// are const and may be called concurrently on one model object — smc::
/// samples paths from engine pool threads, and the engine evaluates masks
/// and rewards while sibling requests explore the same model. An
/// implementation must not mutate shared state from them (or must guard
/// what it caches).
class Model {
 public:
  virtual ~Model() = default;

  /// Ordered list of state variables; defines the State vector layout.
  [[nodiscard]] virtual std::vector<VarSpec> variables() const = 0;

  /// Initial states (taken as a uniform distribution when more than one).
  [[nodiscard]] virtual std::vector<State> initialStates() const = 0;

  /// Append the successor distribution of `s` to `out`. Implementations may
  /// emit duplicate targets; the builder merges them. Probabilities must be
  /// finite, non-negative and sum to 1 within 1e-9, and values lie in their
  /// declared ranges (a dtmc::BuildError otherwise; a mass deviation only
  /// warns). Emitting nothing declares `s` absorbing: the builder and the
  /// path sampler both materialize a self-loop, so every consumer sees the
  /// same chain.
  virtual void transitions(const State& s, std::vector<Transition>& out) const = 0;

  /// Truth of the named atomic proposition in state `s`.
  /// Default: no atoms (returns false for every name).
  [[nodiscard]] virtual bool atom(const State& s, std::string_view name) const;

  /// Value of the named reward structure in state `s`.
  /// Default reward (empty name or "default") is 0.
  [[nodiscard]] virtual double stateReward(const State& s,
                                           std::string_view name) const;

  /// Optional hash of a class tag plus every constructor parameter; the
  /// engine keys its model cache by it instead of probing the model.
  /// Contract: equal fingerprints promise equal variables(),
  /// initialStates() and transitions() — one model's cached build is served
  /// to the other unchecked — so subclasses that change the chain override
  /// it. Default: none.
  [[nodiscard]] virtual std::optional<std::uint64_t> fingerprint() const {
    return std::nullopt;
  }

  /// Convenience: layout built from variables().
  [[nodiscard]] VarLayout layout() const { return VarLayout(variables()); }
};

/// The library's one row normalization: sort `row` by `less`, merge
/// entries `less` cannot tell apart (summing `prob` in sorted order), then
/// drop entries below `floor` and rescale the rest to the pre-floor mass,
/// which it returns. normalizeTransitions runs it on State targets, the
/// explicit builder on packed keys — the same order, hence the same sums.
/// A strictly increasing row (distinct targets already in order, as every
/// MIMO detector row is) has one sorted order and nothing to merge, so it
/// skips both steps with a bit-identical result.
template <typename Entry, typename Less>
double normalizeRow(std::vector<Entry>& row, double floor, Less less) {
  if (row.empty()) return 0.0;
  std::size_t ordered = 1;
  while (ordered < row.size() && less(row[ordered - 1], row[ordered])) {
    ++ordered;
  }
  if (ordered < row.size()) {
    std::sort(row.begin(), row.end(), less);
    std::size_t last = 0;
    for (std::size_t i = 1; i < row.size(); ++i) {
      if (!less(row[last], row[i])) {
        row[last].prob += row[i].prob;
      } else if (++last != i) {
        row[last] = std::move(row[i]);
      }
    }
    row.resize(last + 1);
  }
  double mass = 0.0;
  for (const Entry& e : row) mass += e.prob;
  if (floor > 0.0) {
    std::erase_if(row, [floor](const Entry& e) { return e.prob < floor; });
    double kept = 0.0;
    for (const Entry& e : row) kept += e.prob;
    if (kept > 0.0 && kept != mass) {
      const double scale = mass / kept;
      for (Entry& e : row) e.prob *= scale;
    }
  }
  return mass;
}

/// Merge duplicate targets in a transition list (sums probabilities) and
/// optionally drop entries below `floor`, renormalizing the remainder.
/// Returns the total probability mass before normalization (should be ~1).
double normalizeTransitions(std::vector<Transition>& transitions, double floor);

}  // namespace mimostat::dtmc
