// Test-only oracle: a plain vector-state explicit builder.
//
// States are heap std::vector<int32_t>s interned in an unordered_map, rows
// are sorted, merged and floored on State targets by a private copy of the
// row normalization (independent of dtmc::normalizeRow) and kept as a
// vector of rows until the CSR is assembled. Slow and memory-hungry, but
// obviously correct — dtmc::buildExplicit's packed-key exploration must
// reproduce its CSR arrays, initial distribution, decoded state table and
// RI byte for byte. The oracle keeps its states decoded and packs them
// into Raw::keys only to hand the build to ExplicitDtmc::fromRaw.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dtmc/builder.hpp"
#include "dtmc/explicit_dtmc.hpp"
#include "dtmc/model.hpp"
#include "util/hash.hpp"

namespace mimostat::test {

/// Sort by target, merge duplicates (summing in sorted order), drop entries
/// below `floor` and rescale the rest to the pre-floor mass.
inline void referenceNormalize(std::vector<dtmc::Transition>& row,
                               double floor) {
  std::sort(row.begin(), row.end(),
            [](const dtmc::Transition& a, const dtmc::Transition& b) {
              return a.target < b.target;
            });
  std::size_t out = 0;
  for (std::size_t i = 1; i < row.size(); ++i) {
    if (row[i].target == row[out].target) {
      row[out].prob += row[i].prob;
    } else {
      ++out;
      if (out != i) row[out] = std::move(row[i]);
    }
  }
  row.resize(out + 1);
  double mass = 0.0;
  for (const auto& t : row) mass += t.prob;
  if (floor > 0.0) {
    std::erase_if(row, [floor](const dtmc::Transition& t) {
      return t.prob < floor;
    });
    double kept = 0.0;
    for (const auto& t : row) kept += t.prob;
    if (kept > 0.0 && kept != mass) {
      const double scale = mass / kept;
      for (auto& t : row) t.prob *= scale;
    }
  }
}

struct ReferenceBuild {
  dtmc::ExplicitDtmc::Raw raw;
  /// The decoded state table, id order.
  std::vector<dtmc::State> states;
  std::uint32_t reachabilityIterations = 0;
};

inline ReferenceBuild referenceBuild(const dtmc::Model& model,
                                     const dtmc::BuildOptions& options = {}) {
  using dtmc::State;
  using dtmc::Transition;
  std::unordered_map<State, std::uint32_t, util::VecI32Hash> index;
  std::vector<State> states;
  std::vector<std::vector<Transition>> rows;

  const auto internState = [&](const State& s) -> std::uint32_t {
    auto [it, inserted] =
        index.try_emplace(s, static_cast<std::uint32_t>(states.size()));
    if (inserted) {
      if (states.size() >= options.maxStates) {
        throw std::runtime_error("referenceBuild: exceeds maxStates");
      }
      states.push_back(s);
    }
    return it->second;
  };

  std::vector<std::uint32_t> initialIdx;
  for (const auto& s : model.initialStates()) {
    initialIdx.push_back(internState(s));
  }

  ReferenceBuild result;
  std::uint32_t frontierBegin = 0;
  std::vector<Transition> scratch;
  while (frontierBegin < states.size()) {
    const auto frontierEnd = static_cast<std::uint32_t>(states.size());
    ++result.reachabilityIterations;
    for (std::uint32_t s = frontierBegin; s < frontierEnd; ++s) {
      scratch.clear();
      model.transitions(states[s], scratch);
      if (scratch.empty()) scratch.push_back({1.0, states[s]});
      referenceNormalize(scratch, options.probFloor);
      std::vector<Transition> row;
      for (auto& t : scratch) {
        internState(t.target);
        row.push_back(std::move(t));
      }
      rows.resize(states.size());
      rows[s] = std::move(row);
    }
    frontierBegin = frontierEnd;
  }
  rows.resize(states.size());

  dtmc::ExplicitDtmc::Raw& raw = result.raw;
  raw.layout = model.layout();
  raw.rowPtr.push_back(0);
  for (const auto& row : rows) {
    for (const auto& t : row) {
      raw.col.push_back(index.at(t.target));
      raw.val.push_back(t.prob);
    }
    raw.rowPtr.push_back(raw.col.size());
  }
  raw.initial.assign(states.size(), 0.0);
  const double w = 1.0 / static_cast<double>(initialIdx.size());
  for (const auto idx : initialIdx) raw.initial[idx] += w;
  const std::size_t words = raw.layout.words();
  raw.keys.resize(states.size() * words);
  for (std::size_t s = 0; s < states.size(); ++s) {
    if (raw.layout.packInto(states[s], raw.keys.data() + s * words) !=
        dtmc::VarLayout::npos) {
      throw std::runtime_error("referenceBuild: value outside its range");
    }
  }
  result.states = std::move(states);
  return result;
}

}  // namespace mimostat::test
