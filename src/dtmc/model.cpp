#include "dtmc/model.hpp"

#include <cassert>

namespace mimostat::dtmc {

bool Model::atom(const State& /*s*/, std::string_view /*name*/) const {
  return false;
}

double Model::stateReward(const State& /*s*/, std::string_view /*name*/) const {
  return 0.0;
}

double normalizeTransitions(std::vector<Transition>& transitions, double floor) {
  [[maybe_unused]] const bool wasEmpty = transitions.empty();
  const double mass = normalizeRow(
      transitions, floor, [](const Transition& a, const Transition& b) {
        return a.target < b.target;
      });
  assert((wasEmpty || !transitions.empty()) &&
         "probability floor removed all transitions");
  return mass;
}

}  // namespace mimostat::dtmc
