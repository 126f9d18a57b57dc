// Graph-theoretic analysis of a DTMC's underlying digraph:
// strongly connected components (iterative Tarjan), irreducibility,
// periodicity, and bottom SCCs. These back the paper's §III claim that the
// models are finite, irreducible and aperiodic and therefore reach steady
// state.
#pragma once

#include <cstdint>
#include <vector>

#include "dtmc/explicit_dtmc.hpp"
#include "la/bit_vector.hpp"

namespace mimostat::dtmc {

struct SccDecomposition {
  /// Component id per state (components are numbered in reverse topological
  /// order: an edge between components always goes from a higher id to a
  /// lower id).
  std::vector<std::uint32_t> componentOf;
  std::uint32_t numComponents = 0;
  /// Component ids with no outgoing edges to other components (closed /
  /// recurrent classes).
  std::vector<std::uint32_t> bottomComponents;
};

[[nodiscard]] SccDecomposition computeSccs(const ExplicitDtmc& dtmc);

/// True when the chain's digraph is a single SCC.
[[nodiscard]] bool isIrreducible(const ExplicitDtmc& dtmc);

/// Period of an irreducible chain: gcd over all edges (u,v) of
/// level[u] + 1 - level[v] where level is any BFS layering. Returns 1 for
/// aperiodic chains. Precondition: chain is irreducible.
[[nodiscard]] std::uint32_t chainPeriod(const ExplicitDtmc& dtmc);

/// States from which the given target set is reachable (backward closure),
/// walked on the matrix's resident transpose (throws std::logic_error on a
/// kOriginalOnly build).
[[nodiscard]] la::BitVector backwardReachable(const ExplicitDtmc& dtmc,
                                              const la::BitVector& target);

/// States reachable from the given set along forward edges.
[[nodiscard]] la::BitVector forwardReachable(const ExplicitDtmc& dtmc,
                                             const la::BitVector& from);

}  // namespace mimostat::dtmc
