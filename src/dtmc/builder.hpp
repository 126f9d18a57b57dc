// Explicit-state exploration: the library's one breadth-first search over
// Model::transitions, behind buildExplicit, countReachable and
// modelSignature (signature.hpp).
//
// States are keyed by their VarLayout-packed words in a flat open-addressing
// index (key -> id, ids in BFS discovery order), so each successor is packed
// and looked up once. Every row is validated (finite, non-negative
// probabilities; values inside their declared ranges), sorted and merged on
// packed keys (the order of State's operator<), optionally floored, folded
// into a signature hash (row length, probability bits, target ids) and, for
// a build, appended straight to the CSR arrays. Probe and build thus hash
// the same stream: with probFloor 0, BuildResult::signature ==
// modelSignature(model).hash. A build hands its key table over as the
// ExplicitDtmc's state table without decoding it (see explicit_dtmc.hpp for
// the decode-on-demand accessors). The BFS depth at which no new states
// appear is PRISM's "reachability iterations" (RI) of the paper's Tables
// III-V.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "dtmc/explicit_dtmc.hpp"
#include "dtmc/model.hpp"
#include "la/csr_matrix.hpp"
#include "la/exec.hpp"

namespace mimostat::dtmc {

struct BuildOptions {
  /// Abort when the reachable set exceeds this size.
  std::uint64_t maxStates = 20'000'000;
  /// Drop transitions with probability below this and renormalize
  /// (PRISM-style 1e-15 discard when set; 0 disables).
  double probFloor = 0.0;
  /// Warn when a row's probability mass deviates from 1 by more than this.
  double massTolerance = 1e-9;
  /// Which CSR orientations the built matrix keeps resident (kBoth, the
  /// default, doubles matrix bytes over a single orientation). Forward-only
  /// sweeps (transient R=?[I=T]/R=?[C<=T], steady state) read the transpose
  /// and can build kTransposeOnly to halve the model-cache footprint;
  /// bounded path formulas and unbounded value iteration advance through
  /// the original rows and *refuse* (clear per-property error, no silent
  /// rebuild) on a transpose-only model. The engine folds this into its
  /// cache key, so differently-oriented builds never share an entry.
  la::KeepOrientation orientation = la::KeepOrientation::kBoth;
};

/// A model the exploration cannot turn into a valid chain; a request-level
/// error in the engine. kStateLimit also tells a capped build that the
/// reachable set outgrew its cap.
class BuildError : public std::runtime_error {
 public:
  enum class Kind {
    kNoInitialStates,
    kStateLimit,       ///< more than stateLimit() reachable states
    kOutOfRange,       ///< a value outside [lo, hi], or a wrong-arity state
    kBadProbability,   ///< a negative or non-finite probability
    kEmptyRow,         ///< probFloor dropped every transition of a state
  };

  BuildError(Kind kind, const std::string& message, std::uint64_t limit = 0)
      : std::runtime_error("model exploration: " + message),
        kind_(kind), stateLimit_(limit) {}

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] std::uint64_t stateLimit() const { return stateLimit_; }

 private:
  Kind kind_;
  std::uint64_t stateLimit_;
};

struct BuildResult {
  ExplicitDtmc dtmc;
  /// BFS depth at which the reachable set stopped growing (PRISM's RI).
  std::uint32_t reachabilityIterations = 0;
  /// Wall-clock seconds spent building.
  double buildSeconds = 0.0;
  /// The exploration's structural signature (see the file comment).
  std::uint64_t signature = 0;
};

/// Build the reachable explicit DTMC for a model. Throws BuildError (a
/// std::runtime_error) when the model is invalid or maxStates is exceeded.
///
/// With a runner in `exec` (only its runner is read), each BFS level of at
/// least 64 states is expanded in waves of contiguous chunks on the runner:
/// a chunk unpacks its states, calls Model::transitions (which must be
/// safe to call concurrently, see model.hpp), validates, packs and
/// normalizes their rows. The calling thread then merges the rows in id
/// order — interning, signature folding, CSR appends — exactly as the
/// serial BFS does, and rethrows a chunk's error only once every earlier
/// row is merged. So the first error in BFS order wins (a kStateLimit on
/// an earlier row beats a bad probability on a later one), and the
/// result — every CSR and key byte, the signature and the RI — is
/// identical with no runner and at any pool size.
[[nodiscard]] BuildResult buildExplicit(const Model& model,
                                        const BuildOptions& options = {},
                                        const la::Exec& exec = {});

struct CountResult {
  std::uint64_t numStates = 0;
  std::uint64_t numTransitions = 0;
  std::uint32_t reachabilityIterations = 0;
  double buildSeconds = 0.0;
};

/// Count reachable states and transitions without materializing the matrix
/// (memory: the packed key table and its index). Throws BuildError when the
/// model is invalid or maxStates is exceeded.
[[nodiscard]] CountResult countReachable(const Model& model,
                                         std::uint64_t maxStates = 200'000'000);

}  // namespace mimostat::dtmc
