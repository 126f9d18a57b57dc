// Explicit-state DTMC: the transition matrix as an owned la::CsrMatrix
// (blocked layout + stable transpose) plus the packed state table, initial
// distribution, and the model-facing atom/reward evaluation hooks.
//
// The state table is the exploration's own key table: varLayout().words()
// uint64 words per state, in state-id order, with no per-state heap object.
// States are decoded on demand — state(i) returns a fresh State,
// stateInto(i, s) refills a caller's scratch State in loops, and
// varValue(i, v) reads one field straight from the key.
//
// All numeric access goes through the la:: layer: multiplyLeft/multiplyRight
// are thin forwarders to la::spmvLeft/la::spmv and accept an optional
// la::Exec to fan the product out over a thread pool (bit-identical results
// at any pool size — see la/spmv.hpp for the determinism contract).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dtmc/model.hpp"
#include "dtmc/state.hpp"
#include "la/bit_vector.hpp"
#include "la/csr_matrix.hpp"
#include "la/exec.hpp"

namespace mimostat::dtmc {

class ExplicitDtmc {
 public:
  /// Number of states.
  [[nodiscard]] std::uint32_t numStates() const { return matrix_.numRows(); }
  /// Number of nonzero transitions.
  [[nodiscard]] std::uint64_t numTransitions() const {
    return matrix_.numNonZeros();
  }

  /// The transition matrix (CSR with block table and stable transpose).
  [[nodiscard]] const la::CsrMatrix& matrix() const { return matrix_; }

  /// CSR accessors (forwarders into matrix()).
  [[nodiscard]] const std::vector<std::uint64_t>& rowPtr() const {
    return matrix_.rowPtr();
  }
  [[nodiscard]] const std::vector<std::uint32_t>& col() const {
    return matrix_.col();
  }
  [[nodiscard]] const std::vector<double>& val() const {
    return matrix_.val();
  }

  /// Initial distribution over states (sums to 1).
  [[nodiscard]] const std::vector<double>& initialDistribution() const {
    return initial_;
  }

  /// Variable layout of the source model.
  [[nodiscard]] const VarLayout& varLayout() const { return layout_; }

  /// Packed state table: varLayout().words() words per state, id order.
  [[nodiscard]] const std::vector<std::uint64_t>& keys() const {
    return keys_;
  }
  /// Packed key of state `idx` (varLayout().words() words).
  [[nodiscard]] const std::uint64_t* key(std::uint32_t idx) const {
    return keys_.data() + idx * layout_.words();
  }

  /// State `idx`, decoded from its key.
  [[nodiscard]] State state(std::uint32_t idx) const {
    State s;
    stateInto(idx, s);
    return s;
  }
  /// Decodes state `idx` into `s`, reusing its storage.
  void stateInto(std::uint32_t idx, State& s) const {
    layout_.unpackInto(key(idx), s);
  }

  /// Value of variable `varIdx` in state `stateIdx`, read from the key.
  [[nodiscard]] std::int32_t varValue(std::uint32_t stateIdx,
                                      std::size_t varIdx) const {
    return layout_.valueAt(key(stateIdx), varIdx);
  }

  /// Per-state truth set of an atomic proposition (packed, one bit per
  /// state), evaluated through the source model's atom() hook.
  [[nodiscard]] la::BitVector evalAtom(const Model& model,
                                       std::string_view name) const;

  /// Per-state reward vector from the source model.
  [[nodiscard]] std::vector<double> evalReward(const Model& model,
                                               std::string_view name) const;

  /// Verify every row sums to 1 within `tol`; returns the worst deviation.
  [[nodiscard]] double maxRowDeviation() const;

  /// y = x * P (row vector times matrix). x.size()==numStates. Results are
  /// bit-identical with or without an exec runner.
  void multiplyLeft(const std::vector<double>& x, std::vector<double>& y,
                    const la::Exec& exec = {}) const;

  /// y = P * x (matrix times column vector) — used by bounded-until backward
  /// iterations.
  void multiplyRight(const std::vector<double>& x, std::vector<double>& y,
                     const la::Exec& exec = {}) const;

  // --- construction (used by Builder) ---
  struct Raw {
    std::vector<std::uint64_t> rowPtr;
    std::vector<std::uint32_t> col;
    std::vector<double> val;
    std::vector<double> initial;
    /// layout.words() words per state (VarLayout::packInto), id order.
    std::vector<std::uint64_t> keys;
    VarLayout layout;
  };
  /// `keep` controls which CSR orientations stay resident (see
  /// la::KeepOrientation); a dropped orientation's accessors throw, and
  /// checkers that need it refuse with a clear error instead of rebuilding.
  static ExplicitDtmc fromRaw(Raw raw,
                              la::KeepOrientation keep =
                                  la::KeepOrientation::kBoth);

 private:
  la::CsrMatrix matrix_;
  std::vector<double> initial_;
  std::vector<std::uint64_t> keys_;
  VarLayout layout_;
};

}  // namespace mimostat::dtmc
