// DTMC state representation.
//
// A state is a full assignment of values to the model's state variables
// (paper §IV-A-1). Models see it as a flat int32 vector; the explicit-state
// exploration keys it as a VarLayout-packed run of uint64 words, with
// variable 0 in the most significant bits so that numeric key order equals
// lexicographic State order.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace mimostat::dtmc {

using State = std::vector<std::int32_t>;

/// Declaration of one state variable: name plus inclusive integer range.
struct VarSpec {
  std::string name;
  std::int32_t lo = 0;
  std::int32_t hi = 1;

  [[nodiscard]] std::int64_t rangeSize() const {
    return static_cast<std::int64_t>(hi) - lo + 1;
  }
};

/// Bit-packing layout derived from a variable list. A packed key is
/// words() uint64 words; the fields sit right-aligned in the key (word 0 is
/// the most significant word), variable 0 first, so comparing keys word by
/// word orders them exactly as `State`'s lexicographic operator<.
class VarLayout {
 public:
  VarLayout() = default;
  explicit VarLayout(const std::vector<VarSpec>& vars);

  [[nodiscard]] bool fitsInU64() const { return totalBits_ <= 64; }
  [[nodiscard]] int totalBits() const { return totalBits_; }
  [[nodiscard]] std::size_t numVars() const { return vars_.size(); }
  [[nodiscard]] const std::vector<VarSpec>& vars() const { return vars_; }

  /// Index of a variable by name; asserts on unknown names.
  [[nodiscard]] std::size_t indexOf(const std::string& name) const;
  /// Index of a variable by name, or npos when absent.
  [[nodiscard]] std::size_t tryIndexOf(const std::string& name) const;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Words per packed key (at least 1).
  [[nodiscard]] std::size_t words() const { return words_; }
  /// Packs `s` into words() words at `key`. Returns npos, or the first
  /// variable outside its declared range (numVars(): wrong arity).
  [[nodiscard]] std::size_t packInto(const State& s, std::uint64_t* key) const;
  void unpackInto(const std::uint64_t* key, State& s) const;
  /// Value of variable `var` in the packed key at `key`.
  [[nodiscard]] std::int32_t valueAt(const std::uint64_t* key,
                                     std::size_t var) const {
    const Field& f = fields_[var];
    std::uint64_t rel = key[f.word] >> f.shift;
    if (f.spill) rel |= key[f.word - 1] << (64 - f.shift);
    return static_cast<std::int32_t>(f.lo + static_cast<std::int64_t>(
                                                rel & f.mask));
  }
  /// Single-word forms (fitsInU64() layouts, in-range states).
  [[nodiscard]] std::uint64_t pack(const State& s) const {
    std::uint64_t key = 0;
    [[maybe_unused]] const std::size_t bad = packInto(s, &key);
    assert(fitsInU64() && bad == npos);
    return key;
  }
  [[nodiscard]] State unpack(std::uint64_t key) const {
    State s;
    unpackInto(&key, s);
    return s;
  }

  /// Log2-style upper bound on the number of syntactically possible states
  /// (product of variable ranges), saturating at ~1e18.
  [[nodiscard]] double potentialStateCount() const;

 private:
  /// One variable's place in the key, precomputed so packing and decoding
  /// never touch VarSpec (which carries the name).
  struct Field {
    std::int32_t lo = 0;
    std::int32_t hi = 0;
    std::uint64_t mask = 0;  ///< (1 << width) - 1; widths never exceed 32
    std::uint32_t word = 0;  ///< key word holding the field's low bits
    std::uint8_t shift = 0;  ///< the field's lowest bit within that word
    bool spill = false;      ///< the high bits continue in key[word - 1]
  };

  std::vector<VarSpec> vars_;
  std::vector<Field> fields_;
  int totalBits_ = 0;
  std::size_t words_ = 1;
};

/// Render a state as "var=value, ..." for diagnostics.
[[nodiscard]] std::string formatState(const VarLayout& layout, const State& s);

}  // namespace mimostat::dtmc
