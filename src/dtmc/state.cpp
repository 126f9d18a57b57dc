#include "dtmc/state.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

namespace mimostat::dtmc {

namespace {
int bitsFor(std::int64_t rangeSize) {
  // Number of bits needed to represent values 0 .. rangeSize-1.
  if (rangeSize <= 1) return 0;
  return 64 - std::countl_zero(static_cast<std::uint64_t>(rangeSize - 1));
}
}  // namespace

VarLayout::VarLayout(const std::vector<VarSpec>& vars) : vars_(vars) {
  bitWidth_.reserve(vars_.size());
  for (const auto& v : vars_) {
    assert(v.hi >= v.lo);
    bitWidth_.push_back(bitsFor(v.rangeSize()));
    totalBits_ += bitWidth_.back();
  }
  // Variable 0 takes the most significant field; empty fields sit at 0,
  // where they never touch the key.
  bitOffset_.reserve(vars_.size());
  int offset = totalBits_;
  for (const int width : bitWidth_) {
    offset -= width;
    bitOffset_.push_back(width == 0 ? 0 : offset);
  }
}

std::size_t VarLayout::indexOf(const std::string& name) const {
  const std::size_t idx = tryIndexOf(name);
  assert(idx != npos && "unknown state variable");
  return idx;
}

std::size_t VarLayout::tryIndexOf(const std::string& name) const {
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    if (vars_[i].name == name) return i;
  }
  return npos;
}

std::size_t VarLayout::packInto(const State& s, std::uint64_t* key) const {
  const std::size_t last = words() - 1;  // the least significant word
  std::fill(key, key + last + 1, 0);
  if (s.size() != vars_.size()) return vars_.size();
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    if (s[i] < vars_[i].lo || s[i] > vars_[i].hi) return i;
    const auto rel = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(s[i]) - vars_[i].lo);
    const int word = bitOffset_[i] / 64;
    const int shift = bitOffset_[i] % 64;
    key[last - word] |= rel << shift;
    if (shift + bitWidth_[i] > 64) key[last - word - 1] |= rel >> (64 - shift);
  }
  return npos;
}

void VarLayout::unpackInto(const std::uint64_t* key, State& s) const {
  const std::size_t last = words() - 1;
  s.resize(vars_.size());
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    const int word = bitOffset_[i] / 64;
    const int shift = bitOffset_[i] % 64;
    std::uint64_t rel = key[last - word] >> shift;
    if (shift + bitWidth_[i] > 64) rel |= key[last - word - 1] << (64 - shift);
    rel &= (1ULL << bitWidth_[i]) - 1;  // widths never exceed 32 bits
    s[i] = static_cast<std::int32_t>(vars_[i].lo +
                                     static_cast<std::int64_t>(rel));
  }
}

double VarLayout::potentialStateCount() const {
  double product = 1.0;
  for (const auto& v : vars_) {
    product *= static_cast<double>(v.rangeSize());
    if (product > 1e18) return 1e18;
  }
  return product;
}

std::string formatState(const VarLayout& layout, const State& s) {
  std::ostringstream os;
  for (std::size_t i = 0; i < layout.numVars(); ++i) {
    if (i != 0) os << ", ";
    os << layout.vars()[i].name << '=' << s[i];
  }
  return os.str();
}

}  // namespace mimostat::dtmc
