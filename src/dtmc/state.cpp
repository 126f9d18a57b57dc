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
  std::vector<int> width;
  width.reserve(vars_.size());
  for (const auto& v : vars_) {
    assert(v.hi >= v.lo);
    width.push_back(bitsFor(v.rangeSize()));
    totalBits_ += width.back();
  }
  words_ = totalBits_ > 64 ? (static_cast<std::size_t>(totalBits_) + 63) / 64
                           : 1;
  // Variable 0 takes the most significant field; empty fields sit at bit 0
  // of the last word, where they never touch the key.
  fields_.reserve(vars_.size());
  int offset = totalBits_;  // counted from the key's lowest bit
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    offset -= width[i];
    const int low = width[i] == 0 ? 0 : offset;
    Field f;
    f.lo = vars_[i].lo;
    f.hi = vars_[i].hi;
    f.mask = (std::uint64_t{1} << width[i]) - 1;
    f.word = static_cast<std::uint32_t>(words_ - 1 - low / 64);
    f.shift = static_cast<std::uint8_t>(low % 64);
    f.spill = low % 64 + width[i] > 64;
    fields_.push_back(f);
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
  std::fill(key, key + words_, 0);
  if (s.size() != fields_.size()) return fields_.size();
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    const Field& f = fields_[i];
    if (s[i] < f.lo || s[i] > f.hi) return i;
    const auto rel =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(s[i]) - f.lo);
    key[f.word] |= rel << f.shift;
    if (f.spill) key[f.word - 1] |= rel >> (64 - f.shift);
  }
  return npos;
}

void VarLayout::unpackInto(const std::uint64_t* key, State& s) const {
  s.resize(fields_.size());
  for (std::size_t i = 0; i < fields_.size(); ++i) s[i] = valueAt(key, i);
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
