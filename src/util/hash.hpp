// Hashing helpers shared by the explicit-state builder, the BDD unique
// tables and the lumping signatures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string_view>
#include <vector>

namespace mimostat::util {

/// FNV-1a over an arbitrary byte range.
[[nodiscard]] inline std::uint64_t fnv1a(const void* data, std::size_t size,
                                         std::uint64_t seed = 0xCBF29CE484222325ULL) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

/// 64-bit finalizer (murmur3 fmix64) — good avalanche for packed keys.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

/// Combine two hashes (boost-style, widened to 64 bits).
[[nodiscard]] constexpr std::uint64_t hashCombine(std::uint64_t a, std::uint64_t b) {
  return a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 12) + (a >> 4));
}

/// Parameter fingerprint (dtmc::Model::fingerprint): a class tag followed
/// by field values — integers widened, doubles as std::bit_cast bit
/// patterns — so any field change changes the hash.
[[nodiscard]] inline std::uint64_t fingerprintOf(
    std::string_view tag, std::initializer_list<std::uint64_t> fields) {
  std::uint64_t h = fnv1a(tag.data(), tag.size());
  for (const std::uint64_t field : fields) h = hashCombine(h, mix64(field));
  return h;
}

/// Hash functor for std::vector<int32_t> (the DTMC state type).
struct VecI32Hash {
  std::size_t operator()(const std::vector<std::int32_t>& v) const {
    return static_cast<std::size_t>(
        fnv1a(v.data(), v.size() * sizeof(std::int32_t)));
  }
};

/// Open-addressing set of packed 64-bit states (the symbolic reachability
/// builder's visited set). Linear probing, power-of-two
/// capacity, grows at 60% load. Value 0 is reserved as the empty marker, so
/// keys are stored with +1 bias; the one key whose bias wraps to the marker
/// (~0) is tracked out of band so every 64-bit key is storable.
class PackedStateSet {
 public:
  explicit PackedStateSet(std::size_t initialCapacity = 1 << 16);

  /// Inserts the key; returns true when newly inserted.
  bool insert(std::uint64_t key);
  [[nodiscard]] bool contains(std::uint64_t key) const;
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return table_.size(); }

 private:
  void grow();

  std::vector<std::uint64_t> table_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  bool hasMaxKey_ = false;
};

inline PackedStateSet::PackedStateSet(std::size_t initialCapacity) {
  std::size_t cap = 16;
  while (cap < initialCapacity) cap <<= 1;
  table_.assign(cap, 0);
  mask_ = cap - 1;
}

inline bool PackedStateSet::insert(std::uint64_t key) {
  if (key == ~0ULL) {  // its bias would wrap to the empty marker
    if (hasMaxKey_) return false;
    hasMaxKey_ = true;
    ++size_;
    return true;
  }
  const std::uint64_t stored = key + 1;  // bias away from the empty marker
  std::size_t idx = static_cast<std::size_t>(mix64(stored)) & mask_;
  while (true) {
    const std::uint64_t slot = table_[idx];
    if (slot == stored) return false;
    if (slot == 0) {
      table_[idx] = stored;
      ++size_;
      if (size_ * 5 > table_.size() * 3) grow();
      return true;
    }
    idx = (idx + 1) & mask_;
  }
}

inline bool PackedStateSet::contains(std::uint64_t key) const {
  if (key == ~0ULL) return hasMaxKey_;
  const std::uint64_t stored = key + 1;
  std::size_t idx = static_cast<std::size_t>(mix64(stored)) & mask_;
  while (true) {
    const std::uint64_t slot = table_[idx];
    if (slot == stored) return true;
    if (slot == 0) return false;
    idx = (idx + 1) & mask_;
  }
}

inline void PackedStateSet::grow() {
  std::vector<std::uint64_t> old;
  old.swap(table_);
  table_.assign(old.size() * 2, 0);
  mask_ = table_.size() - 1;
  size_ = hasMaxKey_ ? 1 : 0;  // the out-of-band key survives the rehash
  for (std::uint64_t slot : old) {
    if (slot != 0) insert(slot - 1);
  }
}

}  // namespace mimostat::util
