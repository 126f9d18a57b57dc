#include "dtmc/builder.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <tuple>
#include <vector>

#include "dtmc/signature.hpp"
#include "obs/trace.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"

namespace mimostat::dtmc {

namespace {

std::uint64_t fold(std::uint64_t h, std::uint64_t value) {
  return util::hashCombine(h, util::mix64(value));
}

std::uint64_t hashKey(const std::uint64_t* key, std::size_t words) {
  std::uint64_t h = key[0];
  for (std::size_t w = 1; w < words; ++w) h = util::mix64(h) ^ key[w];
  return util::mix64(h);
}

std::string describe(const VarLayout& layout, const State& s) {
  return "state (" + formatState(layout, s) + ")";
}

/// Flat open-addressing index from packed keys to state ids. A slot holds
/// (upper 32 hash bits) | (id + 1), 0 marking it empty; keys stay in the
/// exploration's key table and are compared only when the tags match.
/// Linear probing, power-of-two capacity, regrown at half load by
/// re-hashing the key table in id order.
class KeyIndex {
 public:
  explicit KeyIndex(std::size_t words) : words_(words), slots_(1 << 12, 0) {}

  /// {id, inserted}; a new key gets id `next` (the caller then appends it
  /// to `keys`).
  std::pair<std::uint32_t, bool> intern(const std::uint64_t* key,
                                        const std::vector<std::uint64_t>& keys,
                                        std::uint32_t next) {
    const std::uint64_t h = hashKey(key, words_);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = h & mask; slots_[i] != 0; i = (i + 1) & mask) {
      const auto id = static_cast<std::uint32_t>(slots_[i] - 1);
      if ((slots_[i] >> 32) == (h >> 32) &&
          std::equal(key, key + words_, keys.data() + id * words_)) {
        return {id, false};
      }
    }
    if (2 * (static_cast<std::size_t>(next) + 1) > slots_.size()) {
      slots_.assign(slots_.size() * 2, 0);
      for (std::uint32_t id = 0; id < next; ++id) {
        place(hashKey(keys.data() + id * words_, words_), id);
      }
    }
    place(h, next);
    return {next, true};
  }

 private:
  void place(std::uint64_t h, std::uint32_t id) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = h & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = (h & ~0xFFFFFFFFULL) | (static_cast<std::uint64_t>(id) + 1);
  }

  std::size_t words_;
  std::vector<std::uint64_t> slots_;
};

struct Exploration {
  VarLayout layout;
  std::vector<std::uint64_t> keys;     ///< layout.words() per state, id order
  std::vector<std::uint32_t> initial;  ///< ids of initialStates(), in order
  std::uint64_t numStates = 0;         ///< one past the cap when truncated
  std::uint64_t numTransitions = 0;
  std::uint32_t reachabilityIterations = 0;
  double worstMassDeviation = 0.0;     ///< max |row mass - 1| before flooring
  std::uint64_t signature = 0;
  bool complete = false;
};

/// The one BFS (see builder.hpp). Rows go to csr->rowPtr/col/val when `csr`
/// is set. Past maxStates it throws kStateLimit, or with `truncate` stops
/// with complete=false and the cap folded into the signature.
Exploration explore(const Model& model, std::uint64_t maxStates,
                    double probFloor, ExplicitDtmc::Raw* csr, bool truncate) {
  // State ids are 32-bit (the CSR column type; the index stores id + 1).
  maxStates = std::min<std::uint64_t>(maxStates, 0xFFFFFFFEULL);
  Exploration x;
  x.layout = model.layout();
  const VarLayout& layout = x.layout;
  const std::size_t words = layout.words();

  std::uint64_t h = 0xA11A5E5ULL;
  for (const VarSpec& var : layout.vars()) {
    h = util::hashCombine(h, util::fnv1a(var.name.data(), var.name.size()));
    h = fold(h, static_cast<std::uint32_t>(var.lo) |
                    std::uint64_t{static_cast<std::uint32_t>(var.hi)} << 32);
  }

  // An out-of-range value would alias another state's key: reject it,
  // naming the variable and the state (`from`: the state being expanded).
  const auto pack = [&](const State& s, std::uint64_t* key, const State* from) {
    const std::size_t bad = layout.packInto(s, key);
    if (bad == VarLayout::npos) return;
    const std::string where = from != nullptr
                                  ? "successor of " + describe(layout, *from)
                                  : "initial state";
    if (bad == layout.numVars()) {
      throw BuildError(BuildError::Kind::kOutOfRange,
                       where + " has " + std::to_string(s.size()) + " values");
    }
    const VarSpec& var = layout.vars()[bad];
    throw BuildError(BuildError::Kind::kOutOfRange,
                     where + " sets " + var.name + "=" +
                         std::to_string(s[bad]) + " outside [" +
                         std::to_string(var.lo) + ".." +
                         std::to_string(var.hi) + "]");
  };

  KeyIndex index(words);
  // Interns a packed key into `id`; false once truncated at the cap.
  const auto intern = [&](const std::uint64_t* key, std::uint32_t& id) {
    bool inserted = false;
    std::tie(id, inserted) =
        index.intern(key, x.keys, static_cast<std::uint32_t>(x.numStates));
    if (!inserted) return true;
    x.keys.insert(x.keys.end(), key, key + words);
    if (++x.numStates <= maxStates) return true;
    if (!truncate) {
      throw BuildError(BuildError::Kind::kStateLimit,
                       "more than maxStates = " + std::to_string(maxStates) +
                           " reachable states", maxStates);
    }
    x.signature = fold(h, ~maxStates);
    return false;
  };

  const std::vector<State> initial = model.initialStates();
  if (initial.empty()) {
    throw BuildError(BuildError::Kind::kNoInitialStates,
                     "model has no initial states");
  }
  std::vector<std::uint64_t> key(words);
  for (const State& s : initial) {
    pack(s, key.data(), nullptr);
    std::uint32_t id = 0;
    if (!intern(key.data(), id)) return x;
    x.initial.push_back(id);
    h = fold(h, id);
  }

  struct Entry {  // one successor: probability, offset of its key in rowKeys
    double prob;
    std::uint32_t key;
  };
  State current;
  std::vector<Transition> out;
  std::vector<Entry> row;
  std::vector<std::uint64_t> rowKeys;
  const auto keyOf = [&](const Entry& e) { return rowKeys.data() + e.key; };
  if (csr != nullptr) csr->rowPtr.assign(1, 0);

  // BFS by levels (ids are discovery order) to report RI.
  for (std::uint64_t s = 0; s < x.numStates;) {
    ++x.reachabilityIterations;
    for (const std::uint64_t levelEnd = x.numStates; s < levelEnd; ++s) {
      layout.unpackInto(x.keys.data() + s * words, current);
      out.clear();
      model.transitions(current, out);
      // Transition-less states are absorbing (self-loop), as in
      // smc::PathSampler: both backends answer the same chain.
      if (out.empty()) out.push_back({1.0, current});
      row.clear();
      rowKeys.resize(out.size() * words);
      for (std::size_t i = 0; i < out.size(); ++i) {
        if (!std::isfinite(out[i].prob) || out[i].prob < 0.0) {
          throw BuildError(BuildError::Kind::kBadProbability,
                           describe(layout, current) + " has transition "
                           "probability " + std::to_string(out[i].prob));
        }
        pack(out[i].target, rowKeys.data() + i * words, &current);
        row.push_back({out[i].prob, static_cast<std::uint32_t>(i * words)});
      }

      // Packed-key order is State order, so this sorts, merges and floors
      // exactly as normalizeTransitions does on State targets.
      const double mass =
          normalizeRow(row, probFloor, [&](const Entry& a, const Entry& b) {
            return std::lexicographical_compare(keyOf(a), keyOf(a) + words,
                                                keyOf(b), keyOf(b) + words);
          });
      x.worstMassDeviation =
          std::max(x.worstMassDeviation, std::fabs(mass - 1.0));
      if (row.empty()) {
        throw BuildError(BuildError::Kind::kEmptyRow,
                         "probFloor emptied " + describe(layout, current));
      }

      h = fold(h, row.size());
      for (const Entry& e : row) {
        std::uint32_t id = 0;
        if (!intern(keyOf(e), id)) return x;
        h = fold(fold(h, std::bit_cast<std::uint64_t>(e.prob)), id);
        if (csr != nullptr) {
          csr->col.push_back(id);
          csr->val.push_back(e.prob);
        }
      }
      x.numTransitions += row.size();
      if (csr != nullptr) csr->rowPtr.push_back(csr->col.size());
    }
  }
  x.signature = h;
  x.complete = true;
  return x;
}

}  // namespace

BuildResult buildExplicit(const Model& model, const BuildOptions& options) {
  // Auto-parents to "engine.build" when the engine drives the build.
  obs::Span span("dtmc.build");
  ExplicitDtmc::Raw raw;
  Exploration x =
      explore(model, options.maxStates, options.probFloor, &raw, false);
  if (x.worstMassDeviation > options.massTolerance) {
    MS_LOG_WARN("buildExplicit: worst transition-mass deviation %.3e",
                x.worstMassDeviation);
  }
  raw.keys = std::move(x.keys);
  raw.initial.assign(x.numStates, 0.0);
  const double w = 1.0 / static_cast<double>(x.initial.size());
  for (const std::uint32_t id : x.initial) raw.initial[id] += w;
  raw.layout = std::move(x.layout);

  BuildResult result{ExplicitDtmc::fromRaw(std::move(raw), options.orientation),
                     x.reachabilityIterations, span.stopSeconds(), x.signature};
  MS_LOG_INFO("buildExplicit: %u states, %llu transitions, RI=%u, %.2fs",
              result.dtmc.numStates(),
              static_cast<unsigned long long>(result.dtmc.numTransitions()),
              result.reachabilityIterations, result.buildSeconds);
  return result;
}

CountResult countReachable(const Model& model, std::uint64_t maxStates) {
  obs::Span span("dtmc.countReachable");
  const Exploration x = explore(model, maxStates, 0.0, nullptr, false);
  return {x.numStates, x.numTransitions, x.reachabilityIterations,
          span.stopSeconds()};
}

ModelSignature modelSignature(const Model& model,
                              const SignatureOptions& options) {
  obs::Span span("dtmc.signature");
  const Exploration x = explore(model, options.maxStates, 0.0, nullptr, true);
  return {x.signature, x.complete, x.numStates, x.numTransitions};
}

}  // namespace mimostat::dtmc
