#include "dtmc/builder.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <exception>
#include <functional>
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

/// Packs `s` into `key`. An out-of-range value would alias another
/// state's key: reject it, naming the variable and the state (`from`: the
/// state being expanded, null for an initial state).
void packChecked(const VarLayout& layout, const State& s, std::uint64_t* key,
                 const State* from) {
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
                   where + " sets " + var.name + "=" + std::to_string(s[bad]) +
                       " outside [" + std::to_string(var.lo) + ".." +
                       std::to_string(var.hi) + "]");
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

/// One successor: probability and the offset of its packed key in the
/// owning Rows' key buffer.
struct Entry {
  double prob;
  std::uint32_t key;
};

/// Expanded rows of a run of consecutive states, not yet interned: each
/// row validated, packed, sorted, merged and floored. Cache-line aligned:
/// concurrent chunks append to neighbouring slots.
struct alignas(64) Rows {
  std::vector<Entry> entries;         ///< the rows, concatenated
  std::vector<std::uint64_t> keys;    ///< packed targets the entries name
  std::vector<std::uint32_t> rowEnd;  ///< one past each row's last entry
  double worstMassDeviation = 0.0;
  /// The error of the state after the last complete row; expansion stops
  /// there, and the merge rethrows it once every earlier row is merged.
  std::exception_ptr error;

  void clear() {
    entries.clear();
    keys.clear();
    rowEnd.clear();
    worstMassDeviation = 0.0;
    error = nullptr;
  }
};

/// One thread's expansion scratch, reused from state to state.
struct Scratch {
  State current;
  std::vector<Transition> out;
  std::vector<Entry> row;
};

/// Appends the row of the state packed at `key` to `rows`: the part of the
/// BFS that reads nothing but the model, so it may run on any thread.
/// Throws BuildError for an invalid row, and whatever transitions() throws.
void expand(const Model& model, const VarLayout& layout, double probFloor,
            const std::uint64_t* key, Scratch& scratch, Rows& rows) {
  const std::size_t words = layout.words();
  State& current = scratch.current;
  std::vector<Transition>& out = scratch.out;
  std::vector<Entry>& row = scratch.row;
  layout.unpackInto(key, current);
  out.clear();
  model.transitions(current, out);
  // Transition-less states are absorbing (self-loop), as in
  // smc::PathSampler: both backends answer the same chain.
  if (out.empty()) out.push_back({1.0, current});
  const std::size_t base = rows.keys.size();
  rows.keys.resize(base + out.size() * words);
  row.clear();
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Transition& t = out[i];
    if (!std::isfinite(t.prob) || t.prob < 0.0) {
      throw BuildError(BuildError::Kind::kBadProbability,
                       describe(layout, current) + " has transition "
                       "probability " + std::to_string(t.prob));
    }
    const std::size_t at = base + i * words;
    packChecked(layout, t.target, rows.keys.data() + at, &current);
    row.push_back({t.prob, static_cast<std::uint32_t>(at)});
  }

  // Packed-key order is State order, so this sorts, merges and floors
  // exactly as normalizeTransitions does on State targets.
  const std::uint64_t* keys = rows.keys.data();
  const double mass =
      normalizeRow(row, probFloor, [&](const Entry& a, const Entry& b) {
        return std::lexicographical_compare(keys + a.key, keys + a.key + words,
                                            keys + b.key, keys + b.key + words);
      });
  rows.worstMassDeviation =
      std::max(rows.worstMassDeviation, std::fabs(mass - 1.0));
  if (row.empty()) {
    throw BuildError(BuildError::Kind::kEmptyRow,
                     "probFloor emptied " + describe(layout, current));
  }
  rows.entries.insert(rows.entries.end(), row.begin(), row.end());
  rows.rowEnd.push_back(static_cast<std::uint32_t>(rows.entries.size()));
}

/// Wave-parallel expansion (see builder.hpp). A level of at least
/// kParallelLevel states is expanded in waves, each split into up to
/// kChunks contiguous chunks: first kFirstWave states (one per chunk; the
/// level's row lengths are unknown yet), then waves sized to about
/// kWaveEntries buffered successors at the level's mean row length so far.
/// Smaller levels, and every level without a runner, stay serial.
constexpr std::uint64_t kParallelLevel = 64;
constexpr std::uint64_t kFirstWave = 12;
constexpr std::uint64_t kWaveEntries = 8192;
constexpr std::size_t kChunks = 12;

/// The one BFS (see builder.hpp). Rows go to csr->rowPtr/col/val when `csr`
/// is set. Past maxStates it throws kStateLimit, or with `truncate` stops
/// with complete=false and the cap folded into the signature.
Exploration explore(const Model& model, std::uint64_t maxStates,
                    double probFloor, ExplicitDtmc::Raw* csr, bool truncate,
                    const la::Exec& exec = {}) {
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
    packChecked(layout, s, key.data(), nullptr);
    std::uint32_t id = 0;
    if (!intern(key.data(), id)) return x;
    x.initial.push_back(id);
    h = fold(h, id);
  }

  // Interns, hashes and (for a build) appends expanded rows in order, then
  // rethrows their expansion error; false once truncated.
  const auto merge = [&](const Rows& rows) {
    std::uint32_t begin = 0;
    for (const std::uint32_t end : rows.rowEnd) {
      h = fold(h, end - begin);
      for (std::uint32_t e = begin; e < end; ++e) {
        const Entry& entry = rows.entries[e];
        std::uint32_t id = 0;
        if (!intern(rows.keys.data() + entry.key, id)) return false;
        h = fold(fold(h, std::bit_cast<std::uint64_t>(entry.prob)), id);
        if (csr != nullptr) {
          csr->col.push_back(id);
          csr->val.push_back(entry.prob);
        }
      }
      x.numTransitions += end - begin;
      if (csr != nullptr) csr->rowPtr.push_back(csr->col.size());
      begin = end;
    }
    x.worstMassDeviation =
        std::max(x.worstMassDeviation, rows.worstMassDeviation);
    if (rows.error) std::rethrow_exception(rows.error);
    return true;
  };
  if (csr != nullptr) csr->rowPtr.assign(1, 0);

  Scratch scratch;
  Rows serial;
  // The wave-parallel path double-buffers: while the chunks of one wave
  // expand into their slots, a task merges the previous wave's slots.
  struct Wave {
    std::vector<std::uint64_t> keys;  ///< the wave's own states' keys
    std::vector<Rows> slots;          ///< one per chunk
  };
  std::array<Wave, 2> waves;
  std::vector<std::function<void()>> tasks;

  // BFS by levels (ids are discovery order) to report RI.
  for (std::uint64_t s = 0; s < x.numStates;) {
    ++x.reachabilityIterations;
    const std::uint64_t levelBegin = s;
    const std::uint64_t levelEnd = x.numStates;
    if (exec.runner == nullptr || levelEnd - levelBegin < kParallelLevel) {
      for (; s < levelEnd; ++s) {
        serial.clear();
        expand(model, layout, probFloor, x.keys.data() + s * words, scratch,
               serial);
        if (!merge(serial)) return x;
      }
      continue;
    }
    std::uint64_t levelEntries = 0;  // successors expanded in this level
    Wave* pending = nullptr;         // expanded, not yet merged
    for (std::size_t next = 0; s < levelEnd || pending != nullptr; ++next) {
      tasks.clear();
      Wave* expanding = nullptr;
      if (s < levelEnd) {
        std::uint64_t size = kFirstWave;
        if (s > levelBegin) {
          const std::uint64_t perState =
              std::max<std::uint64_t>(1, levelEntries / (s - levelBegin));
          size = std::max<std::uint64_t>(1, kWaveEntries / perState);
        }
        size = std::min(size, levelEnd - s);
        expanding = &waves[next % 2];
        // A copy: the concurrent merge appends to (and may move) x.keys.
        expanding->keys.assign(x.keys.data() + s * words,
                               x.keys.data() + (s + size) * words);
        const auto chunks =
            static_cast<std::size_t>(std::min<std::uint64_t>(kChunks, size));
        expanding->slots.resize(chunks);
        for (std::size_t c = 0; c < chunks; ++c) {
          const std::uint64_t lo = size * c / chunks;
          const std::uint64_t hi = size * (c + 1) / chunks;
          tasks.emplace_back([&, wave = expanding, c, lo, hi] {
            Rows& rows = wave->slots[c];
            rows.clear();
            // Per task, not per slot: only the running tasks hold scratch.
            Scratch local;
            try {
              for (std::uint64_t t = lo; t < hi; ++t) {
                expand(model, layout, probFloor, wave->keys.data() + t * words,
                       local, rows);
              }
            } catch (...) {
              rows.error = std::current_exception();
            }
          });
        }
        s += size;
      }
      bool truncated = false;
      std::exception_ptr error;
      if (pending != nullptr) {
        const auto mergePending = [&] {
          try {
            for (const Rows& rows : pending->slots) {
              if (!merge(rows)) {
                truncated = true;
                return;
              }
            }
          } catch (...) {
            error = std::current_exception();
          }
        };
        if (tasks.empty()) {
          mergePending();
        } else {
          // First, so the caller (which drains its own batch) starts on it.
          tasks.insert(tasks.begin(), mergePending);
        }
      }
      if (!tasks.empty()) exec.runner(std::move(tasks));
      if (error) std::rethrow_exception(error);
      if (truncated) return x;
      if (expanding != nullptr) {
        for (const Rows& rows : expanding->slots) {
          levelEntries += rows.entries.size();
        }
      }
      pending = expanding;
    }
    // The next level's rows may be much shorter: do not carry this
    // level's buffers through it.
    waves = {};
  }
  x.signature = h;
  x.complete = true;
  return x;
}

}  // namespace

BuildResult buildExplicit(const Model& model, const BuildOptions& options,
                          const la::Exec& exec) {
  // Auto-parents to "engine.build" when the engine drives the build.
  obs::Span span("dtmc.build");
  ExplicitDtmc::Raw raw;
  Exploration x =
      explore(model, options.maxStates, options.probFloor, &raw, false, exec);
  if (x.worstMassDeviation > options.massTolerance) {
    MS_LOG_WARN("buildExplicit: worst transition-mass deviation %.3e",
                x.worstMassDeviation);
  }
  // The arrays grew by push_back: hand over no growth slack, so the
  // resident bytes are the ones engine::approxDtmcBytes counts.
  x.keys.shrink_to_fit();
  raw.rowPtr.shrink_to_fit();
  raw.col.shrink_to_fit();
  raw.val.shrink_to_fit();
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
