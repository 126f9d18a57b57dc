#include "lump/bisim.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <unordered_map>

#include "obs/trace.hpp"
#include "util/hash.hpp"

namespace mimostat::lump {

namespace {

/// Chunks of one parallel signature round (see lump()).
constexpr std::size_t kChunks = 12;

/// Hash of a state's signature: sorted (target block, bucketed prob) pairs,
/// merged per block.
std::uint64_t signatureHash(const dtmc::ExplicitDtmc& dtmc, std::uint32_t s,
                            const std::vector<std::uint32_t>& blockOf,
                            double resolution,
                            std::vector<std::pair<std::uint32_t, double>>& scratch) {
  scratch.clear();
  for (std::uint64_t k = dtmc.rowPtr()[s]; k < dtmc.rowPtr()[s + 1]; ++k) {
    scratch.emplace_back(blockOf[dtmc.col()[k]], dtmc.val()[k]);
  }
  std::sort(scratch.begin(), scratch.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::uint64_t hash = 0x9E3779B97F4A7C15ULL;
  std::size_t i = 0;
  while (i < scratch.size()) {
    const std::uint32_t block = scratch[i].first;
    double prob = 0.0;
    while (i < scratch.size() && scratch[i].first == block) {
      prob += scratch[i].second;
      ++i;
    }
    const auto bucket =
        static_cast<std::int64_t>(std::llround(prob / resolution));
    hash = util::hashCombine(hash, util::mix64(block));
    hash = util::hashCombine(hash, util::mix64(static_cast<std::uint64_t>(bucket)));
  }
  return hash;
}

}  // namespace

InitialKeys keysFromRewardAndLabels(
    const std::vector<double>& reward,
    const std::vector<la::BitVector>& labels,
    double rewardResolution) {
  InitialKeys keys(reward.size());
  for (std::size_t s = 0; s < reward.size(); ++s) {
    const auto bucket =
        static_cast<std::int64_t>(std::llround(reward[s] / rewardResolution));
    std::uint64_t key = util::mix64(static_cast<std::uint64_t>(bucket));
    for (std::size_t l = 0; l < labels.size(); ++l) {
      assert(labels[l].size() == reward.size());
      key = util::hashCombine(key, labels[l].get(s) ? l + 1 : 0);
    }
    keys[s] = key;
  }
  return keys;
}

InitialKeys keysFromMasksAndRewards(
    std::size_t numStates, const std::vector<const la::BitVector*>& masks,
    const std::vector<const std::vector<double>*>& rewards,
    double rewardResolution) {
  InitialKeys keys(numStates, 0x9E3779B97F4A7C15ULL);
  for (std::size_t m = 0; m < masks.size(); ++m) {
    assert(masks[m] != nullptr && masks[m]->size() == numStates);
    for (std::size_t s = 0; s < numStates; ++s) {
      keys[s] = util::hashCombine(keys[s], masks[m]->get(s) ? m + 1 : 0);
    }
  }
  for (const std::vector<double>* reward : rewards) {
    assert(reward != nullptr && reward->size() == numStates);
    for (std::size_t s = 0; s < numStates; ++s) {
      const auto bucket = static_cast<std::int64_t>(
          std::llround((*reward)[s] / rewardResolution));
      keys[s] = util::hashCombine(
          keys[s], util::mix64(static_cast<std::uint64_t>(bucket)));
    }
  }
  return keys;
}

LumpResult lump(const dtmc::ExplicitDtmc& dtmc, InitialKeys keys,
                const LumpOptions& options, const la::Exec& exec) {
  obs::Span span("lump.bisim");
  const std::uint32_t n = dtmc.numStates();
  assert(keys.size() == n);

  LumpResult result;
  std::vector<std::uint32_t>& blockOf = result.partition.blockOf;
  blockOf.assign(n, 0);

  // Block ids in ascending state order of first appearance, so the block
  // map does not depend on how the keys were computed. The keys already
  // hold everything the new ids depend on, so blockOf is rewritten in
  // place.
  const auto assignBlocks = [&](std::size_t expected) {
    std::unordered_map<std::uint64_t, std::uint32_t> blockIds;
    blockIds.reserve(expected);
    for (std::uint32_t s = 0; s < n; ++s) {
      auto [it, inserted] = blockIds.try_emplace(
          keys[s], static_cast<std::uint32_t>(blockIds.size()));
      blockOf[s] = it->second;
    }
    return static_cast<std::uint32_t>(blockIds.size());
  };

  // Initial partition from the keys.
  result.partition.numBlocks = assignBlocks(0);

  // Signature refinement to fixpoint. Each round's (block, signature) keys
  // overwrite the initial keys' storage; with a runner they are computed in
  // chunks of about equal nonzeros, each chunk with its own scratch.
  const auto& rowPtr = dtmc.rowPtr();
  const std::size_t chunks =
      exec.parallelFor(dtmc.numTransitions()) ? kChunks : 1;
  std::vector<std::uint32_t> chunkBegin(chunks + 1, n);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::uint64_t nnz = dtmc.numTransitions() * c / chunks;
    chunkBegin[c] = static_cast<std::uint32_t>(
        std::lower_bound(rowPtr.begin(), rowPtr.end() - 1, nnz) -
        rowPtr.begin());
  }
  const auto signChunk = [&](std::size_t c) {
    // Task-local: neighbouring chunks' scratch would share cache lines.
    std::vector<std::pair<std::uint32_t, double>> scratch;
    for (std::uint32_t s = chunkBegin[c]; s < chunkBegin[c + 1]; ++s) {
      const std::uint64_t sig =
          signatureHash(dtmc, s, blockOf, options.probResolution, scratch);
      keys[s] = util::hashCombine(util::mix64(blockOf[s]), sig);
    }
  };
  std::vector<std::function<void()>> tasks;
  for (std::uint32_t round = 0; round < options.maxRefinementRounds; ++round) {
    ++result.refinementRounds;
    if (chunks == 1) {
      signChunk(0);
    } else {
      tasks.clear();
      for (std::size_t c = 0; c < chunks; ++c) {
        tasks.emplace_back([&signChunk, c] { signChunk(c); });
      }
      exec.runner(std::move(tasks));
    }
    const std::uint32_t newCount =
        assignBlocks(std::size_t{result.partition.numBlocks} * 2);
    if (newCount == result.partition.numBlocks) break;
    result.partition.numBlocks = newCount;
  }

  // Representatives: first state of each block.
  result.representative.assign(result.partition.numBlocks, ~0u);
  for (std::uint32_t s = 0; s < n; ++s) {
    if (result.representative[blockOf[s]] == ~0u) {
      result.representative[blockOf[s]] = s;
    }
  }

  // Quotient matrix: aggregate each representative's row per target block.
  dtmc::ExplicitDtmc::Raw raw;
  raw.layout = dtmc.varLayout();
  raw.rowPtr.reserve(result.partition.numBlocks + 1);
  raw.rowPtr.push_back(0);
  std::vector<double> rowAccum(result.partition.numBlocks, 0.0);
  std::vector<std::uint32_t> touched;
  for (std::uint32_t b = 0; b < result.partition.numBlocks; ++b) {
    const std::uint32_t rep = result.representative[b];
    touched.clear();
    for (std::uint64_t k = dtmc.rowPtr()[rep]; k < dtmc.rowPtr()[rep + 1]; ++k) {
      const std::uint32_t tb = blockOf[dtmc.col()[k]];
      if (rowAccum[tb] == 0.0) touched.push_back(tb);
      rowAccum[tb] += dtmc.val()[k];
    }
    std::sort(touched.begin(), touched.end());
    for (const std::uint32_t tb : touched) {
      raw.col.push_back(tb);
      raw.val.push_back(rowAccum[tb]);
      rowAccum[tb] = 0.0;
    }
    raw.rowPtr.push_back(raw.col.size());
  }

  // Initial distribution: block mass = sum of member masses.
  raw.initial.assign(result.partition.numBlocks, 0.0);
  for (std::uint32_t s = 0; s < n; ++s) {
    raw.initial[blockOf[s]] += dtmc.initialDistribution()[s];
  }

  // Quotient state table: the representatives' keys (keeps VarCmp
  // properties usable).
  const std::size_t words = raw.layout.words();
  raw.keys.reserve(result.partition.numBlocks * words);
  for (std::uint32_t b = 0; b < result.partition.numBlocks; ++b) {
    const std::uint64_t* key = dtmc.key(result.representative[b]);
    raw.keys.insert(raw.keys.end(), key, key + words);
  }

  result.quotient = dtmc::ExplicitDtmc::fromRaw(std::move(raw));
  result.seconds = span.stopSeconds();
  return result;
}

}  // namespace mimostat::lump
