// Shared declarations of the request benchmark (see main.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dtmc/model.hpp"
#include "engine/engine.hpp"
#include "engine/thread_pool.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace perfbench {

// ------------------------------------------------------------------ host

/// What a result was measured on.
struct HostInfo {
  unsigned nproc = 0;
  std::string simd;
  std::string compiler;
  std::string buildType;
  long l1dBytes = 0;
  long l2Bytes = 0;
  long llcBytes = 0;
};

[[nodiscard]] HostInfo hostInfo();

/// Same-run single-thread streaming-copy bandwidth (the reference for the
/// single-thread la:: kernel rates). Bytes moved = 2 x array bytes per copy
/// (read + write; write-allocate traffic is not counted).
struct CopyProbe {
  double gbps = 0.0;
  std::uint64_t arrayBytes = 0;
};

inline constexpr std::uint64_t kCopyArrayBytes = 128ull << 20;

[[nodiscard]] CopyProbe streamCopy();

/// Peak resident set of this process so far (getrusage), in MiB.
[[nodiscard]] double peakRssMb();

/// One JSON object line describing the host and the copy probe.
[[nodiscard]] std::string hostJson(const HostInfo& host, unsigned threads,
                                   const CopyProbe& copy);

/// Seconds on the monotonic clock (only differences are meaningful).
[[nodiscard]] double nowSeconds();

/// %.17g of any double, NaN and infinities included (for messages).
[[nodiscard]] std::string formatValue(double value);

// ------------------------------------------------------------- workloads

enum class Kind { kMimoCold, kViterbiCheck };

/// Parses a workload name; false when unknown.
[[nodiscard]] bool parseKind(const std::string& name, Kind& kind);

/// One generated request: the designs it runs on and the engine request
/// (model pointer, properties, options) the library receives.
struct Request {
  /// The designs the request's properties run on, back to back: both of
  /// the workload's. Answers are laid out design by design, in this order.
  std::vector<std::size_t> designs;
  mimostat::engine::AnalysisRequest request;
  /// The bound k of the request's (first) bounded property.
  std::uint64_t k = 0;
};

/// One timed request as the client saw it.
struct Sample {
  Request request;
  double seconds = 0.0;
  /// The engine's answer. viterbi_check's two sweeps are folded into one
  /// response: rows design by design, phase timings summed.
  mimostat::engine::AnalysisResponse response;
  /// Engine requests the call issued (1 for analyze, the runner's count
  /// for sweeps).
  std::uint64_t engineRequests = 0;
  /// Sweep points the call enumerated (= properties for plain requests).
  std::uint64_t points = 0;
};

/// A seeded workload: its designs, its request stream, how a request is
/// issued and how each answer is checked.
class Workload {
 public:
  Workload(Kind kind, std::uint64_t seed, unsigned threads);

  [[nodiscard]] const mimostat::dtmc::Model& model(std::size_t design) const {
    return *models_.at(design);
  }
  [[nodiscard]] mimostat::engine::AnalysisEngine& engine() { return *engine_; }

  /// Fresh models and engine, cache pre-fill and warm-up. Replaces any
  /// earlier set-up, so it can be repeated; returns its own wall-clock
  /// seconds, which exclude releasing the earlier set-up.
  double setUp();

  /// The seeded request stream: the same seed always yields the same
  /// sequence. next() returns the stream's following request.
  class Stream {
   public:
    Stream(const Workload& workload, std::uint64_t seed);
    [[nodiscard]] Request next();

   private:
    const Workload& workload_;
    mimostat::util::Xoshiro256 rng_;
    std::uint64_t index_ = 0;
  };
  [[nodiscard]] Stream stream() const { return Stream(*this, seed_); }

  /// Issue one request and time it. mimo_cold empties the model cache
  /// first, outside the timed region.
  [[nodiscard]] Sample issue(const Request& request);

  /// Check every answer against the workload's reference (computed once,
  /// after the timed phases, for all requests given). Returns the problems
  /// found per sample, in sample order; a right answer has none.
  [[nodiscard]] std::vector<std::vector<std::string>> verify(
      const std::vector<Sample>& samples);

 private:
  [[nodiscard]] std::vector<std::string> checkAnswer(const Sample& sample);

  Kind kind_;
  std::uint64_t seed_;
  unsigned threads_;
  std::vector<std::string> designNames_;
  std::vector<std::shared_ptr<const mimostat::dtmc::Model>> models_;
  std::unique_ptr<mimostat::engine::AnalysisEngine> engine_;
  /// Reference values per design, keyed by property text.
  std::vector<std::map<std::string, double>> reference_;
};

// ---------------------------------------------------------------- layers

/// The traced run's per-layer metrics: engine-phase numbers from the
/// untraced and traced timed phases, and the benchmark's own spans around
/// direct calls into each layer on the workload's first requests.
[[nodiscard]] std::vector<Metric> layerMetrics(
    Workload& workload, const std::vector<Sample>& untraced,
    const std::vector<Sample>& traced,
    const mimostat::engine::EngineStats& before,
    const mimostat::engine::EngineStats& after,
    mimostat::engine::ThreadPool& pool, const CopyProbe& copy);

}  // namespace perfbench
