// Per-layer attribution for the traced run.
//
// Two sources, neither of which changes anything under src/:
//   - the engine's own per-request numbers (PhaseTiming, ReductionStats,
//     EngineStats) from the traced run's untraced timed phase;
//   - the benchmark's spans around direct calls into each layer's public
//     functions, on the inputs of the workload's first requests (the same
//     seeded stream the timed phases draw from). Each such metric is the
//     mean over those replays, so it carries the workload's design mix.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <map>

#include "bench.hpp"
#include "dtmc/builder.hpp"
#include "dtmc/signature.hpp"
#include "la/spmv.hpp"
#include "mc/checker.hpp"
#include "obs/clock.hpp"
#include "obs/trace.hpp"
#include "pctl/parser.hpp"
#include "pctl/plan.hpp"
#include "reduce/reduce.hpp"
#include "smc/smc.hpp"

namespace perfbench {

using namespace mimostat;

namespace {

/// Requests replayed layer by layer, on each design they run on.
constexpr std::size_t kReplays = 2;
/// Minimum wall-clock per la:: kernel measurement (repeated calls).
constexpr double kKernelSeconds = 0.05;
/// Direct smc:: estimate size (the workloads' requests do not sample).
constexpr std::uint64_t kDirectPaths = 256;
/// Direct stats:: SPRT on the bounded formula: error levels, indifference
/// half-width and path cap.
constexpr double kSprtError = 1e-6;
constexpr double kSprtIndifference = 0.05;
constexpr std::uint64_t kSprtMaxPaths = 4096;

/// Forwards every dtmc::Model call to the wrapped model, counting and
/// timing transitions() — the model code (mimo::/viterbi::) as opposed to
/// the explicit build's or the sampler's own work around it.
class CountingModel : public dtmc::Model {
 public:
  explicit CountingModel(const dtmc::Model& inner) : inner_(inner) {}

  [[nodiscard]] std::vector<dtmc::VarSpec> variables() const override {
    return inner_.variables();
  }
  [[nodiscard]] std::vector<dtmc::State> initialStates() const override {
    return inner_.initialStates();
  }
  void transitions(const dtmc::State& s,
                   std::vector<dtmc::Transition>& out) const override {
    const std::uint64_t start = obs::monotonicNanos();
    inner_.transitions(s, out);
    nanos_.fetch_add(obs::monotonicNanos() - start, std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] bool atom(const dtmc::State& s,
                          std::string_view name) const override {
    return inner_.atom(s, name);
  }
  [[nodiscard]] double stateReward(const dtmc::State& s,
                                   std::string_view name) const override {
    return inner_.stateReward(s, name);
  }

  [[nodiscard]] std::uint64_t calls() const { return calls_.load(); }
  /// Summed over threads when a sampler calls concurrently.
  [[nodiscard]] double seconds() const {
    return static_cast<double>(nanos_.load()) * 1e-9;
  }

 private:
  const dtmc::Model& inner_;
  mutable std::atomic<std::uint64_t> calls_{0};
  mutable std::atomic<std::uint64_t> nanos_{0};
};

/// Median seconds per call of `kernel`, repeated for at least
/// kKernelSeconds (and at least five times) after one warm-up call.
double kernelSeconds(const std::function<void()>& kernel) {
  kernel();
  std::vector<double> times;
  const double start = nowSeconds();
  while (times.size() < 5 || nowSeconds() - start < kKernelSeconds) {
    const double t0 = nowSeconds();
    kernel();
    times.push_back(nowSeconds() - t0);
  }
  return median(times);
}

/// Mean of each named value over the replays.
class Replays {
 public:
  void add(const std::string& name, double value) { sums_[name] += value; }
  [[nodiscard]] double mean(const std::string& name) const {
    return sums_.at(name) / static_cast<double>(count_);
  }
  /// Sum over the replays (0 when no replay added the name).
  [[nodiscard]] double sum(const std::string& name) const {
    const auto it = sums_.find(name);
    return it == sums_.end() ? 0.0 : it->second;
  }
  void finishReplay() { ++count_; }

 private:
  std::map<std::string, double> sums_;
  std::size_t count_ = 0;
};

template <typename F>
double spanSeconds(const char* name, F&& f) {
  obs::Span span(name);
  f();
  return span.stopSeconds();
}

double medianOf(const std::vector<Sample>& samples,
                const std::function<double(const Sample&)>& field) {
  std::vector<double> values;
  for (const Sample& s : samples) values.push_back(field(s));
  return median(values);
}

void replay(Workload& workload, const Request& request, std::size_t design,
            engine::ThreadPool& pool, const CopyProbe& copy, Replays& out) {
  const dtmc::Model& model = workload.model(design);
  const engine::RequestOptions& options = request.request.options;
  const la::TaskRunner runner = [&pool](std::vector<std::function<void()>> t) {
    pool.run(std::move(t));
  };

  // dtmc:: — the structural probe the engine runs on every unkeyed
  // request, and the explicit build it runs on every cache miss.
  dtmc::SignatureOptions sigOptions;
  sigOptions.maxStates = options.build.maxStates;
  out.add("dtmc.signature_s", spanSeconds("bench.dtmc.signature", [&] {
            (void)dtmc::modelSignature(model, sigOptions);
          }));
  dtmc::BuildResult build;
  const double buildSeconds = spanSeconds("bench.dtmc.build", [&] {
    build = dtmc::buildExplicit(model, options.build);
  });
  const dtmc::ExplicitDtmc& full = build.dtmc;
  out.add("dtmc.build_s", buildSeconds);
  out.add("dtmc.build_states_per_s", full.numStates() / buildSeconds);
  out.add("dtmc.states", full.numStates());
  out.add("dtmc.transitions", static_cast<double>(full.numTransitions()));
  out.add("dtmc.model_bytes",
          static_cast<double>(engine::approxDtmcBytes(full)));

  // model:: — transitions() as the explicit build calls it.
  const CountingModel counting(model);
  (void)dtmc::buildExplicit(counting, options.build);
  out.add("model.transitions_calls", static_cast<double>(counting.calls()));
  out.add("model.transitions_s", counting.seconds());

  // pctl:: — uncached parse and plan compilation of the request.
  std::vector<pctl::Property> parsed;
  out.add("pctl.parse_s", spanSeconds("bench.pctl.parse", [&] {
            for (const std::string& p : request.request.properties) {
              parsed.push_back(pctl::parseProperty(p));
            }
          }));
  pctl::EvalPlan plan;
  out.add("pctl.plan_s", spanSeconds("bench.pctl.plan", [&] {
            plan = pctl::buildPlan(parsed);
          }));
  out.add("pctl.tasks_planned", static_cast<double>(plan.stats.tasksPlanned));
  out.add("pctl.traversals_saved",
          static_cast<double>(plan.stats.traversalsSaved));

  // reduce:: — the plan-aware quotient seeded by the plan's masks and the
  // request's reward structures, as the engine's reduction stage seeds it.
  const mc::Checker fullChecker(full, model);
  std::vector<la::BitVector> masks;
  for (const auto& mask : plan.masks) {
    masks.push_back(fullChecker.evalStateFormula(*mask));
  }
  std::vector<std::vector<double>> rewards;
  std::vector<std::string> rewardNames;
  for (const pctl::Property& p : parsed) {
    if (p.kind == pctl::Property::Kind::kReward &&
        std::find(rewardNames.begin(), rewardNames.end(),
                  p.reward.rewardName) == rewardNames.end()) {
      rewardNames.push_back(p.reward.rewardName);
      rewards.push_back(full.evalReward(model, p.reward.rewardName));
    }
  }
  std::vector<const la::BitVector*> maskPtrs;
  for (const la::BitVector& m : masks) maskPtrs.push_back(&m);
  std::vector<const std::vector<double>*> rewardPtrs;
  for (const std::vector<double>& r : rewards) rewardPtrs.push_back(&r);
  reduce::ReducedModel reduced;
  out.add("reduce.quotient_s", spanSeconds("bench.reduce.quotient", [&] {
            reduced = reduce::buildQuotient(full, maskPtrs, rewardPtrs,
                                            options.reduction);
          }));
  out.add("reduce.states_after", reduced.info.statesAfter);
  out.add("reduce.refinement_rounds", reduced.info.refinementRounds);

  // mc:: — the plan executed on the substrate the engine would check: the
  // quotient where the engine's reduction stage applies it, else the full
  // chain; groups and la:: kernels on the pool, as in the engine.
  const bool quotientApplies =
      reduce::quotientSelected(options.reduction, full.numStates()) &&
      reduced.info.statesAfter < reduced.info.statesBefore;
  const dtmc::ExplicitDtmc& substrate =
      quotientApplies ? reduced.quotient : full;
  mc::CheckOptions checkOptions;
  checkOptions.exec.runner = runner;
  const mc::Checker checker(substrate, model, checkOptions);
  pctl::PlanStats planStats;
  out.add("mc.check_s", spanSeconds("bench.mc.check", [&] {
            (void)checker.checkAll(parsed, {}, &planStats, runner);
          }));
  out.add("mc.spmm_panels", static_cast<double>(planStats.spmmPanels));
  std::vector<pctl::Property> boundedSubset;
  std::vector<pctl::Property> transientSubset;
  for (const pctl::Property& p : parsed) {
    (p.kind == pctl::Property::Kind::kProb ? boundedSubset : transientSubset)
        .push_back(p);
  }
  out.add("mc.bounded_s", spanSeconds("bench.mc.bounded", [&] {
            (void)checker.checkAll(boundedSubset, {}, nullptr, runner);
          }));
  out.add("mc.transient_s", spanSeconds("bench.mc.transient", [&] {
            (void)checker.checkAll(transientSubset, {}, nullptr, runner);
          }));

  // la:: — the workload's own transition matrix: SpMV and masked SpMM on
  // one thread (per-core rates, against the single-thread copy probe), and
  // masked SpMM once more fanned out over the pool as the engine runs it.
  // Bytes are computed from the arrays a call streams (CSR values + columns
  // + row pointers, input read once, output written once), not measured.
  {
    obs::Span span("bench.la");
    const la::CsrMatrix& matrix = full.matrix();
    const auto n = static_cast<double>(matrix.numRows());
    const auto nnz = static_cast<double>(matrix.numNonZeros());
    const double csrBytes = nnz * (sizeof(double) + sizeof(std::uint32_t)) +
                            (n + 1) * sizeof(std::uint64_t);
    std::vector<double> y;
    const double spmv = kernelSeconds(
        [&] { la::spmvLeft(matrix, full.initialDistribution(), y); });
    const double spmvGbps = (csrBytes + 2 * n * sizeof(double)) / spmv * 1e-9;

    constexpr std::size_t kColumns = 8;
    const la::BitVector error = full.evalAtom(model, "error");
    const std::vector<la::BitVector> columnMasks(kColumns, error);
    std::vector<double> x(matrix.numRows() * kColumns, 0.0);
    for (std::uint32_t s = 0; s < matrix.numRows(); ++s) {
      if (error.get(s)) std::fill_n(x.begin() + s * kColumns, kColumns, 1.0);
    }
    const double spmm = kernelSeconds(
        [&] { la::spmmMasked(matrix, x, kColumns, columnMasks, y); });
    const double maskBytes = kColumns * std::ceil(n / 64.0) * 8.0;
    const double spmmBytes =
        csrBytes + 2 * n * kColumns * sizeof(double) + maskBytes;
    la::Exec pooled;
    pooled.runner = runner;
    const double spmmPool = kernelSeconds(
        [&] { la::spmmMasked(matrix, x, kColumns, columnMasks, y, pooled); });
    const double spmmGbps = spmmBytes / spmm * 1e-9;
    out.add("la.spmv_gbps", spmvGbps);
    out.add("la.spmm_masked_gbps", spmmGbps);
    out.add("la.spmm_masked_pool_gbps", spmmBytes / spmmPool * 1e-9);
    out.add("la.spmv_roofline_frac", spmvGbps / copy.gbps);
    out.add("la.spmm_roofline_frac", spmmGbps / copy.gbps);
  }

  // smc:: / stats:: — a fixed-size estimate and an SPRT decision on the
  // request's (first) bounded formula.
  const pctl::Property boundedProperty =
      pctl::parseProperty("P=? [ F<=" + std::to_string(request.k) + " error ]");
  smc::SmcOptions smcOptions = options.smc;
  smcOptions.paths = kDirectPaths;
  smcOptions.chunkPaths = kDirectPaths / 8;
  smc::SmcEstimate estimate;
  const double estimateSeconds = spanSeconds("bench.smc.estimate", [&] {
    estimate = smc::estimatePathProbability(model, boundedProperty.prob.path,
                                            smcOptions, runner);
  });
  out.add("smc.paths", static_cast<double>(estimate.satisfied.trials()));
  out.add("smc.estimate_s", estimateSeconds);
  out.add("smc.paths_per_s",
          static_cast<double>(estimate.satisfied.trials()) / estimateSeconds);
  smc::SprtOptions sprtOptions = options.sprt;
  sprtOptions.alpha = kSprtError;
  sprtOptions.beta = kSprtError;
  sprtOptions.indifference = kSprtIndifference;
  sprtOptions.maxPaths = kSprtMaxPaths;
  sprtOptions.seed = smcOptions.seed;
  smc::SprtOutcome outcome;
  (void)spanSeconds("bench.stats.sprt", [&] {
    outcome = smc::testPathProbability(
        model, boundedProperty.prob.path, pctl::CmpOp::kGe, 0.5, sprtOptions);
  });
  out.add("stats.sprt_paths_used", static_cast<double>(outcome.pathsUsed));

  // engine:: — the request once more with the key its own answer reports,
  // which skips the structural probe: the engine's overhead without it.
  // The unkeyed call just stored the model and, where the engine's
  // reduction stage runs (mimo_cold), the quotient, so the keyed call is
  // the cache-read path: its ReductionStats time the quotient lookup.
  engine::AnalysisEngine& engine = workload.engine();
  engine::AnalysisRequest unkeyed = request.request;
  unkeyed.model = &model;
  const engine::AnalysisResponse first = engine.analyze(unkeyed);
  engine::AnalysisRequest keyed = unkeyed;
  keyed.options.modelKey = first.modelKey;
  engine::AnalysisResponse second;
  out.add("engine.keyed_request_s", spanSeconds("bench.engine.keyed", [&] {
            second = engine.analyze(keyed);
          }));
  const engine::ReductionStats& lookup = second.reduction;
  if (lookup.statesBefore > 0) {
    out.add("reduce.lookups", 1.0);
    if (lookup.cacheHit) {
      out.add("reduce.quotient_hits", 1.0);
      out.add("reduce.lookup_s", lookup.reduceSeconds);
    }
  }
  out.finishReplay();
}

}  // namespace

std::vector<Metric> layerMetrics(Workload& workload,
                                 const std::vector<Sample>& untraced,
                                 const std::vector<Sample>& traced,
                                 const engine::EngineStats& before,
                                 const engine::EngineStats& after,
                                 engine::ThreadPool& pool,
                                 const CopyProbe& copy) {
  Replays replays;
  Workload::Stream stream = workload.stream();
  for (std::size_t i = 0; i < kReplays; ++i) {
    const Request request = stream.next();
    for (const std::size_t design : request.designs) {
      replay(workload, request, design, pool, copy, replays);
    }
  }

  // Engine phases of the untraced timed requests. The unattributed part
  // is the request as the client timed it minus every named phase, so work
  // outside the phases (the structural probe, sweep assembly) shows.
  const auto phase = [&](double engine::PhaseTiming::*field) {
    return medianOf(untraced,
                    [field](const Sample& s) { return s.response.timing.*field; });
  };
  const double unattributed = medianOf(untraced, [](const Sample& s) {
    const engine::PhaseTiming& t = s.response.timing;
    return s.seconds - t.queueSeconds - t.buildSeconds - t.reduceSeconds -
           t.planSeconds - t.checkSeconds;
  });
  const double builds = static_cast<double>(after.builds - before.builds);
  const double hits = static_cast<double>(after.cacheHits - before.cacheHits);
  // Quotient-cache reads of the replays' keyed requests; 0 on workloads
  // whose requests the reduction stage skips (below its size threshold).
  const double lookups = replays.sum("reduce.lookups");
  const double quotientHits = replays.sum("reduce.quotient_hits");
  const double untracedP50 =
      medianOf(untraced, [](const Sample& s) { return s.seconds; });
  const double tracedP50 =
      medianOf(traced, [](const Sample& s) { return s.seconds; });

  const auto r = [&replays](const std::string& name) {
    return replays.mean(name);
  };
  return {
      {"dtmc.signature_s", r("dtmc.signature_s"), "s"},
      {"dtmc.build_s", r("dtmc.build_s"), "s"},
      {"dtmc.build_states_per_s", r("dtmc.build_states_per_s"), "states/s"},
      {"dtmc.states", r("dtmc.states"), "count"},
      {"dtmc.transitions", r("dtmc.transitions"), "count"},
      {"dtmc.model_bytes", r("dtmc.model_bytes"), "B"},
      {"model.transitions_calls", r("model.transitions_calls"), "count"},
      {"model.transitions_s", r("model.transitions_s"), "s"},
      {"engine.build_phase_s", phase(&engine::PhaseTiming::buildSeconds), "s"},
      {"engine.reduce_phase_s", phase(&engine::PhaseTiming::reduceSeconds),
       "s"},
      {"engine.plan_phase_s", phase(&engine::PhaseTiming::planSeconds), "s"},
      {"engine.check_phase_s", phase(&engine::PhaseTiming::checkSeconds), "s"},
      {"engine.unattributed_s", unattributed, "s"},
      {"engine.keyed_request_s", r("engine.keyed_request_s"), "s"},
      {"engine.cache_hit_ratio", builds + hits > 0 ? hits / (builds + hits) : 0.0,
       "ratio"},
      {"engine.cache_bytes", static_cast<double>(after.cacheBytes), "B"},
      {"reduce.quotient_s", r("reduce.quotient_s"), "s"},
      {"reduce.states_after", r("reduce.states_after"), "count"},
      {"reduce.refinement_rounds", r("reduce.refinement_rounds"), "count"},
      {"reduce.lookup_s",
       quotientHits > 0 ? replays.sum("reduce.lookup_s") / quotientHits : 0.0,
       "s"},
      {"reduce.quotient_hit_ratio", lookups > 0 ? quotientHits / lookups : 0.0,
       "ratio"},
      {"pctl.parse_s", r("pctl.parse_s"), "s"},
      {"pctl.plan_s", r("pctl.plan_s"), "s"},
      {"pctl.tasks_planned", r("pctl.tasks_planned"), "count"},
      {"pctl.traversals_saved", r("pctl.traversals_saved"), "count"},
      {"mc.check_s", r("mc.check_s"), "s"},
      {"mc.bounded_s", r("mc.bounded_s"), "s"},
      {"mc.transient_s", r("mc.transient_s"), "s"},
      {"mc.spmm_panels", r("mc.spmm_panels"), "count"},
      {"la.spmv_gbps", r("la.spmv_gbps"), "GB/s"},
      {"la.spmm_masked_gbps", r("la.spmm_masked_gbps"), "GB/s"},
      {"la.spmm_masked_pool_gbps", r("la.spmm_masked_pool_gbps"), "GB/s"},
      {"la.stream_copy_gbps", copy.gbps, "GB/s"},
      {"la.spmv_roofline_frac", r("la.spmv_roofline_frac"), "ratio"},
      {"la.spmm_roofline_frac", r("la.spmm_roofline_frac"), "ratio"},
      {"smc.paths", r("smc.paths"), "count"},
      {"smc.estimate_s", r("smc.estimate_s"), "s"},
      {"smc.paths_per_s", r("smc.paths_per_s"), "1/s"},
      {"stats.sprt_paths_used", r("stats.sprt_paths_used"), "count"},
      {"sweep.points",
       medianOf(untraced,
                [](const Sample& s) { return static_cast<double>(s.points); }),
       "count"},
      {"sweep.engine_requests",
       medianOf(untraced,
                [](const Sample& s) {
                  return static_cast<double>(s.engineRequests);
                }),
       "count"},
      {"obs.trace_overhead_frac", (tracedP50 - untracedP50) / untracedP50,
       "ratio"},
  };
}

}  // namespace perfbench
