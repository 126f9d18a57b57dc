// The two seeded workloads: designs, request streams, the timed call and
// the answer checks (see main.cpp for why each workload exists).
#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "dtmc/builder.hpp"
#include "mc/checker.hpp"
#include "mimo/model.hpp"
#include "sweep/runner.hpp"
#include "viterbi/model_reduced.hpp"

namespace perfbench {

using namespace mimostat;

namespace {

/// mimo_cold answers are checked against the unreduced chain within the
/// tolerance reduce:: documents for strong lumping (FP accumulation order).
constexpr double kQuotientTolerance = 1e-9;

std::string horizon(std::uint64_t t) {
  return "R=? [ I=" + std::to_string(t) + " ]";
}

std::string bounded(std::uint64_t k) {
  return "P=? [ F<=" + std::to_string(k) + " error ]";
}

/// `count` distinct values from lo, lo+step, ..., hi in ascending order.
std::vector<std::uint64_t> distinctDraw(util::Xoshiro256& rng,
                                        std::uint64_t lo, std::uint64_t hi,
                                        std::uint64_t step,
                                        std::size_t count) {
  std::vector<std::uint64_t> pool;
  for (std::uint64_t v = lo; v <= hi; v += step) pool.push_back(v);
  for (std::size_t i = 0; i < count; ++i) {
    std::swap(pool[i], pool[i + rng.nextBounded(pool.size() - i)]);
  }
  pool.resize(count);
  std::sort(pool.begin(), pool.end());
  return pool;
}

}  // namespace

bool parseKind(const std::string& name, Kind& kind) {
  static const std::map<std::string, Kind> kinds{
      {"mimo_cold", Kind::kMimoCold},
      {"viterbi_check", Kind::kViterbiCheck},
  };
  const auto it = kinds.find(name);
  if (it == kinds.end()) return false;
  kind = it->second;
  return true;
}

Workload::Workload(Kind kind, std::uint64_t seed, unsigned threads)
    : kind_(kind), seed_(seed), threads_(threads) {
  designNames_ = kind_ == Kind::kMimoCold
                     ? std::vector<std::string>{"1x2", "1x4"}
                     : std::vector<std::string>{"L6", "L7"};
}

double Workload::setUp() {
  engine_.reset();
  models_.clear();
  const double start = nowSeconds();
  if (kind_ == Kind::kViterbiCheck) {
    for (const int length : {6, 7}) {
      viterbi::ViterbiParams params;  // Table III: SNR 5 dB
      params.tracebackLength = length;
      models_.push_back(std::make_shared<viterbi::ReducedViterbiModel>(params));
    }
  } else {
    models_.push_back(
        std::make_shared<mimo::MimoDetectorModel>(mimo::mimo1x2Params()));
    models_.push_back(
        std::make_shared<mimo::MimoDetectorModel>(mimo::mimo1x4Params()));
  }
  engine::EngineOptions options;
  options.threads = threads_;
  engine_ = std::make_unique<engine::AnalysisEngine>(options);

  // Requests, each on every design, from a stream the timed phase never
  // draws: viterbi_check's first builds (the cache pre-fill), a second
  // warms the cache-hit path itself.
  const int rounds = kind_ == Kind::kViterbiCheck ? 2 : 1;
  Stream warm(*this, ~seed_);
  for (int round = 0; round < rounds; ++round) {
    const Sample sample = issue(warm.next());
    if (!sample.response.ok()) {
      throw std::runtime_error("warm-up request failed: " +
                               sample.response.error);
    }
  }
  return nowSeconds() - start;
}

Workload::Stream::Stream(const Workload& workload, std::uint64_t seed)
    : workload_(workload), rng_(seed) {}

Request Workload::Stream::next() {
  Request r;
  // Every request runs on both of the workload's designs, so that every
  // request does the same work: the designs' latencies differ 1.3-3x, and
  // over a seeded mix of them the median and the tail sit at the edge of a
  // latency cluster, where they jump with the mix and with the host's speed
  // during part of a run.
  r.designs = {0, 1};
  std::vector<std::string>& properties = r.request.properties;
  switch (workload_.kind_) {
    case Kind::kMimoCold: {
      const std::uint64_t t = 2 + rng_.nextBounded(63);  // T in [2, 64]
      r.k = 3 + rng_.nextBounded(28);                    // k in [3, 30]
      properties = {horizon(t), bounded(r.k)};
      break;
    }
    case Kind::kViterbiCheck: {
      // 8 bounded formulas (one masked SpMM traversal to k = 64) and 10
      // horizons (one transient sweep to T = 3000) on each decoder size. The
      // maxima are fixed so every request does the same number of steps.
      // Requests this long (~0.8 s) put request_tail_s at ~p80 of a run's
      // ~50: at T = 1000 (~120 requests, ~p92) it followed the few slowest
      // seconds of the host and spread 0.21 over ten runs.
      std::vector<std::uint64_t> ks = distinctDraw(rng_, 1, 63, 1, 7);
      ks.push_back(64);
      std::vector<std::uint64_t> ts = distinctDraw(rng_, 100, 2900, 100, 9);
      ts.push_back(3000);
      r.k = ks.front();
      for (const std::uint64_t k : ks) properties.push_back(bounded(k));
      for (const std::uint64_t t : ts) properties.push_back(horizon(t));
      break;
    }
  }
  r.request.model = workload_.models_.at(r.designs.front()).get();
  ++index_;
  return r;
}

namespace {

/// Adds one engine request's phases to a folded response's.
void addTiming(const engine::PhaseTiming& t, engine::PhaseTiming& into) {
  into.queueSeconds += t.queueSeconds;
  into.buildSeconds += t.buildSeconds;
  into.reduceSeconds += t.reduceSeconds;
  into.planSeconds += t.planSeconds;
  into.checkSeconds += t.checkSeconds;
  into.totalSeconds += t.totalSeconds;
}

}  // namespace

Sample Workload::issue(const Request& request) {
  Sample sample;
  sample.request = request;
  engine::AnalysisResponse& response = sample.response;

  if (kind_ == Kind::kMimoCold) {
    // One analyze() per design, back to back, folded into one response
    // like viterbi_check's sweeps below; the model cache is emptied before
    // each, outside the timed region.
    for (const std::size_t design : request.designs) {
      engine_->clearModelCache();
      engine::AnalysisRequest call = request.request;
      call.model = models_.at(design).get();
      const double start = nowSeconds();
      engine::AnalysisResponse part = engine_->analyze(call);
      sample.seconds += nowSeconds() - start;
      ++sample.engineRequests;
      sample.points += call.properties.size();
      if (response.error.empty()) response.error = part.error;
      for (engine::AnalysisResult& result : part.results) {
        response.results.push_back(std::move(result));
      }
      addTiming(part.timing, response.timing);
      response.totalSeconds += part.totalSeconds;
    }
    return sample;
  }

  // viterbi_check: one sweep per decoder size, run back to back. Every
  // point of a sweep shares the size's model object, so the runner
  // coalesces each sweep into one engine request. (Run concurrently, the
  // two requests' buffers land in whichever threads' malloc arenas, and
  // peak RSS varies run to run by a third.)
  const std::vector<std::string>& properties = request.request.properties;
  std::vector<sweep::SweepSpec> specs;
  for (const std::size_t design : request.designs) {
    sweep::SweepSpec& spec = specs.emplace_back("viterbi_check");
    spec.space.cross(sweep::Axis::ints(
        "property", 0, static_cast<std::int64_t>(properties.size()) - 1));
    spec.share(models_.at(design));
    spec.properties = [&properties](const sweep::Params& p) {
      return std::vector<std::string>{
          properties.at(static_cast<std::size_t>(p.getInt("property")))};
    };
    spec.options = request.request.options;
  }
  const sweep::Runner runner(*engine_);
  std::vector<sweep::ResultTable> tables;
  const std::uint64_t requestsBefore = engine_->stats().requests;
  const double start = nowSeconds();
  for (const sweep::SweepSpec& spec : specs) tables.push_back(runner.run(spec));
  sample.seconds = nowSeconds() - start;
  sample.engineRequests = engine_->stats().requests - requestsBefore;

  // Fold the sweeps into one response: rows design by design, and the
  // phases of the back-to-back engine requests summed.
  for (const sweep::ResultTable& table : tables) {
    sample.points += table.size();
    for (const sweep::ResultRow& row : table.rows()) {
      engine::AnalysisResult result;
      result.property = row.property;
      result.value = row.value;
      result.satisfied = row.satisfied;
      result.interval95 = row.interval95;
      result.samples = row.samples;
      result.batched = row.batched;
      result.error = row.error;
      response.results.push_back(std::move(result));
    }
    if (table.rows().empty()) continue;
    addTiming(table.rows().front().timing, response.timing);
    response.reduction = table.rows().front().reduction;
  }
  response.totalSeconds = response.timing.totalSeconds;
  return sample;
}

std::vector<std::vector<std::string>> Workload::verify(
    const std::vector<Sample>& samples) {
  // Reference values for every property any sample asked, per design: the
  // unreduced chain (mimo_cold: batched plan; viterbi_check: one
  // independent mc::Checker::check per property, the sweep_reference.hpp
  // idiom).
  reference_.resize(models_.size());
  std::vector<std::vector<std::string>> wanted(models_.size());
  for (const Sample& sample : samples) {
    for (const std::size_t d : sample.request.designs) {
      for (const std::string& property : sample.request.request.properties) {
        if (reference_[d].count(property) == 0 &&
            std::find(wanted[d].begin(), wanted[d].end(), property) ==
                wanted[d].end()) {
          wanted[d].push_back(property);
        }
      }
    }
  }
  for (std::size_t d = 0; d < models_.size(); ++d) {
    if (wanted[d].empty()) continue;
    const dtmc::BuildResult build = dtmc::buildExplicit(*models_[d]);
    const mc::Checker checker(build.dtmc, *models_[d]);
    if (kind_ == Kind::kMimoCold) {
      std::vector<pctl::Property> parsed;
      for (const std::string& p : wanted[d]) {
        parsed.push_back(checker.parsedProperty(p));
      }
      const std::vector<mc::CheckResult> results = checker.checkAll(parsed);
      for (std::size_t i = 0; i < wanted[d].size(); ++i) {
        reference_[d][wanted[d][i]] =
            results[i].ok() ? results[i].value
                            : std::numeric_limits<double>::quiet_NaN();
      }
    } else {
      for (const std::string& p : wanted[d]) {
        const mc::CheckResult result = checker.check(p);
        reference_[d][p] = result.ok()
                               ? result.value
                               : std::numeric_limits<double>::quiet_NaN();
      }
    }
  }

  std::vector<std::vector<std::string>> problems;
  for (const Sample& sample : samples) {
    problems.push_back(checkAnswer(sample));
  }
  return problems;
}

std::vector<std::string> Workload::checkAnswer(const Sample& sample) {
  std::vector<std::string> problems;
  const engine::AnalysisResponse& response = sample.response;
  const std::vector<std::string>& properties = sample.request.request.properties;
  const std::vector<std::size_t>& designs = sample.request.designs;
  if (!response.error.empty()) return {"request error: " + response.error};
  if (response.results.size() != designs.size() * properties.size()) {
    return {"answered " + std::to_string(response.results.size()) + " of " +
            std::to_string(designs.size() * properties.size()) +
            " properties"};
  }
  for (std::size_t i = 0; i < response.results.size(); ++i) {
    const std::size_t d = designs[i / properties.size()];
    const std::string& property = properties[i % properties.size()];
    const engine::AnalysisResult& result = response.results[i];
    const std::string label = designNames_[d] + " " + property + ": ";
    if (!result.ok()) {
      problems.push_back(label + result.error);
      continue;
    }
    // Every property here is a probability or the expectation of a 0/1
    // reward. std::isfinite first: comparisons alone would let NaN pass.
    if (!std::isfinite(result.value) || result.value < 0.0 ||
        result.value > 1.0) {
      problems.push_back(label + "value " + formatValue(result.value) +
                         " outside [0, 1]");
      continue;
    }
    const double want = reference_[d].at(property);
    const double diff = std::fabs(result.value - want);
    const double tolerance =
        kind_ == Kind::kViterbiCheck ? 0.0 : kQuotientTolerance;
    if (!(diff <= tolerance)) {
      problems.push_back(label + "got " + formatValue(result.value) +
                         ", reference " + formatValue(want));
    }
  }
  return problems;
}

}  // namespace perfbench
