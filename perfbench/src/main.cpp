// mimostat request benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//
// One process drives the public engine::AnalysisEngine API (and
// sweep::Runner on viterbi_check) with a seeded request stream: a closed
// loop, one client, an engine of min(2, nproc) threads. The seed generates
// the whole request sequence (horizons T and bounds k); the library sees
// only the generated requests. Workloads:
//
//   mimo_cold      the paper's 1x2 (210,278 states) and 1x4 (132,098)
//                  ML-detector chains: each request asks R=? [ I=T ] +
//                  P=? [ F<=k error ] of both, one analyze() per chain, the
//                  model cache emptied before each (untimed): the probe,
//                  explicit build and quotient refinement path.
//   viterbi_check  Table III's reduced Viterbi decoder at L=6 (8,193 states)
//                  and L=7 (32,769), warm: each request checks 8 bounded + 10
//                  horizon properties on both sizes, one sweep::Runner spec
//                  per size. mc:: and la:: do the work.
//
// --trace 0 measures the end-to-end metrics with tracing off: set-up time
// (median of three complete set-ups), request latency median and tail,
// throughput and peak RSS. --trace 1 splits the timed phase into an
// untraced and a traced half and reports the per-layer metrics (layers.cpp).
// Every answer is checked (workloads.cpp); the last stdout line is the JSON
// result, and the exit code is 1 when any answer was wrong.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/trace.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string traceOut;
};

bool parseArgs(int argc, char** argv, Args& args) {
  bool haveSeed = false;
  bool haveTrace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      haveSeed = *value != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0') return false;
    } else if (flag == "--trace") {
      haveTrace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      args.traceOut = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && haveSeed && haveTrace && args.seconds > 0.0 &&
         args.seconds <= 600.0;
}

/// Closed loop: issue the stream's next request as soon as the previous
/// one returns, until `seconds` of wall-clock have passed.
std::vector<Sample> timedPhase(Workload& workload, Workload::Stream& stream,
                               double seconds, double& elapsed) {
  std::vector<Sample> samples;
  const double start = nowSeconds();
  do {
    samples.push_back(workload.issue(stream.next()));
  } while (nowSeconds() - start < seconds);
  elapsed = nowSeconds() - start;
  return samples;
}

std::vector<double> latencies(const std::vector<Sample>& samples) {
  std::vector<double> out;
  for (const Sample& s : samples) out.push_back(s.seconds);
  return out;
}

int run(const Args& args, Kind kind) {
  const HostInfo host = hostInfo();
  // Half of a 4-vCPU share of a shared host: a pool as wide as the share
  // stalls at every barrier whenever a neighbour takes one of its vCPUs.
  const unsigned threads = std::min(2u, host.nproc);
  Workload workload(kind, args.seed, threads);

  // Set-up: models, engine, cache pre-fill and warm-up, afresh each
  // time. The median of three is set-up's metric; the last one serves the
  // timed phase. The traced run reports no set-up metric and sets up once.
  std::vector<double> setups;
  for (int i = 0; i < (args.trace ? 1 : 3); ++i) {
    setups.push_back(workload.setUp());
  }
  Workload::Stream stream = workload.stream();

  std::vector<Sample> samples;
  std::vector<Metric> metrics;
  double elapsed = 0.0;
  CopyProbe copy;
  if (!args.trace) {
    samples = timedPhase(workload, stream, args.seconds, elapsed);
    const double rss = peakRssMb();  // before the reference builds below
    copy = streamCopy();
    const std::vector<double> times = latencies(samples);
    metrics = {
        {"setup_s", median(setups), "s"},
        {"request_p50_s", median(times), "s"},
        {"request_tail_s", tailPercentile(times).value, "s"},
        {"requests_per_s", static_cast<double>(samples.size()) / elapsed,
         "1/s"},
        {"peak_rss_mb", rss, "MB"},
    };
  } else {
    const mimostat::engine::EngineStats before = workload.engine().stats();
    std::vector<Sample> untraced =
        timedPhase(workload, stream, args.seconds / 2, elapsed);
    const mimostat::engine::EngineStats after = workload.engine().stats();
    mimostat::obs::Tracer& tracer = mimostat::obs::Tracer::global();
    tracer.setEnabled(true);
    const std::vector<Sample> traced =
        timedPhase(workload, stream, args.seconds / 2, elapsed);
    copy = streamCopy();
    mimostat::engine::ThreadPool pool(threads);  // for the direct calls
    metrics = layerMetrics(workload, untraced, traced, before, after, pool,
                           copy);
    tracer.setEnabled(false);
    if (!args.traceOut.empty() &&
        !mimostat::obs::TraceWriter(tracer).writeFile(args.traceOut)) {
      std::fprintf(stderr, "cannot write %s\n", args.traceOut.c_str());
      return 2;
    }
    samples = std::move(untraced);
    samples.insert(samples.end(), traced.begin(), traced.end());
  }

  const double verifyStart = nowSeconds();
  const std::vector<std::vector<std::string>> problems =
      workload.verify(samples);
  const double verifySeconds = nowSeconds() - verifyStart;
  FailureCount count;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    count.record(problems[i].empty());
    for (const std::string& problem : problems[i]) {
      std::fprintf(stderr, "FAIL request %zu: %s\n", i, problem.c_str());
    }
  }

  // Context lines; the result is the last line.
  const std::vector<double> times = latencies(samples);
  const Tail tail = tailPercentile(times);
  const Quartiles q = times.size() >= 2 ? quartiles(times)
                                        : Quartiles{times[0], times[0], times[0]};
  std::string setupList;
  for (const double s : setups) {
    setupList += (setupList.empty() ? "" : ", ") + formatNumber(s);
  }
  std::printf("host: %s\n", hostJson(host, threads, copy).c_str());
  std::printf(
      "workload: {\"name\": %s, \"seed\": %llu, \"trace\": %d, \"requests\": "
      "%zu, \"failed_frac\": %s, \"latency_q1_s\": %s, \"latency_q2_s\": %s, "
      "\"latency_q3_s\": %s, \"tail_percentile\": %s, \"tail_beyond\": %zu, "
      "\"setup_runs_s\": [%s], \"verify_s\": %s}\n",
      quote(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
      samples.size(), formatNumber(count.fraction()).c_str(),
      formatNumber(q.q1).c_str(), formatNumber(q.q2).c_str(),
      formatNumber(q.q3).c_str(), formatNumber(tail.percentile).c_str(),
      tail.beyond, setupList.c_str(), formatNumber(verifySeconds).c_str());
  std::printf("%s\n", resultJson(count.failed() == 0, count, metrics).c_str());
  std::fflush(stdout);
  return count.failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  Kind kind{};
  if (!parseArgs(argc, argv, args) || !parseKind(args.workload, kind)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "<mimo_cold|viterbi_check> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <path>]\n");
    return 2;
  }
  try {
    return run(args, kind);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
