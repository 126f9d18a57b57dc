// Host fingerprint, peak RSS, the streaming-copy probe and the clock.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "la/simd.hpp"
#include "obs/clock.hpp"

namespace perfbench {

double nowSeconds() {
  return static_cast<double>(mimostat::obs::monotonicNanos()) * 1e-9;
}

std::string formatValue(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

HostInfo hostInfo() {
  HostInfo host;
  host.nproc = std::max(1u, std::thread::hardware_concurrency());
  host.simd = mimostat::la::simdTargetName(mimostat::la::activeSimdTarget());
#if defined(__clang__)
  host.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  host.compiler = std::string("gcc ") + __VERSION__;
#else
  host.compiler = "unknown";
#endif
  host.buildType = PERFBENCH_BUILD_TYPE;
  // glibc answers these from cpuid on x86; 0 where the host does not say.
  host.l1dBytes = std::max(0L, sysconf(_SC_LEVEL1_DCACHE_SIZE));
  host.l2Bytes = std::max(0L, sysconf(_SC_LEVEL2_CACHE_SIZE));
  host.llcBytes = std::max(0L, sysconf(_SC_LEVEL3_CACHE_SIZE));
  if (host.llcBytes == 0) host.llcBytes = host.l2Bytes;
  return host;
}

CopyProbe streamCopy() {
  // Fixed size, so the probe's memory use is the same on every host; the
  // fingerprint states it next to the reported LLC, which on large shared
  // hosts can exceed it (the copy then runs partly from cache).
  const std::size_t n = kCopyArrayBytes / sizeof(double);
  std::vector<double> src(n, 1.0);
  std::vector<double> dst(n, 0.0);
  const auto copyOnce = [&] {
    std::memcpy(dst.data(), src.data(), n * sizeof(double));
  };
  copyOnce();  // first touch of dst
  std::vector<double> rates;
  for (int rep = 0; rep < 7; ++rep) {
    const double start = nowSeconds();
    copyOnce();
    rates.push_back(2.0 * static_cast<double>(n * sizeof(double)) /
                    (nowSeconds() - start) * 1e-9);
  }
  if (dst[n / 2] != 1.0) throw std::runtime_error("stream copy lost data");
  return {median(rates), n * sizeof(double)};
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string hostJson(const HostInfo& host, unsigned threads,
                     const CopyProbe& copy) {
  return "{\"nproc\": " + std::to_string(host.nproc) +
         ", \"engine_threads\": " + std::to_string(threads) +
         ", \"simd\": " + quote(host.simd) +
         ", \"compiler\": " + quote(host.compiler) +
         ", \"build_type\": " + quote(host.buildType) +
         ", \"l1d_bytes\": " + std::to_string(host.l1dBytes) +
         ", \"l2_bytes\": " + std::to_string(host.l2Bytes) +
         ", \"llc_bytes\": " + std::to_string(host.llcBytes) +
         ", \"stream_copy_gbps\": " + formatNumber(copy.gbps) +
         ", \"stream_copy_array_bytes\": " + std::to_string(copy.arrayBytes) +
         "}";
}

}  // namespace perfbench
