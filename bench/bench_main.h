#ifndef CORRTRACK_BENCH_BENCH_MAIN_H_
#define CORRTRACK_BENCH_BENCH_MAIN_H_

#include <malloc.h>

#include <cstddef>

#include <benchmark/benchmark.h>

// Build-type attestation for the merge guard in bench/run_bench.sh: the
// stock Google-Benchmark context only carries `library_build_type` — how
// the *benchmark library* was compiled (the distro package reports
// "debug") — which says nothing about the corrtrack code being measured.
// CORRTRACK_BUILD_TYPE_NAME is injected by CMake from CMAKE_BUILD_TYPE, so
// every JSON document these binaries emit states what optimization level
// the measured code actually had; run_bench.sh refuses to merge anything
// that is not attested "Release".
#ifndef CORRTRACK_BUILD_TYPE_NAME
#define CORRTRACK_BUILD_TYPE_NAME "unknown"
#endif

/// Bytes the allocator has handed out and not taken back (heap and
/// mmapped chunks); a benchmark's memory counter is the growth of this
/// while its structure is alive.
inline size_t AllocatedBytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

#define CORRTRACK_BENCHMARK_MAIN()                                        \
  int main(int argc, char** argv) {                                       \
    benchmark::Initialize(&argc, argv);                                   \
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;     \
    benchmark::AddCustomContext("corrtrack_build_type",                   \
                                CORRTRACK_BUILD_TYPE_NAME);               \
    benchmark::RunSpecifiedBenchmarks();                                  \
    benchmark::Shutdown();                                                \
    return 0;                                                             \
  }

#endif  // CORRTRACK_BENCH_BENCH_MAIN_H_
