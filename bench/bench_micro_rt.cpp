// Micro-benchmarks (google-benchmark) for the real-thread runtime: register
// read/write/CAS latency (arena, word and double-word registers), snapshot
// scan/update latency vs n, counter ops.
// Single-threaded latency numbers — the multi-thread throughput shapes live
// in bench_e5_snapshot_compare.
#include <benchmark/benchmark.h>

#include <iostream>

#include "api/backend.hpp"
#include "objects/fast_counter.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/rt_probe.hpp"
#include "rt/register.hpp"
#include "snapshot/atomic_snapshot.hpp"
#include "snapshot/lattice_scan.hpp"

namespace apram::rt {
namespace {

// Shared registry so the probed benchmarks below feed the metrics artifact
// written by main(). Event counts depend on benchmark iteration counts and
// are interesting only as magnitudes, not exact values.
obs::Registry& bench_registry() {
  static obs::Registry reg;
  return reg;
}

void BM_RegisterRead(benchmark::State& state) {
  SWMRRegister<std::int64_t> reg(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.read());
  }
}
BENCHMARK(BM_RegisterRead);

void BM_RegisterWrite(benchmark::State& state) {
  SWMRRegister<std::int64_t> reg(0);
  std::int64_t i = 0;
  for (auto _ : state) {
    reg.write(++i);
  }
}
BENCHMARK(BM_RegisterWrite);

// Word registers: the std::atomic register api::RtBackend selects for
// integral values of at most 8 bytes. Each BM_*Word row sits beside the
// arena row of the same access, so the arena's price — the acquire/release
// read (one fetch_add + one fetch_sub on top of the copy), the
// alloc/publish/transfer write — reads off directly.
void BM_RegisterReadWord(benchmark::State& state) {
  CASRegister<std::int64_t> reg(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.read());
  }
}
BENCHMARK(BM_RegisterReadWord);

void BM_RegisterWriteWord(benchmark::State& state) {
  CASRegister<std::int64_t> reg(0);
  std::int64_t i = 0;
  for (auto _ : state) {
    reg.write(++i);
  }
}
BENCHMARK(BM_RegisterWriteWord);

void BM_CasRegisterSwapBounded(benchmark::State& state) {
  BoundedCASValueRegister<std::int64_t> reg(1, 0);
  std::int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.compare_exchange(0, i, i + 1));
    ++i;
  }
}
BENCHMARK(BM_CasRegisterSwapBounded);

void BM_CasRegisterSwapWord(benchmark::State& state) {
  CASRegister<std::int64_t> reg(0);
  std::int64_t i = 0;
  for (auto _ : state) {
    std::int64_t expected = i;
    benchmark::DoNotOptimize(reg.compare_exchange(expected, i + 1));
    ++i;
  }
}
BENCHMARK(BM_CasRegisterSwapWord);

// Double-word registers: the same std::atomic register over the 16-byte
// Stamped<int64> FArray node, which api::RtBackend also keeps inline. Each
// access is a libatomic __atomic_*_16 call (vmovdqa load, vmovdqa + mfence
// store, lock cmpxchg16b CAS), so the delta against the *Word rows is the
// call and the wider access; against the arena rows, the refcounts saved.
using StampedNode = api::Stamped<std::int64_t>;

void BM_RegisterReadStamped(benchmark::State& state) {
  CASRegister<StampedNode> reg(StampedNode{1, 42});
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.read());
  }
}
BENCHMARK(BM_RegisterReadStamped);

void BM_RegisterWriteStamped(benchmark::State& state) {
  CASRegister<StampedNode> reg(StampedNode{});
  std::uint64_t i = 0;
  for (auto _ : state) {
    ++i;
    reg.write(StampedNode{i, static_cast<std::int64_t>(i)});
  }
}
BENCHMARK(BM_RegisterWriteStamped);

void BM_CasRegisterSwapStamped(benchmark::State& state) {
  CASRegister<StampedNode> reg(StampedNode{});
  std::uint64_t i = 0;
  for (auto _ : state) {
    StampedNode expected{i, static_cast<std::int64_t>(i)};
    benchmark::DoNotOptimize(reg.compare_exchange(
        expected, StampedNode{i + 1, static_cast<std::int64_t>(i + 1)}));
    ++i;
  }
}
BENCHMARK(BM_CasRegisterSwapStamped);

// Same register paths with an obs::RtProbe attached: the delta against
// BM_RegisterRead/Write is the cost of the one-relaxed-fetch_add hot path
// (the budget documented in DESIGN.md).
void BM_RegisterReadProbed(benchmark::State& state) {
  auto& reg = bench_registry();
  obs::RtProbe probe{.reads = &reg.counter("micro.probed.reads"),
                     .writes = &reg.counter("micro.probed.writes"),
                     .cas_ops = &reg.counter("micro.probed.cas"),
                     .object = 0};
  SWMRRegister<std::int64_t> r(42);
  r.attach_probe(&probe);
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.read());
  }
}
BENCHMARK(BM_RegisterReadProbed);

void BM_RegisterWriteProbed(benchmark::State& state) {
  auto& reg = bench_registry();
  obs::RtProbe probe{.reads = &reg.counter("micro.probed.reads"),
                     .writes = &reg.counter("micro.probed.writes"),
                     .cas_ops = &reg.counter("micro.probed.cas"),
                     .object = 0};
  SWMRRegister<std::int64_t> r(0);
  r.attach_probe(&probe);
  std::int64_t i = 0;
  for (auto _ : state) {
    r.write(++i);
  }
}
BENCHMARK(BM_RegisterWriteProbed);

void BM_SnapshotUpdate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  AtomicSnapshotRT<std::int64_t> snap(n);
  std::int64_t i = 0;
  for (auto _ : state) {
    snap.update(0, ++i);
  }
  state.SetLabel("n=" + std::to_string(n));
}
BENCHMARK(BM_SnapshotUpdate)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_SnapshotScan(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  AtomicSnapshotRT<std::int64_t> snap(n);
  for (int p = 0; p < n; ++p) snap.update(p, p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(snap.scan(0));
  }
  state.SetLabel("n=" + std::to_string(n) + " (expect ~n^2 growth)");
}
BENCHMARK(BM_SnapshotScan)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_FastCounterInc(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  FastCounterRT ctr(n);
  for (auto _ : state) {
    ctr.inc(0, 1);
  }
}
BENCHMARK(BM_FastCounterInc)->Arg(4)->Arg(16);

void BM_FastCounterRead(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  FastCounterRT ctr(n);
  for (int p = 0; p < n; ++p) ctr.inc(p, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctr.read(0));
  }
}
BENCHMARK(BM_FastCounterRead)->Arg(4)->Arg(16);

}  // namespace
}  // namespace apram::rt

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  apram::obs::write_metrics_json("bench_micro_rt.metrics.json",
                                 apram::rt::bench_registry(), nullptr,
                                 "bench_micro_rt");
  std::cout << "metrics artifact: bench_micro_rt.metrics.json\n";
  return 0;
}
