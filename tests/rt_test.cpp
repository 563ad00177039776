// Real-thread runtime tests: arena register publication, CAS and writer
// checks, the 16-byte inline register under contention, snapshot scans
// under concurrent updaters, FastCounterRT conservation, approximate
// agreement with real threads, and the thread harness itself.
//
// These run on however many hardware threads exist (including 1); they rely
// on preemptive scheduling, not parallelism, so they are meaningful — if
// less adversarial — on a single core.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <vector>

#include "agreement/approx_agreement.hpp"
#include "agreement/approx_spec.hpp"
#include "api/backend.hpp"
#include "objects/fast_counter.hpp"
#include "obs/metrics.hpp"
#include "rt/reclaim.hpp"
#include "rt/register.hpp"
#include "rt/thread_harness.hpp"
#include "snapshot/baselines/double_collect.hpp"
#include "snapshot/baselines/mutex_snapshot.hpp"
#include "snapshot/atomic_snapshot.hpp"
#include "snapshot/lattice_scan.hpp"

namespace apram::rt {
namespace {

TEST(SWMRRegister, InitialValueReadable) {
  ArenaRegister<int> reg(42);
  EXPECT_EQ(reg.read(), 42);
  EXPECT_EQ(reg.reclaim_stats().allocated, 1u);
}

TEST(SWMRRegister, WriteThenRead) {
  ArenaRegister<std::string> reg("a");
  reg.write("b");
  reg.write("c");
  EXPECT_EQ(reg.read(), "c");
  EXPECT_EQ(reg.reclaim_stats().allocated, 3u);
}

TEST(SWMRRegister, ConcurrentReadersSeeSomeWrittenValue) {
  ArenaRegister<std::uint64_t> reg(0);
  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> seen_bad(8, 0);
  parallel_run(3, [&](int pid) {
    if (pid == 0) {
      for (std::uint64_t i = 1; i <= 20000; ++i) reg.write(i);
      stop.store(true);
    } else {
      std::uint64_t last = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint64_t v = reg.read();
        // Single writer writing 1,2,3,...: reads must be monotone per reader.
        if (v < last) ++seen_bad[static_cast<std::size_t>(pid)];
        last = v;
      }
    }
  });
  EXPECT_EQ(seen_bad[1], 0u);
  EXPECT_EQ(seen_bad[2], 0u);
}

// --------------------------------------------------------- reclamation ----

TEST(VersionArena, HeldVersionSurvivesAHundredPublishes) {
  reclaim::VersionArena<std::string> arena(1, "v0");
  const auto ref = arena.acquire();
  for (int i = 1; i <= 100; ++i) {
    arena.publish(arena.alloc(0, "v" + std::to_string(i)));
  }
  // The pin: 100 publications later the acquired version is still intact.
  EXPECT_EQ(arena.get(ref), "v0");
  const auto held = arena.stats();
  EXPECT_EQ(held.allocated, 101u);
  EXPECT_EQ(held.live_versions(), 2u);  // the pin + the published version
  EXPECT_GE(held.recycled, 98u);        // everything else recycled around it

  arena.release(ref);  // last holder out retires the pinned version
  EXPECT_EQ(arena.stats().live_versions(), 1u);
  EXPECT_EQ(arena.stats().retired, held.retired + 1);
}

TEST(VersionArena, DeallocReturnsTheSlotForImmediateReuse) {
  reclaim::VersionArena<int> arena(1, 0);
  const auto before = arena.stats();
  const std::uint32_t a = arena.alloc(0, 1);
  arena.dealloc(a);  // the failed-CAS cleanup path
  const std::uint32_t b = arena.alloc(0, 2);
  EXPECT_EQ(a, b);  // LIFO free list hands the same slot back
  EXPECT_EQ(arena.stats().recycled - before.recycled, 1u);
  arena.dealloc(b);
  EXPECT_EQ(arena.stats().live_versions(), 1u);  // just the published initial
}

TEST(SWMRRegister, MemoryStaysBoundedAcrossManyWrites) {
  ArenaRegister<std::vector<int>> reg(std::vector<int>(8, 0));
  for (int i = 1; i <= 1000; ++i) reg.write(std::vector<int>(8, i));
  EXPECT_EQ(reg.read()[0], 1000);
  const auto s = reg.reclaim_stats();
  EXPECT_EQ(s.allocated, 1001u);
  EXPECT_LE(s.live_versions(), 2u);  // memory ∝ holders, not writes
  EXPECT_GE(s.recycled, 990u);
}

TEST(CASValueRegister, FailedValueCompareAllocatesNothing) {
  ArenaRegister<int> reg(2, 10);
  const auto before = reg.reclaim_stats();
  EXPECT_FALSE(reg.compare_exchange(1, /*expected=*/99, 5));
  EXPECT_EQ(reg.read(), 10);
  EXPECT_EQ(reg.reclaim_stats().allocated, before.allocated);
}

TEST(CASValueRegister, SuccessfulSwapsRecycleSupersededVersions) {
  ArenaRegister<int> reg(1, 0);
  for (int i = 1; i <= 200; ++i) {
    EXPECT_TRUE(reg.compare_exchange(0, i - 1, i));
  }
  EXPECT_EQ(reg.read(), 200);
  EXPECT_LE(reg.reclaim_stats().live_versions(), 2u);
}

// Reg<T> and CasReg<T> are one type, so a write and a CAS can land on one
// register: its sole writer does both, from the one free list. At
// quiescence every field is exact: 1 initial + 3 writes + 2 won CASes
// allocated, a lost value compare allocates nothing, each install retires
// its predecessor, and only the published version stays live.
TEST(ArenaRegister, SoleWriterWritesAndCasesWithExactReclaimStats) {
  ArenaRegister<std::string> reg("v0");
  reg.write("v1");
  EXPECT_TRUE(reg.compare_exchange(0, "v1", "v2"));
  reg.write("v3");
  EXPECT_FALSE(reg.compare_exchange(0, "v1", "lost"));
  EXPECT_TRUE(reg.compare_exchange(0, "v3", "v4"));
  reg.write("v5");
  EXPECT_EQ(reg.read(), "v5");
  const auto s = reg.reclaim_stats();
  EXPECT_EQ(s.allocated, 6u);
  EXPECT_EQ(s.retired, 5u);
  EXPECT_EQ(s.recycled, 4u);
  EXPECT_EQ(s.live_versions(), 1u);
  EXPECT_EQ(s.acquire_contention, 0u);
}

// A writer index beyond the arena's writers would index past its free
// lists; the arena stops instead.
TEST(ArenaRegisterDeathTest, CasFromAPidBeyondItsWritersAborts) {
  ArenaRegister<int> reg(1, 0);
  EXPECT_DEATH((void)reg.compare_exchange(3, 0, 1),
               "writer < num_writers_");
}

// The 16-byte inline register under contention: four threads install
// {seq+1, g(seq+1)} over the value they read while two readers check every
// read. g is a bijection that spreads each seq over all 64 bits, so a torn
// read (seq from one write, v from another) fails v == g(seq), and a CAS
// that succeeded over a stale value would repeat a seq and leave the final
// seq short of the number of successful CASes.
TEST(CASRegister, StampedDoubleWordNeverTearsOrLosesACas) {
  using Node = api::Stamped<std::int64_t>;
  constexpr int kCasThreads = 4;
  constexpr int kReaders = 2;
  constexpr int kAttempts = 5000;
  const auto g = [](std::uint64_t seq) {
    return static_cast<std::int64_t>(seq * 0x9E3779B97F4A7C15ull);
  };
  CASRegister<Node> reg(Node{0, g(0)});
  std::vector<std::uint64_t> wins(kCasThreads, 0);
  std::vector<std::uint64_t> torn(kReaders, 0);
  std::atomic<int> cas_threads_done{0};
  parallel_run(kCasThreads + kReaders, [&](int pid) {
    if (pid < kCasThreads) {
      for (int i = 0; i < kAttempts; ++i) {
        Node cur = reg.read();
        if (reg.compare_exchange(pid, cur,
                                 Node{cur.seq + 1, g(cur.seq + 1)})) {
          ++wins[static_cast<std::size_t>(pid)];
        }
      }
      cas_threads_done.fetch_add(1);
      return;
    }
    std::uint64_t& bad = torn[static_cast<std::size_t>(pid - kCasThreads)];
    std::uint64_t last = 0;
    while (cas_threads_done.load() < kCasThreads) {
      const Node n = reg.read();
      if (n.v != g(n.seq) || n.seq < last) ++bad;
      last = n.seq;
    }
  });
  std::uint64_t total_wins = 0;
  for (std::uint64_t w : wins) total_wins += w;
  for (std::uint64_t b : torn) EXPECT_EQ(b, 0u);
  const Node final_node = reg.read();
  // A CAS fails only if a rival won since its read, and one win fails at
  // most one pending attempt per other thread: wins >= attempts / 4.
  EXPECT_GE(total_wins, static_cast<std::uint64_t>(kAttempts));
  EXPECT_EQ(final_node.seq, total_wins);
  EXPECT_EQ(final_node.v, g(final_node.seq));
}

TEST(ThreadHarness, PinningBeyondShardCapIsCountedNotSilent) {
  const std::uint64_t before = obs::pinning_degraded();
  // kMaxShards+2 workers: the two clamped pins must be visible in the
  // counter (and warn once on stderr), not just a debug-build assert.
  parallel_run(obs::kMaxShards + 2, [](int) {});
  EXPECT_GE(obs::pinning_degraded() - before, 2u);
}

TEST(ThreadHarness, ParallelRunRunsEveryPid) {
  std::vector<std::atomic<int>> hits(5);
  parallel_run(5, [&](int pid) { hits[static_cast<std::size_t>(pid)] = pid + 1; });
  for (int i = 0; i < 5; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)], i + 1);
}

TEST(LatticeScanRT, SequentialJoinSemantics) {
  LatticeScanRT<MaxLattice<std::int64_t>> ls(3);
  ls.write_l(0, 10);
  ls.write_l(1, 30);
  ls.write_l(2, 20);
  EXPECT_EQ(ls.read_max(0), 30);
  EXPECT_EQ(ls.read_max(2), 30);
}

TEST(AtomicSnapshotRT, SequentialUpdateScan) {
  AtomicSnapshotRT<int> snap(3);
  snap.update(0, 5);
  snap.update(2, 7);
  const auto view = snap.scan(1);
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view[0], 5);
  EXPECT_FALSE(view[1].has_value());
  EXPECT_EQ(view[2], 7);
}

TEST(AtomicSnapshotRT, ScansAreMonotoneUnderConcurrentUpdates) {
  const int n = 4;
  AtomicSnapshotRT<std::uint64_t> snap(n);
  std::atomic<bool> stop{false};
  std::atomic<bool> violation{false};
  parallel_run(n, [&](int pid) {
    if (pid == 0) {
      // Scanner: per-slot values must be non-decreasing across scans
      // (updaters write increasing values; comparable scans => monotone).
      std::vector<std::uint64_t> last(static_cast<std::size_t>(n), 0);
      for (int k = 0; k < 300; ++k) {
        const auto view = snap.scan(pid);
        for (std::size_t q = 0; q < view.size(); ++q) {
          const std::uint64_t v = view[q].value_or(0);
          if (v < last[q]) violation.store(true);
          last[q] = v;
        }
      }
      stop.store(true);
    } else {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        snap.update(pid, ++i);
      }
    }
  });
  EXPECT_FALSE(violation.load());
}

TEST(AtomicSnapshotRT, ScanSeesOwnPriorUpdate) {
  const int n = 3;
  AtomicSnapshotRT<std::uint64_t> snap(n);
  std::atomic<bool> bad{false};
  parallel_run(n, [&](int pid) {
    for (std::uint64_t i = 1; i <= 200; ++i) {
      snap.update(pid, i);
      const auto view = snap.scan(pid);
      const auto own = view[static_cast<std::size_t>(pid)];
      if (!own.has_value() || *own < i) bad.store(true);
    }
  });
  EXPECT_FALSE(bad.load());
}

TEST(FastCounterRT, ConservationUnderConcurrency) {
  const int n = 4, k = 500;
  FastCounterRT ctr(n);
  parallel_run(n, [&](int pid) {
    for (int i = 0; i < k; ++i) ctr.inc(pid, 1);
  });
  EXPECT_EQ(ctr.read(0), n * k);
}

TEST(FastCounterRT, DecrementsBalanceOut) {
  const int n = 4;
  FastCounterRT ctr(n);
  parallel_run(n, [&](int pid) {
    for (int i = 0; i < 100; ++i) {
      ctr.inc(pid, 2);
      ctr.dec(pid, 1);
    }
  });
  EXPECT_EQ(ctr.read(0), n * 100);
}

TEST(DoubleCollectRT, SequentialBehaviour) {
  DoubleCollectSnapshotRT<int> snap(2);
  snap.update(0, 9);
  std::uint64_t attempts = 0;
  const auto view = snap.scan(1, &attempts);
  EXPECT_EQ(view[0], 9);
  EXPECT_EQ(attempts, 1u);
}

TEST(MutexSnapshotRT, SequentialBehaviour) {
  MutexSnapshot<int> snap(2);
  snap.update(1, 4);
  const auto view = snap.scan(0);
  EXPECT_FALSE(view[0].has_value());
  EXPECT_EQ(view[1], 4);
}

TEST(ApproxAgreementRT, ThreadsConvergeWithinEpsilon) {
  const int n = 4;
  const double eps = 1.0 / 128.0;
  ApproxAgreementRT aa(n, eps);
  // Concurrent-participation regime: install all inputs first.
  const std::vector<double> inputs{-3.0, 1.5, 0.25, 2.75};
  for (int p = 0; p < n; ++p) aa.input(p, inputs[static_cast<std::size_t>(p)]);

  std::vector<double> outs(static_cast<std::size_t>(n));
  parallel_run(n, [&](int pid) {
    outs[static_cast<std::size_t>(pid)] = aa.output(pid);
  });
  const RealRange in = range_of(inputs);
  const RealRange out = range_of(outs);
  EXPECT_TRUE(in.contains(out));
  EXPECT_LT(out.size(), eps);
}

TEST(ApproxAgreementRT, RepeatedRunsAlwaysValid) {
  for (int trial = 0; trial < 10; ++trial) {
    const double eps = 0.01;
    ApproxAgreementRT aa(2, eps);
    aa.input(0, 0.0);
    aa.input(1, 1.0);
    std::vector<double> outs(2);
    parallel_run(2, [&](int pid) { outs[static_cast<std::size_t>(pid)] = aa.output(pid); });
    EXPECT_LT(std::fabs(outs[0] - outs[1]), eps) << "trial=" << trial;
    EXPECT_GE(std::min(outs[0], outs[1]), 0.0);
    EXPECT_LE(std::max(outs[0], outs[1]), 1.0);
  }
}

TEST(ThroughputRun, CountsOps) {
  ThroughputRun tr(2);
  std::atomic<std::uint64_t> total{0};
  const double rate = tr.run(std::chrono::milliseconds(50), [&](int) {
    total.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_GT(rate, 0.0);
  std::uint64_t counted = 0;
  for (auto c : tr.ops_per_thread()) counted += c;
  EXPECT_EQ(counted, total.load());
}

}  // namespace
}  // namespace apram::rt
