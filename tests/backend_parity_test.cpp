// Sim-vs-rt access parity for the objects written once over the register
// backend (afek_snapshot, double_collect, approx_agreement, fast_counter,
// atomic_snapshot): one solo operation sequence, written once per object as
// a coroutine template, runs on both backends and must perform the same
// register accesses. rt CAS is split out of writes by RtProbe, so the
// comparison is rt.writes + rt.cas == sim writes (no ported object uses
// CAS, so rt.cas stays 0).
//
// Also here: RtBackend's register selection (one type for Reg and CasReg;
// inline word registers for integral values of at most 8 bytes, the queue's
// chain addresses among them, and for Stamped<int64>, the arena register
// for everything else) and the attach points the word registers keep.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>
#include <vector>

#include "agreement/approx_agreement.hpp"
#include "api/rt_backend.hpp"
#include "api/sim_backend.hpp"
#include "farray/farray.hpp"
#include "fault/rt_inject.hpp"
#include "lattice/lattice.hpp"
#include "objects/fast_counter.hpp"
#include "objects/polylog_queue.hpp"
#include "objects/union_find.hpp"
#include "obs/metrics.hpp"
#include "rt/thread_harness.hpp"
#include "sim/world.hpp"
#include "snapshot/atomic_snapshot.hpp"
#include "snapshot/baselines/afek_snapshot.hpp"
#include "snapshot/baselines/double_collect.hpp"
#include "snapshot/tree_snapshot.hpp"
#include "universal2/counter_rep.hpp"

namespace apram::parity {

// Reg<T> and CasReg<T> are one type, as on the sim backend: one register
// interface, whichever storage holds the value.
template <class T>
constexpr bool kOneType =
    std::is_same_v<api::RtBackend::Reg<T>, api::RtBackend::CasReg<T>>;
static_assert(kOneType<std::int64_t>);
static_assert(kOneType<farray::Stamped<std::int64_t>>);
static_assert(kOneType<farray::Stamped<std::int32_t>>);
static_assert(kOneType<std::vector<int>>);

// Integral values of at most 8 bytes, and the 16-byte unpadded
// Stamped<int64> FArray nodes, live inline in one std::atomic...
template <class T>
constexpr bool kIsWord =
    kOneType<T> && std::is_same_v<api::RtBackend::Reg<T>, rt::CASRegister<T>>;
static_assert(kIsWord<std::int32_t>);
static_assert(kIsWord<std::int64_t>);
static_assert(kIsWord<std::uint64_t>);
static_assert(kIsWord<bool>);
static_assert(kIsWord<farray::Stamped<std::int64_t>>);
static_assert(kIsWord<farray::Stamped<std::uint64_t>>);
static_assert(kIsWord<QueueChain>);
static_assert(kIsWord<farray::Stamped<QueueChain>>);

// ...everything else lives on the VersionArena: padded stamps (their
// padding would take part in a bitwise CAS) and stamps over non-integral
// payloads.
template <class T>
constexpr bool kIsArena =
    kOneType<T> &&
    std::is_same_v<api::RtBackend::Reg<T>, rt::ArenaRegister<T>>;
static_assert(kIsArena<farray::Stamped<std::int32_t>>);
static_assert(kIsArena<universal2::CounterRep<api::RtBackend>::Cell>);
static_assert(kIsArena<std::vector<int>>);
static_assert(kIsArena<std::vector<std::int64_t>>);

// Each case: the object under test plus its solo program for pid 0, as a
// template over the backend.
struct AfekSnapshotCase {
  template <class B>
  struct On {
    snapshot::AfekSnapshot<B, int> obj;
    On(typename B::Mem& mem, int n) : obj(mem, n) {}
    typename B::template Coro<void> run(typename B::Ctx ctx) {
      co_await obj.update(ctx, 5);
      (void)co_await obj.scan(ctx);
    }
  };
};

struct DoubleCollectCase {
  template <class B>
  struct On {
    snapshot::DoubleCollectSnapshot<B, int> obj;
    On(typename B::Mem& mem, int n) : obj(mem, n) {}
    typename B::template Coro<void> run(typename B::Ctx ctx) {
      co_await obj.update(ctx, 5);
      (void)co_await obj.scan(ctx);
    }
  };
};

struct ApproxAgreementCase {
  template <class B>
  struct On {
    ApproxAgreement<B> obj;
    On(typename B::Mem& mem, int n) : obj(mem, n, /*epsilon=*/0.25) {}
    typename B::template Coro<void> run(typename B::Ctx ctx) {
      (void)co_await obj.decide(ctx, 1.5);
    }
  };
};

struct FastCounterCase {
  template <class B>
  struct On {
    FastCounter<B> obj;
    On(typename B::Mem& mem, int n) : obj(mem, n) {}
    typename B::template Coro<void> run(typename B::Ctx ctx) {
      co_await obj.inc(ctx, 5);
      co_await obj.dec(ctx, 2);
      (void)co_await obj.read(ctx);
    }
  };
};

struct AtomicSnapshotCase {
  template <class B>
  struct On {
    snapshot::AtomicSnapshot<B, int> obj;
    On(typename B::Mem& mem, int n) : obj(mem, n) {}
    typename B::template Coro<void> run(typename B::Ctx ctx) {
      co_await obj.update(ctx, 5);
      (void)co_await obj.scan(ctx);
      (void)co_await obj.update_and_scan(ctx, 7);
    }
  };
};

template <class T>
class BackendParity : public ::testing::Test {};

using Cases =
    ::testing::Types<AfekSnapshotCase, DoubleCollectCase, ApproxAgreementCase,
                     FastCounterCase, AtomicSnapshotCase>;
TYPED_TEST_SUITE(BackendParity, Cases);

TYPED_TEST(BackendParity, SimAndRtBackendsPerformTheSameAccesses) {
  for (int n : {2, 4, 8}) {
    sim::World w(n);
    api::SimBackend::Mem mem(w, "obj");
    typename TypeParam::template On<api::SimBackend> sim_case(mem, n);
    w.spawn(0, [&](sim::Context ctx) -> sim::ProcessTask {
      co_await sim_case.run(ctx);
    });
    w.run_solo(0);
    const auto sim_counts = w.counts(0);
    ASSERT_GT(sim_counts.reads, 0u);
    ASSERT_GT(sim_counts.writes, 0u);

    obs::Registry reg;
    api::RtBackend::Mem rt_mem(n);
    typename TypeParam::template On<api::RtBackend> rt_case(rt_mem, n);
    rt_mem.attach_obs(reg, "obj");
    rt_case.run(api::RtBackend::Ctx{0}).get();
    const std::uint64_t rt_reads = reg.counter("rt.obj.reads").value();
    const std::uint64_t rt_writes = reg.counter("rt.obj.writes").value();
    const std::uint64_t rt_cas = reg.counter("rt.obj.cas").value();
    EXPECT_EQ(rt_reads, sim_counts.reads) << "n=" << n;
    EXPECT_EQ(rt_writes + rt_cas, sim_counts.writes) << "n=" << n;
  }
}

// The probe attach point survives the switch to word registers. Pid 0 parks
// before its link CAS on parent[2]; the main thread links 2 under 0 in the
// meantime, so pid 0's CAS loses, and its retry links 1 under 0.
TEST(WordRegister, AttachObsCountsUnionFindParentAccesses) {
  UnionFindRT uf(/*num_procs=*/2, /*universe=*/3);
  obs::Registry reg;
  uf.attach_obs(reg, "uf");
  fault::RtInjector inj(fault::RtInjectOptions{});
  uf.attach_injector(&inj);
  rt::run_with_stall(
      /*num_threads=*/1, [&](int pid) { uf.unite(pid, 2, 1); }, inj,
      /*victim=*/0, /*stall_after=*/2, [&] { uf.unite(1, 2, 0); });
  EXPECT_TRUE(uf.same_set(0, 1, 2));
  EXPECT_EQ(uf.num_sets(0), 1);

  // Parent registers: main 2 reads + 1 CAS; pid 0 2 reads + 1 lost CAS,
  // then 3 reads + 1 CAS; same_set 2 + 2 reads. Each of the two links then
  // adds one solo FArray write at n = 2 (1 + 4h, h = 1: a leaf write,
  // 3 reads, 1 CAS), and num_sets one root read.
  EXPECT_EQ(reg.counter("rt.uf.reads").value(), 2u + 5u + 4u + 2u * 3u + 1u);
  EXPECT_EQ(reg.counter("rt.uf.writes").value(), 2u);
  EXPECT_EQ(reg.counter("rt.uf.cas").value(), 3u + 2u);
  EXPECT_EQ(reg.counter("rt.uf.cas_fail").value(), 1u);
}

// The injector attach point survives too: on_access fires once per access,
// and a word read has no hold point, so a kHold stall never engages and
// the victim runs to completion.
TEST(WordRegister, InjectorFiresOnAccessButNeverOnHold) {
  api::RtBackend::Mem mem(1);
  auto& r = mem.make<std::int64_t>("r", 7);
  auto& c = mem.make_cas<std::int64_t>("c", 0);
  fault::RtInjector inj(fault::RtInjectOptions{});
  mem.attach_injector(&inj);
  const api::RtBackend::Ctx ctx{0};
  bool victim_done = false;
  bool engaged_while_stalled = true;
  rt::run_with_stall(
      /*num_threads=*/1,
      [&](int) {
        for (int i = 0; i < 4; ++i) {
          (void)ctx.read(r).await_resume();
          (void)ctx.read(c).await_resume();
        }
        ctx.write(r, std::int64_t{8});
        (void)ctx.cas(c, std::int64_t{0}, std::int64_t{1}).await_resume();
        victim_done = true;
      },
      inj, /*victim=*/0, /*stall_after=*/0,
      [&] { engaged_while_stalled = inj.stall_engaged(); },
      /*tracer=*/nullptr, fault::StallPoint::kHold);
  EXPECT_TRUE(victim_done);
  EXPECT_FALSE(engaged_while_stalled);
  EXPECT_EQ(inj.accesses(0), 10u);
  EXPECT_EQ(r.read(), 8);
  EXPECT_EQ(c.read(), 1);
  const rt::reclaim::ReclaimStats s = mem.reclaim_stats();
  EXPECT_EQ(s.allocated, 0u);
  EXPECT_EQ(s.live_versions(), 0u);
  EXPECT_EQ(mem.num_registers(), 2u);
}

// A TreeScan over int64 is all word registers now (int64 leaves, Stamped
// nodes): after a contended threaded run nothing was ever versioned, so
// every reclamation field is exactly zero, not merely bounded.
TEST(WordRegister, TreeScanOverInt64OwnsNoVersions) {
  constexpr int kThreads = 4;
  snapshot::TreeScanRT<MaxLattice<std::int64_t>> tree(kThreads);
  rt::parallel_run(kThreads, [&](int pid) {
    for (std::int64_t i = 1; i <= 500; ++i) {
      tree.update(pid, i * kThreads + pid);
      if (i % 8 == 0) (void)tree.scan(pid);
    }
  });
  EXPECT_EQ(tree.scan(0), 500 * kThreads + kThreads - 1);
  const rt::reclaim::ReclaimStats s = tree.reclaim_stats();
  EXPECT_EQ(s.allocated, 0u);
  EXPECT_EQ(s.retired, 0u);
  EXPECT_EQ(s.recycled, 0u);
  EXPECT_EQ(s.acquire_contention, 0u);
  EXPECT_EQ(s.live_versions(), 0u);
}

// The queue's chains are block addresses, so its leaves and nodes are word
// registers too and it owns no versions either.
TEST(WordRegister, PolylogQueueOwnsNoVersions) {
  constexpr int kThreads = 4;
  PolylogQueueRT queue(kThreads);
  rt::parallel_run(kThreads, [&](int pid) {
    for (std::int64_t i = 0; i < 500; ++i) {
      if (i % 2 == 0) {
        queue.enqueue(pid, pid * 1000 + i);
      } else {
        (void)queue.dequeue(pid);
      }
    }
  });
  int left = 0;
  while (queue.dequeue(0) != -1) ++left;
  EXPECT_EQ(left, 0);
  const rt::reclaim::ReclaimStats s = queue.reclaim_stats();
  EXPECT_EQ(s.allocated, 0u);
  EXPECT_EQ(s.retired, 0u);
  EXPECT_EQ(s.recycled, 0u);
  EXPECT_EQ(s.acquire_contention, 0u);
  EXPECT_EQ(s.live_versions(), 0u);
}

}  // namespace apram::parity
