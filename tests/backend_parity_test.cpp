// Sim-vs-rt access parity for the objects written once over the register
// backend (afek_snapshot, double_collect, approx_agreement, fast_counter,
// atomic_snapshot): one solo operation sequence, written once per object as
// a coroutine template, runs on both backends and must perform the same
// register accesses. rt CAS is split out of writes by RtProbe, so the
// comparison is rt.writes + rt.cas == sim writes (no ported object uses
// CAS, so rt.cas stays 0).
#include <gtest/gtest.h>

#include <cstdint>

#include "agreement/approx_agreement.hpp"
#include "api/rt_backend.hpp"
#include "api/sim_backend.hpp"
#include "objects/fast_counter.hpp"
#include "obs/metrics.hpp"
#include "sim/world.hpp"
#include "snapshot/atomic_snapshot.hpp"
#include "snapshot/baselines/afek_snapshot.hpp"
#include "snapshot/baselines/double_collect.hpp"

namespace apram::parity {

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

}  // namespace apram::parity
