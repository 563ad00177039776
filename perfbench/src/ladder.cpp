// The solo cost ladder, priced from outside the library:
//   harness  the latency the workloads' timed loop records for an empty op
//   L0       a plain std::atomic<int64> load and CAS
//   L1       rt::SWMRRegister<int64> read/write, CASValueRegister<int64> CAS,
//            and one register read by 4 threads at once
//   L2       FArray<RtBackend, int64, SumCombiner> write and read_f at n = 64
// Each figure is the median of kReps timed loops.
#include <atomic>

#include "algebra/combiner.hpp"
#include "api/rt_backend.hpp"
#include "common.hpp"
#include "farray/farray.hpp"
#include "rt/register.hpp"

namespace perfbench {

namespace {

constexpr int kReps = 5;
constexpr std::uint64_t kN = 200'000;
constexpr std::uint64_t kFarrayN = 20'000;
constexpr int kFarraySlots = 64;

// Keeps a value alive without a store the compiler could drop.
template <class T>
inline void keep(const T& v) {
  asm volatile("" : : "r,m"(v) : "memory");
}

// Median over kReps of the mean ns per call of body(i), i in [0, n).
template <class F>
double ns_per_call(std::uint64_t n, F&& body) {
  std::vector<double> reps;
  for (int rep = 0; rep < kReps; ++rep) {
    const std::uint64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < n; ++i) body(i);
    reps.push_back(static_cast<double>(now_ns() - t0) /
                   static_cast<double>(n));
  }
  return median(reps);
}

}  // namespace

Metrics cost_ladder() {
  Metrics m;
  // What timed_phase records for an op that does nothing.
  std::vector<double> floor;
  for (int rep = 0; rep < kReps; ++rep) {
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < kN; ++i) {
      const std::uint64_t t0 = now_ns();
      keep(i);
      sum += now_ns() - t0;
    }
    floor.push_back(static_cast<double>(sum) / static_cast<double>(kN));
  }
  m["harness.timing_floor_ns"] = median(floor);

  std::atomic<std::int64_t> a{0};
  m["rt.atomic_load_ns"] = ns_per_call(kN, [&](std::uint64_t) {
    keep(a.load());
  });
  m["rt.atomic_cas_ns"] = ns_per_call(kN, [&](std::uint64_t) {
    std::int64_t e = a.load(std::memory_order_relaxed);
    keep(a.compare_exchange_strong(e, e + 1));
  });

  apram::rt::SWMRRegister<std::int64_t> reg(0);
  m["rt.reg_read_ns"] = ns_per_call(kN, [&](std::uint64_t) {
    keep(reg.read());
  });
  m["rt.reg_write_ns"] = ns_per_call(kN, [&](std::uint64_t i) {
    reg.write(static_cast<std::int64_t>(i));
  });
  apram::rt::CASValueRegister<std::int64_t> creg(1, 0);
  std::int64_t cur = 0;  // sole writer: every CAS succeeds
  m["rt.reg_cas_ns"] = ns_per_call(kN, [&](std::uint64_t) {
    keep(creg.compare_exchange(0, cur, cur + 1));
    ++cur;
  });

  std::vector<double> shared(4, 0.0);
  run_threads(4, [&](int t) {
    shared[static_cast<std::size_t>(t)] =
        ns_per_call(kN, [&](std::uint64_t) { keep(reg.read()); });
  });
  m["rt.reg_read_shared_ns"] = median(shared);

  apram::api::RtBackend::Mem mem(kFarraySlots);
  apram::farray::FArray<apram::api::RtBackend, std::int64_t,
                        apram::SumCombiner<std::int64_t>>
      fa(mem, kFarraySlots);
  const apram::api::RtBackend::Ctx ctx{0};
  m["farray.write_ns"] = ns_per_call(kFarrayN, [&](std::uint64_t i) {
    fa.write(ctx, static_cast<std::int64_t>(i)).get();
  });
  m["farray.read_f_ns"] = ns_per_call(kN, [&](std::uint64_t) {
    keep(fa.read_f(ctx).get());
  });
  m["farray.ns_per_access"] =
      m["farray.write_ns"] /
      static_cast<double>(
          apram::farray::farray_write_solo_accesses(kFarraySlots));
  return m;
}

}  // namespace perfbench
