// Shared pieces of the libapram benchmark: clocks, seeded input generation,
// percentiles, process memory readings, and the closed-loop timed phase every
// real-thread workload runs through.
//
// Nothing here instruments the library. Every number is taken from outside,
// around calls into the public functions of rt, farray, snapshot, objects,
// universal2, sim and fault.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Metrics = std::map<std::string, double>;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// splitmix64: the benchmark's own input generator, so the generated inputs
// depend on the seed alone and not on any library code.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

// Linear interpolation between order statistics (the "R-7" estimator).
double percentile(std::vector<double> v, double p);
// The same, reordering v instead of copying it.
double percentile_in_place(std::vector<std::uint32_t>& v, double p);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}
double mean(const std::vector<double>& v);

// Capacity for n elements with its pages already resident, so that a buffer
// every round reuses sits in the peak-RSS baseline taken before the first
// round.
template <class T>
void reserve_resident(std::vector<T>& v, std::size_t n) {
  v.assign(n, T{});
  v.clear();
}

// rt::parallel_run, wrapped so that this header does not pull in the
// library's headers.
void run_threads(int threads, const std::function<void(int)>& body);

std::uint64_t rss_bytes();  // current resident set size
std::uint64_t heap_in_use_bytes();  // malloc'd and not freed, all arenas
std::uint64_t peak_rss_bytes();     // process high-water RSS (VmHWM)
void release_free_memory();  // hands freed heap pages back to the kernel

// Per-call kinds recorded around calls; the traced run reports latency
// percentiles per kind.
enum Kind : std::uint8_t {
  kUpdate,
  kScan,
  kSameSet,
  kUnite,
  kInc,
  kRead,
  kEnqueue,
  kDequeue,
  kSchedule,
  kNumKinds
};
const char* kind_name(Kind k);

// Per-op records of a round, one slot per op (thread-major under
// Split::kPerThread). A workload allocates them once, before the first
// round, and every round reuses them.
struct Records {
  std::vector<std::uint32_t> lat_ns;
  std::vector<std::uint8_t> kinds;
  std::vector<std::uint64_t> start_ns;  // filled by traced rounds only
  void allocate(std::size_t ops) {
    lat_ns.assign(ops, 0);
    kinds.assign(ops, 0);
    start_ns.assign(ops, 0);
  }
};

// One count-based round of a workload: fresh objects, a fixed number of
// ops per thread, correctness checks after the timed window.
struct Round {
  double setup_s = 0;   // object construction + thread start
  double timed_s = 0;   // first release to last worker done
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;  // failed correctness checks
  double mean_ns = 0;   // per-op latency over all ops
  double p50_ns = 0;
  double p99_ns = 0;
  // Traced rounds only: a copy of the round's records.
  std::vector<std::uint32_t> lat_ns;
  std::vector<std::uint8_t> kinds;
  std::vector<std::uint64_t> start_ns;
  Metrics layer;  // per-layer figures the workload measured (traced only)
};

// Latencies of one call kind in a traced round.
std::vector<double> latencies_of(const Round& r, Kind k);

class Workload {
 public:
  virtual ~Workload() = default;
  virtual int threads() const = 0;
  // traced: attach the library's existing obs hooks (attach_obs, gauges,
  // slow_path_entries) and fill Round::layer.
  virtual Round round(bool traced) = 0;

 protected:
  Records records_;
};

inline constexpr const char* kWorkloads[] = {
    "snapshot_update", "connectivity", "queue_churn", "sim_campaign"};
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);
bool is_rt_workload(const std::string& name);
// Sim campaigns judged against planted defects (a bound below one solo
// update, a maximum below every value written) must fail to certify.
bool sim_self_test(std::uint64_t seed, std::string* report);

// The solo cost ladder (L0 atomics, L1 rt registers, L2 FArray, harness
// floor), run once per traced run.
Metrics cost_ladder();

// How a timed phase hands ops to its workers.
enum class Split {
  kPerThread,  // worker t runs op(t, i) for i in [0, ops_per_thread)
  // Workers take i in [0, threads × ops_per_thread) from one shared
  // counter, for ops that share no object: a worker on a slower vCPU then
  // takes fewer ops instead of holding the phase open.
  kShared,
};

// Closed-loop timed phase on `threads` workers started by rt::parallel_run.
// Each call op(t, i) is issued only after the worker's previous one
// returned, and returns its Kind. The phase clock starts when the last
// worker reaches the start gate, so setup_s = gate release − setup_begin
// covers construction and thread start.
template <class Op>
void timed_phase(Round& r, Records& rec, int threads,
                 std::uint64_t ops_per_thread, std::uint64_t setup_begin,
                 bool traced, Split split, Op&& op) {
  const auto n = static_cast<std::size_t>(threads);
  r.ops = ops_per_thread * n;
  assert(rec.lat_ns.size() == r.ops && rec.start_ns.size() == r.ops);
  std::vector<std::uint64_t> done(n, 0);
  std::atomic<int> arrived{0};
  std::atomic<std::uint64_t> release{0};
  std::atomic<std::uint64_t> next{0};
  run_threads(threads, [&](int t) {
    if (arrived.fetch_add(1) + 1 == threads) {
      release.store(now_ns());
      release.notify_all();
    }
    // Early arrivals sleep instead of spinning, so that a worker still
    // starting does not wait for a CPU they hold.
    release.wait(0);
    std::uint32_t* l = rec.lat_ns.data();
    std::uint8_t* k = rec.kinds.data();
    std::uint64_t* s = traced ? rec.start_ns.data() : nullptr;
    const auto timed = [&](std::size_t slot, std::uint64_t i) {
      const std::uint64_t t0 = now_ns();
      k[slot] = op(t, i);
      const std::uint64_t t1 = now_ns();
      l[slot] = static_cast<std::uint32_t>(std::min<std::uint64_t>(
          t1 - t0, UINT32_MAX));
      if (s != nullptr) s[slot] = t0;
    };
    if (split == Split::kShared) {
      for (std::uint64_t i = next.fetch_add(1); i < r.ops;
           i = next.fetch_add(1)) {
        timed(i, i);
      }
    } else {
      const std::size_t first = static_cast<std::size_t>(t) * ops_per_thread;
      for (std::uint64_t i = 0; i < ops_per_thread; ++i) timed(first + i, i);
    }
    done[static_cast<std::size_t>(t)] = now_ns();
  });
  const std::uint64_t t_release = release.load();
  r.setup_s = static_cast<double>(t_release - setup_begin) * 1e-9;
  r.timed_s =
      static_cast<double>(*std::max_element(done.begin(), done.end()) -
                          t_release) *
      1e-9;
  if (traced) {
    r.lat_ns = rec.lat_ns;
    r.kinds = rec.kinds;
    r.start_ns = rec.start_ns;
  }
  double sum = 0;
  for (const std::uint32_t l : rec.lat_ns) sum += l;
  r.mean_ns = sum / static_cast<double>(r.ops);
  r.p50_ns = percentile_in_place(rec.lat_ns, 0.5);
  r.p99_ns = percentile_in_place(rec.lat_ns, 0.99);
}

}  // namespace perfbench
