// The four workloads. Each round builds fresh objects, runs a fixed number
// of ops (so every round ends in the same state), then checks
// what the workers observed. Inputs come from the benchmark seed alone and
// are generated once per run, before any round; so are the buffers the
// rounds log into, which keeps them below the peak-RSS baseline.
#include <array>
#include <numeric>
#include <optional>
#include <tuple>

#include "api/rt_backend.hpp"
#include "api/sim_backend.hpp"
#include "checks.hpp"
#include "common.hpp"
#include "fault/certifier.hpp"
#include "lattice/lattice.hpp"
#include "objects/polylog_queue.hpp"
#include "objects/union_find.hpp"
#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"
#include "sim/world.hpp"
#include "snapshot/tree_snapshot.hpp"
#include "universal2/rt.hpp"

namespace perfbench {

namespace {

using apram::obs::Registry;
using MaxL = apram::MaxLattice<std::int64_t>;

constexpr int kThreads = 4;
constexpr int kSlots = 64;  // process slots of the snapshot and connectivity
constexpr int kPidsPerThread = kSlots / kThreads;

double counter_value(const Registry& reg, const std::string& name) {
  const apram::obs::Counter* c = reg.find_counter(name);
  return c == nullptr ? 0.0 : static_cast<double>(c->value());
}

double gauge_value(Registry& reg, const std::string& name) {
  return static_cast<double>(reg.gauge(name).value());
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Register-layer counts of the objects attached as `names` (rt.<name>.*
// counters from Mem::attach_obs, reclaim gauges already exported). The
// *_per_op figures without a layer prefix feed the cost ladder.
void rt_layer(Round& r, Registry& reg, const std::vector<std::string>& names) {
  double reads = 0, writes = 0, cas = 0, cas_fail = 0, contention = 0,
         live = 0;
  for (const std::string& n : names) {
    reads += counter_value(reg, "rt." + n + ".reads");
    writes += counter_value(reg, "rt." + n + ".writes");
    cas += counter_value(reg, "rt." + n + ".cas");
    cas_fail += counter_value(reg, "rt." + n + ".cas_fail");
    contention += gauge_value(reg, "rt." + n + ".reclaim.acquire_contention");
    live += gauge_value(reg, "rt." + n + ".reclaim.live_versions");
  }
  const auto ops = static_cast<double>(r.ops);
  r.layer["rt.accesses_per_op"] = (reads + writes + cas) / ops;
  r.layer["rt.cas_fail_ratio"] = ratio(cas_fail, cas);
  r.layer["rt.acquire_contention_per_op"] = contention / ops;
  r.layer["rt.live_versions"] = live;
  r.layer["reads_per_op"] = reads / ops;
  r.layer["writes_per_op"] = writes / ops;
  r.layer["cas_per_op"] = cas / ops;
}

// FArray contention totals exported under the "farray" prefix.
void farray_layer(Round& r, Registry& reg, double tree_writes) {
  r.layer["farray.double_refresh_rate"] =
      ratio(gauge_value(reg, "farray.second_refresh") +
                gauge_value(reg, "farray.helped"),
            gauge_value(reg, "farray.walks"));
  r.layer["farray.cas_fail_rate"] = ratio(
      gauge_value(reg, "farray.cas_failures"),
      gauge_value(reg, "farray.cas_attempts"));
  r.layer["farray.helped_per_update"] =
      ratio(gauge_value(reg, "farray.helped"), tree_writes);
}

void kind_percentiles(Round& r, Kind k, const std::string& prefix,
                      bool with_p99) {
  const std::vector<double> lat = latencies_of(r, k);
  r.layer[prefix + "_p50_ns"] = percentile(lat, 0.5);
  if (with_p99) r.layer[prefix + "_p99_ns"] = percentile(lat, 0.99);
}

// ---------------------------------------------------------------------------
// snapshot_update: TreeScanRT<MaxLattice<int64>>, 64 slots, 90% update /
// 10% scan. Thread t owns slots [16t, 16t+16) and picks one per op. Each
// thread's values increase, so the maximum keeps moving and a stale scan
// shows.

class SnapshotUpdate final : public Workload {
 public:
  static constexpr std::uint64_t kOpsPerThread = 100'000;

  explicit SnapshotUpdate(std::uint64_t seed) {
    records_.allocate(kThreads * kOpsPerThread);
    for (int t = 0; t < kThreads; ++t) {
      Rng rng(seed * 0x100 + static_cast<std::uint64_t>(t));
      auto& ops = ops_[static_cast<std::size_t>(t)];
      ops.resize(kOpsPerThread);
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
        Op& op = ops[i];
        op.update = rng.below(10) != 0;
        op.pid = t * kPidsPerThread +
                 static_cast<int>(rng.below(kPidsPerThread));
        op.value = static_cast<std::int64_t>((i << 10) | rng.below(1024));
        if (op.update) max_written_ = std::max(max_written_, op.value);
      }
      reserve_resident(got_[static_cast<std::size_t>(t)],
                       static_cast<std::size_t>(std::count_if(
                           ops.begin(), ops.end(),
                           [](const Op& op) { return !op.update; })));
    }
  }

  int threads() const override { return kThreads; }

  Round round(bool traced) override {
    Round r;
    Registry registry;
    for (auto& g : got_) g.clear();
    const std::uint64_t setup_begin = now_ns();
    apram::snapshot::TreeScanRT<MaxL> tree(kSlots);
    if (traced) tree.attach_obs(registry, "snap");
    timed_phase(r, records_, kThreads, kOpsPerThread, setup_begin, traced,
                Split::kPerThread,
                [&](int t, std::uint64_t i) -> std::uint8_t {
                  const Op& op = ops_[static_cast<std::size_t>(t)][i];
                  if (op.update) {
                    tree.update(op.pid, op.value);
                    return kUpdate;
                  }
                  got_[static_cast<std::size_t>(t)].push_back(
                      tree.scan(op.pid));
                  return kScan;
                });
    if (traced) {
      tree.export_reclaim_gauges(registry, "snap");
      tree.export_contention_gauges(registry, "farray");
      rt_layer(r, registry, {"snap"});
    }

    checks::SnapshotLog log;
    log.max_written = max_written_;
    log.final_scan = tree.scan(0);
    for (int t = 0; t < kThreads; ++t) {
      std::vector<checks::ScanObs> scans;
      std::int64_t own = MaxL::bottom();
      std::size_t next = 0;
      for (const Op& op : ops_[static_cast<std::size_t>(t)]) {
        if (op.update) {
          own = std::max(own, op.value);
        } else {
          scans.push_back({got_[static_cast<std::size_t>(t)][next++], own});
        }
      }
      log.scans.push_back(std::move(scans));
    }
    r.failed = checks::snapshot(log);

    if (traced) {
      const auto updates =
          static_cast<double>(latencies_of(r, kUpdate).size());
      farray_layer(r, registry, updates);
      kind_percentiles(r, kUpdate, "snapshot.update", true);
      kind_percentiles(r, kScan, "snapshot.scan", false);
    }
    return r;
  }

 private:
  struct Op {
    bool update = false;
    int pid = 0;
    std::int64_t value = 0;
  };
  std::array<std::vector<Op>, kThreads> ops_;
  std::array<std::vector<std::int64_t>, kThreads> got_;  // scan results
  std::int64_t max_written_ = MaxL::bottom();
};

// ---------------------------------------------------------------------------
// connectivity: UnionFindRT (64 slots, 2^16 elements) next to a
// universal2::Counter2RT (64 slots). 70% same_set, 10% unite, 15% counter
// inc, 5% counter read. Every round issues the same edges, so the set
// structure ends in the same state every round.

class Connectivity final : public Workload {
 public:
  static constexpr std::uint64_t kOpsPerThread = 360'000;
  static constexpr std::uint64_t kEdgesPerThread = 12'000;
  static constexpr int kUniverse = 1 << 16;
  static constexpr double kReadProbeQueries = 20'000;

  // Each thread draws kEdgesPerThread edges and its unites cycle through
  // them, so a round of any length ends with the same sets; unites past the
  // first pass repeat an edge, as an edge stream with duplicates does.
  explicit Connectivity(std::uint64_t seed) {
    records_.allocate(kThreads * kOpsPerThread);
    for (int t = 0; t < kThreads; ++t) {
      Rng rng(seed * 0x100 + 0x10 + static_cast<std::uint64_t>(t));
      std::vector<std::pair<std::int32_t, std::int32_t>> mine;
      for (std::uint64_t e = 0; e < kEdgesPerThread; ++e) {
        mine.emplace_back(static_cast<std::int32_t>(rng.below(kUniverse)),
                          static_cast<std::int32_t>(rng.below(kUniverse)));
      }
      edges_.insert(edges_.end(), mine.begin(), mine.end());
      auto& ops = ops_[static_cast<std::size_t>(t)];
      ops.resize(kOpsPerThread);
      std::uint64_t unites = 0;
      std::size_t queries = 0;
      std::size_t reads = 0;
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
        Op& op = ops[i];
        const std::uint64_t roll = rng.below(100);
        op.pid = t * kPidsPerThread +
                 static_cast<int>(rng.below(kPidsPerThread));
        if (roll < 70) {
          op.kind = kSameSet;
          ++queries;
          // Half the queries ask about an edge this thread already united.
          if (unites > 0 && rng.below(2) == 0) {
            std::tie(op.a, op.b) =
                mine[rng.below(std::min(unites, kEdgesPerThread))];
            op.united_before = true;
          } else {
            op.a = static_cast<std::int32_t>(rng.below(kUniverse));
            op.b = static_cast<std::int32_t>(rng.below(kUniverse));
          }
        } else if (roll < 80) {
          op.kind = kUnite;
          std::tie(op.a, op.b) = mine[unites++ % kEdgesPerThread];
        } else if (roll < 95) {
          op.kind = kInc;
          ++incs_;
        } else {
          op.kind = kRead;
          ++reads;
        }
      }
      reserve_resident(same_[static_cast<std::size_t>(t)], queries);
      reserve_resident(reads_[static_cast<std::size_t>(t)], reads);
    }
  }

  int threads() const override { return kThreads; }

  Round round(bool traced) override {
    Round r;
    Registry registry;
    for (auto& s : same_) s.clear();
    for (auto& g : reads_) g.clear();
    const std::uint64_t setup_begin = now_ns();
    const std::uint64_t rss_before = traced ? rss_bytes() : 0;
    std::optional<apram::UnionFindRT> uf(std::in_place, kSlots, kUniverse);
    const std::uint64_t rss_after = traced ? rss_bytes() : 0;
    apram::universal2::Counter2RT counter(kSlots);
    if (traced) {
      uf->attach_obs(registry, "uf");
      counter.attach_obs(registry, "u2c");
    }
    timed_phase(r, records_, kThreads, kOpsPerThread, setup_begin, traced,
                Split::kPerThread,
                [&](int t, std::uint64_t i) -> std::uint8_t {
                  const auto ti = static_cast<std::size_t>(t);
                  const Op& op = ops_[ti][i];
                  switch (op.kind) {
                    case kSameSet:
                      same_[ti].push_back(uf->same_set(op.pid, op.a, op.b));
                      break;
                    case kUnite:
                      uf->unite(op.pid, op.a, op.b);
                      break;
                    case kInc:
                      counter.inc(op.pid);
                      break;
                    default:
                      reads_[ti].push_back(counter.read(op.pid));
                  }
                  return op.kind;
                });
    if (traced) {
      uf->export_reclaim_gauges(registry, "uf");
      counter.export_reclaim_gauges(registry, "u2c");
      rt_layer(r, registry, {"uf", "u2c"});
      // Reads per same_set at quiescence, over thread 0's first queries.
      const double reads_before = counter_value(registry, "rt.uf.reads");
      double queries = 0;
      for (const Op& op : ops_[0]) {
        if (op.kind != kSameSet) continue;
        (void)uf->same_set(0, op.a, op.b);
        if (++queries == kReadProbeQueries) break;
      }
      r.layer["uf.reads_per_same_set"] =
          (counter_value(registry, "rt.uf.reads") - reads_before) / queries;
      kind_percentiles(r, kSameSet, "uf.same_set", false);
      kind_percentiles(r, kUnite, "uf.unite", false);
      kind_percentiles(r, kInc, "u2.inc", true);
      double slow = 0;
      for (int p = 0; p < kSlots; ++p) {
        slow += static_cast<double>(counter.slow_path_entries(p));
      }
      r.layer["u2.slow_path_ratio"] = slow / static_cast<double>(incs_);
      // Parent registers plus the link counter's 64 leaves and 63 nodes.
      r.layer["rt.bytes_per_register"] =
          static_cast<double>(rss_after - rss_before) /
          static_cast<double>(kUniverse + 2 * kSlots - 1);
    }

    checks::ConnectivityLog log;
    log.universe = kUniverse;
    log.edges = edges_;
    log.incs = incs_;
    for (const auto& [a, b] : edges_) {
      log.edge_same_set.push_back(uf->same_set(0, a, b));
    }
    log.num_sets = uf->num_sets(0);
    log.counter_final = counter.read(0);
    // The logs below are built once the union-find's arena is gone, so they
    // do not add to the round's memory peak.
    uf.reset();
    for (int t = 0; t < kThreads; ++t) {
      const auto ti = static_cast<std::size_t>(t);
      std::vector<checks::SameSetQuery> queries;
      std::vector<checks::CounterRead> rs;
      std::int64_t own = 0;
      for (const Op& op : ops_[ti]) {
        if (op.kind == kSameSet) {
          queries.push_back({op.a, op.b, op.united_before,
                             same_[ti][queries.size()] != 0});
        }
        if (op.kind == kInc) ++own;
        if (op.kind == kRead) rs.push_back({reads_[ti][rs.size()], own});
      }
      log.queries.push_back(std::move(queries));
      log.counter_reads.push_back(std::move(rs));
    }
    r.failed = checks::connectivity(log);
    return r;
  }

 private:
  struct Op {
    std::uint8_t kind = kSameSet;
    bool united_before = false;  // a same_set on an edge already united
    int pid = 0;
    std::int32_t a = 0;
    std::int32_t b = 0;
  };
  std::array<std::vector<Op>, kThreads> ops_;
  std::array<std::vector<std::uint8_t>, kThreads> same_;   // same_set results
  std::array<std::vector<std::int64_t>, kThreads> reads_;  // counter reads
  std::vector<std::pair<std::int32_t, std::int32_t>> edges_;
  std::int64_t incs_ = 0;
};

// ---------------------------------------------------------------------------
// queue_churn: PolylogQueueRT with n = 4, 50% enqueue / 50% dequeue. The
// queue keeps its whole history, so rounds are sized by op count.

class QueueChurn final : public Workload {
 public:
  static constexpr std::uint64_t kOpsPerThread = 40'000;

  explicit QueueChurn(std::uint64_t seed) {
    records_.allocate(kThreads * kOpsPerThread);
    log_.dequeued.resize(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      Rng rng(seed * 0x100 + 0x20 + static_cast<std::uint64_t>(t));
      auto& ops = ops_[static_cast<std::size_t>(t)];
      ops.resize(kOpsPerThread);
      std::uint64_t seq = 0;
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
        ops[i] = rng.below(2) == 0 ? checks::queue_value(t, seq++) : -1;
      }
      log_.enqueued.push_back(seq);
      reserve_resident(log_.dequeued[static_cast<std::size_t>(t)],
                       kOpsPerThread - seq);
    }
  }

  int threads() const override { return kThreads; }

  Round round(bool traced) override {
    Round r;
    Registry registry;
    checks::QueueLog& log = log_;
    for (auto& d : log.dequeued) d.clear();
    log.drained.clear();
    std::array<std::uint64_t, kThreads> empty{};
    const std::uint64_t setup_begin = now_ns();
    apram::PolylogQueueRT queue(kThreads);
    if (traced) queue.attach_obs(registry, "queue");
    const std::uint64_t heap_before = traced ? heap_in_use_bytes() : 0;
    timed_phase(r, records_, kThreads, kOpsPerThread, setup_begin, traced,
                Split::kPerThread,
                [&](int t, std::uint64_t i) -> std::uint8_t {
                  const auto ti = static_cast<std::size_t>(t);
                  const std::int64_t v = ops_[ti][i];
                  if (v >= 0) {
                    queue.enqueue(t, v);
                    return kEnqueue;
                  }
                  const std::int64_t got = queue.dequeue(t);
                  if (got == -1) {
                    ++empty[ti];
                  } else {
                    log.dequeued[ti].push_back(got);
                  }
                  return kDequeue;
                });
    const std::uint64_t heap_after = traced ? heap_in_use_bytes() : 0;
    if (traced) {
      queue.export_reclaim_gauges(registry, "queue");
      queue.export_contention_gauges(registry, "farray");
      rt_layer(r, registry, {"queue"});
      farray_layer(r, registry, static_cast<double>(r.ops));
    }

    for (std::int64_t v = queue.dequeue(0); v != -1; v = queue.dequeue(0)) {
      log.drained.push_back(v);
    }
    r.failed = checks::queue(log);

    if (traced) {
      kind_percentiles(r, kEnqueue, "queue.enqueue", false);
      kind_percentiles(r, kDequeue, "queue.dequeue", false);
      // What the queue keeps per op, which is what its RSS grows by. The
      // heap's in-use bytes, unlike RSS, do not depend on which freed pages
      // the allocator still holds. The round's copy of its records is on
      // the heap too; take it out.
      const double records =
          static_cast<double>(r.lat_ns.capacity() * sizeof(std::uint32_t) +
                              r.kinds.capacity() +
                              r.start_ns.capacity() * sizeof(std::uint64_t));
      r.layer["queue.rss_bytes_per_op"] =
          (static_cast<double>(heap_after - heap_before) - records) /
          static_cast<double>(r.ops);
      double dequeues = 0;
      double empties = 0;
      for (int t = 0; t < kThreads; ++t) {
        empties += static_cast<double>(empty[static_cast<std::size_t>(t)]);
        dequeues += static_cast<double>(
            empty[static_cast<std::size_t>(t)] +
            log.dequeued[static_cast<std::size_t>(t)].size());
      }
      r.layer["queue.empty_dequeue_ratio"] = ratio(empties, dequeues);
    }
    return r;
  }

 private:
  std::array<std::vector<std::int64_t>, kThreads> ops_;  // -1 = dequeue
  checks::QueueLog log_;
};

// ---------------------------------------------------------------------------
// sim_campaign: fault::certify_wait_freedom over simulator executions of
// TreeScan<SimBackend> with n = 8; each process runs update + scan four
// times. One op is one certified schedule, judged at the contended farray
// bound 1+8h per update plus the scan semantics.

constexpr int kSimProcs = 8;
constexpr int kSimRepeats = 4;

struct TreeExec final : apram::sim::Execution {
  explicit TreeExec(const std::vector<std::int64_t>& values)
      : values(values), w(kSimProcs), mem(w, "t"), tree(mem, kSimProcs) {
    for (int pid = 0; pid < kSimProcs; ++pid) {
      w.spawn(pid, [this, pid](apram::sim::Context ctx)
                       -> apram::sim::ProcessTask {
        for (int k = 0; k < kSimRepeats; ++k) {
          co_await tree.update(ctx, value(pid, k));
          const std::int64_t s = co_await tree.scan(ctx);
          const auto p = static_cast<std::size_t>(pid);
          scans[p][static_cast<std::size_t>(k)] = s;
          ++completed[p];
        }
      });
    }
  }
  apram::sim::World& world() override { return w; }
  std::int64_t value(int pid, int k) const {
    return values[static_cast<std::size_t>(pid * kSimRepeats + k)];
  }

  const std::vector<std::int64_t>& values;
  apram::sim::World w;
  apram::api::SimBackend::Mem mem;
  apram::snapshot::TreeScan<apram::api::SimBackend, MaxL> tree;
  std::array<std::array<std::int64_t, kSimRepeats>, kSimProcs> scans{};
  std::array<int, kSimProcs> completed{};  // scans returned (a crash stops it)
};

class SimCampaign final : public Workload {
 public:
  static constexpr std::uint64_t kSchedules = 6000;  // per round

  explicit SimCampaign(std::uint64_t seed) {
    records_.allocate(kSchedules);
    build_s_.assign(kSchedules, 0.0);
    Rng rng(seed * 0x100 + 0x30);
    base_seed_ = rng.next() >> 16;
    for (int pid = 0; pid < kSimProcs; ++pid) {
      for (int k = 0; k < kSimRepeats; ++k) {
        const std::int64_t v =
            static_cast<std::int64_t>((k + 1) << 20) +
            static_cast<std::int64_t>(rng.below(1 << 20));
        values_.push_back(v);
        max_value_ = std::max(max_value_, v);
      }
    }
  }

  // Four independent campaign workers, each simulating one schedule at a
  // time and taking the next from a shared counter: the simulator itself is
  // single-threaded, and one worker per vCPU averages out how fast each vCPU
  // happens to be during the run.
  int threads() const override { return kThreads; }

  Round round(bool traced) override {
    Round r;
    const apram::fault::Judge judge = make_judge(update_bound(), max_value_);
    // The certifier builds one execution (World, TreeScan registers, eight
    // spawned processes) per schedule through its factory; timing the
    // builds there gives the campaign's set-up per schedule.
    std::array<std::uint64_t, kThreads> schedule{};  // each worker's current
    std::vector<apram::sim::ExecutionFactory> factories;
    for (std::size_t t = 0; t < kThreads; ++t) {
      factories.push_back([this, &schedule, t] {
        const std::uint64_t t0 = now_ns();
        auto e = std::make_unique<TreeExec>(values_);
        build_s_[schedule[t]] = static_cast<double>(now_ns() - t0) * 1e-9;
        return e;
      });
    }
    std::array<double, kThreads> faults{};
    std::array<std::uint64_t, kThreads> uncertified{};
    timed_phase(r, records_, kThreads, kSchedules / kThreads, now_ns(),
                traced, Split::kShared,
                [&](int t, std::uint64_t i) -> std::uint8_t {
                  const auto ti = static_cast<std::size_t>(t);
                  schedule[ti] = i;
                  apram::fault::CampaignOptions opts;
                  opts.schedules = 1;
                  opts.base_seed = base_seed_ + i;
                  const apram::fault::CampaignResult res =
                      apram::fault::certify_wait_freedom(factories[ti], judge,
                                                         opts);
                  if (!res.certified()) ++uncertified[ti];
                  faults[ti] += static_cast<double>(res.crashes_fired +
                                                    res.stall_deflections +
                                                    res.burst_grants);
                  return kSchedule;
                });
    r.setup_s = median(build_s_);
    for (const std::uint64_t u : uncertified) r.failed += u;

    if (traced) {
      // The same executions under a plain RandomScheduler, no certifier.
      Round plain;
      std::array<double, kThreads> grants{};
      std::array<double, kThreads> run_ns{};
      std::array<std::uint64_t, kThreads> unfinished{};
      timed_phase(plain, records_, kThreads, kSchedules / kThreads, now_ns(),
                  false, Split::kShared,
                  [&](int t, std::uint64_t i) -> std::uint8_t {
                    const auto ti = static_cast<std::size_t>(t);
                    TreeExec e(values_);
                    apram::sim::RandomScheduler sched(base_seed_ + i);
                    const std::uint64_t t0 = now_ns();
                    const apram::sim::RunResult res = e.world().run(sched);
                    run_ns[ti] += static_cast<double>(now_ns() - t0);
                    grants[ti] += static_cast<double>(res.steps_taken);
                    if (!res.all_done) ++unfinished[ti];
                    return kSchedule;
                  });
      for (const std::uint64_t u : unfinished) r.failed += u;
      const double total_grants =
          std::accumulate(grants.begin(), grants.end(), 0.0);
      const auto n = static_cast<double>(r.ops);
      r.layer["sim.grants_per_s"] =
          total_grants /
          (std::accumulate(run_ns.begin(), run_ns.end(), 0.0) * 1e-9);
      r.layer["sim.grants_per_schedule"] = total_grants / n;
      r.layer["fault.certify_overhead_ratio"] =
          r.mean_ns / plain.mean_ns;
      r.layer["fault.faults_per_schedule"] =
          std::accumulate(faults.begin(), faults.end(), 0.0) / n;
    }
    return r;
  }

  // Campaigns with a planted defect in the judge's inputs must not certify.
  bool self_test(std::string* report) const {
    const apram::sim::ExecutionFactory factory = [this] {
      return std::make_unique<TreeExec>(values_);
    };
    apram::fault::CampaignOptions opts;
    opts.schedules = 1;
    opts.base_seed = base_seed_;
    // A bound below one solo update, then scans judged against a maximum
    // below every value written.
    const bool tight_caught = !apram::fault::certify_wait_freedom(
                                   factory, make_judge({1, 1}, max_value_),
                                   opts)
                                   .certified();
    const bool stale_caught = !apram::fault::certify_wait_freedom(
                                   factory, make_judge(update_bound(), 0),
                                   opts)
                                   .certified();
    if (report != nullptr && !(tight_caught && stale_caught)) {
      *report = std::string("check self-test missed: sim campaign ") +
                (tight_caught ? "scan above the maximum" : "too-tight bound");
    }
    return tight_caught && stale_caught;
  }

 private:
  // Per-process bound: kSimRepeats × (contended update + one-read scan).
  // A contended update reads 6h and writes 1+2h (1+8h accesses in all).
  static apram::fault::StepBound update_bound() {
    const auto h = static_cast<std::uint64_t>(
        apram::farray::farray_height(kSimProcs));
    return {kSimRepeats * (6 * h + 1), kSimRepeats * (1 + 2 * h)};
  }

  static apram::fault::Judge make_judge(apram::fault::StepBound bound,
                                        std::int64_t max) {
    return [steps = apram::fault::step_bound_judge(
                std::vector<apram::fault::StepBound>(kSimProcs, bound)),
            max](apram::sim::Execution& e) -> std::string {
      std::string v = steps(e);
      if (!v.empty()) return v;
      const auto& x = static_cast<const TreeExec&>(e);
      for (int pid = 0; pid < kSimProcs; ++pid) {
        const auto p = static_cast<std::size_t>(pid);
        std::int64_t prev = MaxL::bottom();
        for (int k = 0; k < x.completed[p]; ++k) {
          const std::int64_t s = x.scans[p][static_cast<std::size_t>(k)];
          if (s < prev || s < x.value(pid, k) || s > max) {
            return "pid " + std::to_string(pid) + ": scan " +
                   std::to_string(k) + " returned " + std::to_string(s);
          }
          prev = s;
        }
      }
      return "";
    };
  }

  std::vector<std::int64_t> values_;  // [pid * kSimRepeats + k]
  std::vector<double> build_s_;       // [schedule]: its execution's build
  std::int64_t max_value_ = 0;
  std::uint64_t base_seed_ = 0;
};

}  // namespace

bool is_rt_workload(const std::string& name) {
  return name == "snapshot_update" || name == "connectivity" ||
         name == "queue_churn";
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "snapshot_update") return std::make_unique<SnapshotUpdate>(seed);
  if (name == "connectivity") return std::make_unique<Connectivity>(seed);
  if (name == "queue_churn") return std::make_unique<QueueChurn>(seed);
  if (name == "sim_campaign") return std::make_unique<SimCampaign>(seed);
  return nullptr;
}

bool sim_self_test(std::uint64_t seed, std::string* report) {
  return SimCampaign(seed).self_test(report);
}

}  // namespace perfbench
