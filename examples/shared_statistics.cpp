// Consistent live statistics with wait-free snapshots (real threads).
//
// Scenario: worker threads stream items through a pipeline and keep two
// per-worker tallies — items admitted and items completed. An observer
// thread periodically reports "in flight" = admitted − completed, summed
// across workers.
//
// The catch: reading tallies one register at a time can pair an old
// `admitted` with a new `completed` (or the reverse) and report nonsense —
// including *negative* in-flight counts. Reading them through one atomic
// snapshot makes every report a consistent cut: in-flight is always between
// 0 and the pipeline's capacity.
//
// Each worker publishes both tallies in its snapshot slot; the invariant
// holds in every single snapshot view but is routinely violated by the
// naive register-by-register observer.
#include <atomic>
#include <cstdio>

#include "rt/register.hpp"
#include "rt/thread_harness.hpp"
#include "snapshot/atomic_snapshot.hpp"
#include "snapshot/lattice_scan.hpp"

using namespace apram;

namespace {

struct Tally {
  std::int64_t admitted = 0;
  std::int64_t completed = 0;

  friend bool operator==(const Tally&, const Tally&) = default;
};

constexpr int kWorkers = 3;
constexpr int kItemsPerWorker = 30000;
constexpr std::int64_t kWindow = 4;  // per-worker in-flight bound

}  // namespace

int main() {
  // Consistent path: both tallies live in ONE snapshot slot per worker.
  rt::AtomicSnapshotRT<Tally> snapshot(kWorkers + 1);  // +1 = observer slot
  // Naive path: two separate registers per worker.
  using Reg = rt::ArenaRegister<std::int64_t>;
  std::vector<std::unique_ptr<Reg>> admitted_reg;
  std::vector<std::unique_ptr<Reg>> completed_reg;
  for (int i = 0; i < kWorkers; ++i) {
    admitted_reg.push_back(std::make_unique<Reg>(0));
    completed_reg.push_back(std::make_unique<Reg>(0));
  }

  std::atomic<bool> done{false};
  std::atomic<std::int64_t> naive_violations{0};
  std::atomic<std::int64_t> snapshot_violations{0};
  std::atomic<std::int64_t> reports{0};

  rt::parallel_run(kWorkers + 1, [&](int pid) {
    if (pid < kWorkers) {
      // Worker: admit a small burst, then complete it.
      Tally t;
      for (int item = 0; item < kItemsPerWorker; ++item) {
        ++t.admitted;
        // Publish "admitted" first in both schemes (same store order).
        admitted_reg[static_cast<std::size_t>(pid)]->write(t.admitted);
        snapshot.update(pid, t);
        if (t.admitted - t.completed == kWindow) {
          t.completed += kWindow;
          completed_reg[static_cast<std::size_t>(pid)]->write(t.completed);
          snapshot.update(pid, t);
        }
      }
      t.completed = t.admitted;  // drain
      completed_reg[static_cast<std::size_t>(pid)]->write(t.completed);
      snapshot.update(pid, t);
      if (pid == 0) done.store(true);  // first worker done ends the demo
    } else {
      // Observer: compare the two read paths until workers finish.
      while (!done.load(std::memory_order_acquire)) {
        // Naive: completed read BEFORE admitted, per worker — a stale
        // admitted paired with a fresh completed goes negative.
        std::int64_t naive_inflight = 0;
        for (int w = 0; w < kWorkers; ++w) {
          const std::int64_t c =
              completed_reg[static_cast<std::size_t>(w)]->read();
          const std::int64_t a =
              admitted_reg[static_cast<std::size_t>(w)]->read();
          naive_inflight += a - c;
        }
        if (naive_inflight < 0 || naive_inflight > kWorkers * kWindow) {
          naive_violations.fetch_add(1, std::memory_order_relaxed);
        }

        // Consistent: one snapshot — per-slot tallies are internally
        // consistent and the cut is instantaneous.
        std::int64_t snap_inflight = 0;
        for (const auto& slot : snapshot.scan(kWorkers)) {
          if (slot.has_value()) {
            snap_inflight += slot->admitted - slot->completed;
          }
        }
        if (snap_inflight < 0 || snap_inflight > kWorkers * kWindow) {
          snapshot_violations.fetch_add(1, std::memory_order_relaxed);
        }
        reports.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  std::printf("observer reports           : %lld\n",
              static_cast<long long>(reports.load()));
  std::printf("naive-path invariant breaks: %lld\n",
              static_cast<long long>(naive_violations.load()));
  std::printf("snapshot-path breaks       : %lld  (must be 0)\n",
              static_cast<long long>(snapshot_violations.load()));
  std::printf("\nthe snapshot path is a consistent cut: 'in flight' stays in "
              "[0, %lld] in every report.\n",
              static_cast<long long>(kWorkers * kWindow));
  return snapshot_violations.load() == 0 ? 0 : 1;
}
