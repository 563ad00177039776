// Correctness checks on what the workloads observed. They run after the
// timed window, on logs the workers filled in, and count violations; the
// counts feed `failed` and failed_op_ratio. self_test() plants a defect in
// a clean log for every check and confirms the check catches it, so a
// faster but wrong library cannot pass unnoticed.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench::checks {

// snapshot_update. Each scan is recorded with the largest value its thread
// had written before issuing it.
struct ScanObs {
  std::int64_t got = 0;
  std::int64_t own_floor = 0;
};
struct SnapshotLog {
  std::vector<std::vector<ScanObs>> scans;  // [thread], in issue order
  std::int64_t max_written = 0;
  std::int64_t final_scan = 0;  // a quiescent scan after the join
};
// Per thread, scans never decrease and never miss the thread's own earlier
// writes; no scan exceeds the maximum written; the final scan equals it.
std::uint64_t snapshot(const SnapshotLog& log);

// queue_churn. Producer p's k-th enqueued value is queue_value(p, k).
std::int64_t queue_value(int producer, std::uint64_t seq);
struct QueueLog {
  std::vector<std::uint64_t> enqueued;               // [producer] count
  std::vector<std::vector<std::int64_t>> dequeued;   // [consumer], non-empty
  std::vector<std::int64_t> drained;  // quiescent drain after the join
};
// No value is dequeued twice or invented; each consumer sees each
// producer's values in FIFO order; nothing drained is older than a value of
// the same producer dequeued earlier; the drained remainder equals enqueues
// minus successful dequeues, with nothing lost.
std::uint64_t queue(const QueueLog& log);

// connectivity.
struct SameSetQuery {
  std::int32_t a = 0;
  std::int32_t b = 0;
  bool united_before = false;  // this thread had united (a, b) before asking
  bool got = false;
};
struct CounterRead {
  std::int64_t got = 0;
  std::int64_t own_incs = 0;  // incs this thread completed before the read
};
struct ConnectivityLog {
  int universe = 0;
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;  // every unite
  std::vector<std::vector<SameSetQuery>> queries;  // [thread], in-run
  std::vector<bool> edge_same_set;  // quiescent same_set for each edge
  std::int64_t num_sets = 0;        // quiescent num_sets
  std::vector<std::vector<CounterRead>> counter_reads;  // [thread]
  std::int64_t counter_final = 0;  // quiescent read
  std::int64_t incs = 0;           // incs issued in total
};
// The sequential union-find after uniting `edges`: each element's
// representative.
std::vector<std::int32_t> oracle_components(
    int universe,
    const std::vector<std::pair<std::int32_t, std::int32_t>>& edges);
// An in-run same_set answers true for a pair its thread had already united,
// and answers true only for pairs the oracle connects (sets only merge).
// At quiescence same_set holds for every united pair and num_sets equals
// the oracle's. Counter reads never decrease, never miss the thread's own
// incs, never exceed the total; the final read equals the total incs.
std::uint64_t connectivity(const ConnectivityLog& log);

// Runs every check on a clean log (expects 0) and on planted defects
// (expects > 0). Returns false and describes the first miss otherwise.
bool self_test(std::string* report);

}  // namespace perfbench::checks
