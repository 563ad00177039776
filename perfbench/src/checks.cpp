#include "checks.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

namespace perfbench::checks {

namespace {

constexpr int kSeqBits = 40;
constexpr std::int64_t kSeqMask = (std::int64_t{1} << kSeqBits) - 1;

}  // namespace

std::uint64_t snapshot(const SnapshotLog& log) {
  std::uint64_t failed = 0;
  for (const auto& thread : log.scans) {
    std::int64_t prev = std::numeric_limits<std::int64_t>::min();
    for (const ScanObs& s : thread) {
      if (s.got < prev || s.got < s.own_floor || s.got > log.max_written) {
        ++failed;
      }
      prev = std::max(prev, s.got);
    }
  }
  if (log.final_scan != log.max_written) ++failed;
  return failed;
}

std::int64_t queue_value(int producer, std::uint64_t seq) {
  return (static_cast<std::int64_t>(producer) << kSeqBits) |
         static_cast<std::int64_t>(seq);
}

std::uint64_t queue(const QueueLog& log) {
  const std::size_t producers = log.enqueued.size();
  std::vector<std::vector<char>> seen(producers);
  for (std::size_t p = 0; p < producers; ++p) {
    seen[p].assign(log.enqueued[p], 0);
  }
  std::vector<std::int64_t> max_dequeued(producers, -1);
  std::uint64_t failed = 0;
  std::uint64_t dequeues = 0;
  // Marks v seen; returns its producer, or -1 if v is invented or repeated.
  const auto take = [&](std::int64_t v) -> int {
    if (v < 0) return -1;
    const auto p = static_cast<std::size_t>(v >> kSeqBits);
    const auto seq = static_cast<std::uint64_t>(v & kSeqMask);
    if (p >= producers || seq >= log.enqueued[p] || seen[p][seq] != 0) {
      return -1;
    }
    seen[p][seq] = 1;
    return static_cast<int>(p);
  };
  for (const auto& consumer : log.dequeued) {
    std::vector<std::int64_t> last(producers, -1);
    for (const std::int64_t v : consumer) {
      ++dequeues;
      const int p = take(v);
      if (p < 0) {
        ++failed;
        continue;
      }
      const auto pi = static_cast<std::size_t>(p);
      const std::int64_t seq = v & kSeqMask;
      if (seq <= last[pi]) ++failed;
      last[pi] = seq;
      max_dequeued[pi] = std::max(max_dequeued[pi], seq);
    }
  }
  std::vector<std::int64_t> last(producers, -1);
  for (const std::int64_t v : log.drained) {
    const int p = take(v);
    if (p < 0) {
      ++failed;
      continue;
    }
    const auto pi = static_cast<std::size_t>(p);
    const std::int64_t seq = v & kSeqMask;
    if (seq <= last[pi] || seq <= max_dequeued[pi]) ++failed;
    last[pi] = seq;
  }
  const std::uint64_t enqueues =
      std::accumulate(log.enqueued.begin(), log.enqueued.end(),
                      std::uint64_t{0});
  if (log.drained.size() + dequeues != enqueues) ++failed;
  for (const auto& s : seen) {
    failed += static_cast<std::uint64_t>(std::count(s.begin(), s.end(), 0));
  }
  return failed;
}

std::vector<std::int32_t> oracle_components(
    int universe,
    const std::vector<std::pair<std::int32_t, std::int32_t>>& edges) {
  std::vector<std::int32_t> parent(static_cast<std::size_t>(universe));
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&](std::int32_t x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      auto& px = parent[static_cast<std::size_t>(x)];
      px = parent[static_cast<std::size_t>(px)];
      x = px;
    }
    return x;
  };
  for (const auto& [a, b] : edges) {
    const std::int32_t ra = find(a);
    const std::int32_t rb = find(b);
    if (ra != rb) {
      parent[static_cast<std::size_t>(std::max(ra, rb))] = std::min(ra, rb);
    }
  }
  for (std::int32_t x = 0; x < universe; ++x) {
    parent[static_cast<std::size_t>(x)] = find(x);
  }
  return parent;
}

std::uint64_t connectivity(const ConnectivityLog& log) {
  std::uint64_t failed = 0;
  if (log.edge_same_set.size() != log.edges.size()) ++failed;
  failed += static_cast<std::uint64_t>(
      std::count(log.edge_same_set.begin(), log.edge_same_set.end(), false));
  const std::vector<std::int32_t> rep =
      oracle_components(log.universe, log.edges);
  std::int64_t sets = 0;
  for (std::int32_t x = 0; x < log.universe; ++x) {
    sets += rep[static_cast<std::size_t>(x)] == x ? 1 : 0;
  }
  if (log.num_sets != sets) ++failed;
  for (const auto& thread : log.queries) {
    for (const SameSetQuery& q : thread) {
      const bool connected = rep[static_cast<std::size_t>(q.a)] ==
                             rep[static_cast<std::size_t>(q.b)];
      if ((q.united_before && !q.got) || (q.got && !connected)) ++failed;
    }
  }
  for (const auto& thread : log.counter_reads) {
    std::int64_t prev = 0;
    for (const CounterRead& r : thread) {
      if (r.got < prev || r.got < r.own_incs || r.got > log.incs) ++failed;
      prev = std::max(prev, r.got);
    }
  }
  if (log.counter_final != log.incs) ++failed;
  return failed;
}

namespace {

SnapshotLog clean_snapshot() {
  SnapshotLog log;
  log.scans = {{{5, 5}, {7, 6}, {9, 9}}, {{6, 0}, {9, 8}}};
  log.max_written = 9;
  log.final_scan = 9;
  return log;
}

QueueLog clean_queue() {
  QueueLog log;
  log.enqueued = {3, 2};
  log.dequeued = {{queue_value(0, 0), queue_value(1, 0)}, {queue_value(0, 1)}};
  log.drained = {queue_value(1, 1), queue_value(0, 2)};
  return log;
}

ConnectivityLog clean_connectivity() {
  ConnectivityLog log;
  log.universe = 6;
  log.edges = {{0, 1}, {2, 3}, {1, 0}, {3, 4}};
  log.queries = {
      {{0, 1, true, true}, {0, 5, false, false}, {2, 4, false, true}},
      {{3, 4, false, false}}};
  log.edge_same_set = {true, true, true, true};
  log.num_sets = 3;  // {0,1} {2,3,4} {5}
  log.counter_reads = {{{1, 1}, {3, 2}}, {{2, 0}}};
  log.counter_final = 4;
  log.incs = 4;
  return log;
}

struct Case {
  const char* name;
  std::uint64_t failures;
  bool expect_clean;
};

}  // namespace

bool self_test(std::string* report) {
  std::vector<Case> cases;
  cases.push_back({"snapshot clean", snapshot(clean_snapshot()), true});
  {
    SnapshotLog log = clean_snapshot();
    std::swap(log.scans[0][1], log.scans[0][2]);  // non-monotone scans
    cases.push_back({"snapshot non-monotone scan", snapshot(log), false});
  }
  {
    SnapshotLog log = clean_snapshot();
    log.scans[1][0].own_floor = 7;  // a scan misses its own write
    cases.push_back({"snapshot missed own write", snapshot(log), false});
  }
  {
    SnapshotLog log = clean_snapshot();
    log.final_scan = 8;
    cases.push_back({"snapshot final scan below max", snapshot(log), false});
  }
  cases.push_back({"queue clean", queue(clean_queue()), true});
  {
    QueueLog log = clean_queue();
    log.dequeued[1].push_back(queue_value(1, 0));  // duplicated dequeue
    cases.push_back({"queue duplicated dequeue", queue(log), false});
  }
  {
    QueueLog log = clean_queue();
    log.dequeued[0] = {queue_value(0, 1), queue_value(0, 0)};  // FIFO broken
    log.dequeued[1] = {queue_value(1, 0)};
    cases.push_back({"queue producer order reversed", queue(log), false});
  }
  {
    QueueLog log = clean_queue();
    log.drained.pop_back();  // a value lost
    cases.push_back({"queue lost value", queue(log), false});
  }
  cases.push_back(
      {"connectivity clean", connectivity(clean_connectivity()), true});
  {
    ConnectivityLog log = clean_connectivity();
    log.num_sets = 2;  // wrong set count
    cases.push_back({"connectivity wrong set count", connectivity(log), false});
  }
  {
    ConnectivityLog log = clean_connectivity();
    log.edge_same_set[3] = false;  // a united pair reported apart
    cases.push_back(
        {"connectivity united pair apart", connectivity(log), false});
  }
  {
    ConnectivityLog log = clean_connectivity();
    log.queries[0][0].got = false;  // an own united edge reported apart
    cases.push_back(
        {"connectivity in-run own edge apart", connectivity(log), false});
  }
  {
    ConnectivityLog log = clean_connectivity();
    log.queries[0][1].got = true;  // a pair never united reported together
    cases.push_back(
        {"connectivity in-run false together", connectivity(log), false});
  }
  {
    ConnectivityLog log = clean_connectivity();
    log.counter_final = 3;  // an inc lost
    cases.push_back(
        {"connectivity counter lost inc", connectivity(log), false});
  }
  {
    ConnectivityLog log = clean_connectivity();
    log.counter_reads[0][1].got = 0;  // a read goes backwards
    cases.push_back(
        {"connectivity counter regressed", connectivity(log), false});
  }
  for (const Case& c : cases) {
    if ((c.failures == 0) != c.expect_clean) {
      if (report != nullptr) {
        *report = std::string("check self-test missed: ") + c.name + " (" +
                  std::to_string(c.failures) + " failures)";
      }
      return false;
    }
  }
  return true;
}

}  // namespace perfbench::checks
