// perfbench — one run of one workload of the libapram benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//   perfbench --self-test
//
// Untraced runs repeat count-based rounds until S seconds have passed and
// report the end-to-end figures as medians over rounds. Traced runs price
// the cost ladder, alternate untraced and traced rounds of the workload,
// and report every per-layer figure; a figure of a layer this workload
// does not drive comes from one probe round pair of each other workload.
// The last line of output is the result:
//   {"correct":…,"attempted":…,"failed":…,"values":{…},"samples":{…}}
// perfbench/run.py builds this binary and turns that line into the
// benchmark's result line.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "checks.hpp"
#include "common.hpp"

namespace perfbench {
namespace {

constexpr int kMinRounds = 3;
constexpr double kMiB = 1024.0 * 1024.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
  std::string spans;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--spans") {
      a.spans = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  return a;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_object(const Metrics& m) {
  std::string s = "{";
  for (const auto& [k, v] : m) {
    if (s.size() > 1) s += ",";
    s += "\"" + k + "\":" + json_number(v);
  }
  return s + "}";
}

struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(const Round& r) {
    attempted += r.ops;
    failed += r.failed;
  }
};

double throughput(const Round& r) {
  return static_cast<double>(r.ops) / r.timed_s;
}

// Median of each key over the rounds' per-layer maps.
Metrics median_layers(const std::vector<Round>& rounds) {
  std::map<std::string, std::vector<double>> all;
  for (const Round& r : rounds) {
    for (const auto& [k, v] : r.layer) all[k].push_back(v);
  }
  Metrics out;
  for (auto& [k, v] : all) out[k] = median(v);
  return out;
}

// L3 ≈ accesses × L1 + local work: the register share of the mean op time
// and what neither the registers nor the timing harness explain.
void add_ladder(Metrics& out, const Metrics& layer, double mean_op_ns,
                const Metrics& ladder) {
  const double reg_ns =
      layer.at("reads_per_op") * ladder.at("rt.reg_read_ns") +
      layer.at("writes_per_op") * ladder.at("rt.reg_write_ns") +
      layer.at("cas_per_op") * ladder.at("rt.reg_cas_ns");
  out["ladder.register_share"] = reg_ns / mean_op_ns;
  out["ladder.residual_ns"] =
      mean_op_ns - reg_ns - ladder.at("harness.timing_floor_ns");
}

// Untraced and traced rounds of one workload, in pairs.
struct Measured {
  std::vector<double> untraced_tput, traced_tput, untraced_mean_ns;
  std::vector<Round> traced;
};

Measured measure(Workload& w, double seconds, int min_each, Totals& totals) {
  Measured m;
  const std::uint64_t start = now_ns();
  for (int pair = 0; static_cast<int>(m.traced.size()) < min_each ||
                     static_cast<double>(now_ns() - start) * 1e-9 < seconds;
       ++pair) {
    // The kind that runs first alternates, so that neither is favoured by
    // its place in the pair.
    for (const bool traced : {pair % 2 == 1, pair % 2 == 0}) {
      Round r = w.round(traced);
      totals.add(r);
      if (traced) {
        m.traced_tput.push_back(throughput(r));
        m.traced.push_back(std::move(r));
      } else {
        m.untraced_tput.push_back(throughput(r));
        m.untraced_mean_ns.push_back(r.mean_ns);
      }
      // Fresh pages for the next round's objects, so that the RSS delta
      // over a construction (rt.bytes_per_register) is their size.
      release_free_memory();
    }
  }
  return m;
}

void write_spans(const std::string& path, const std::string& workload,
                 const Round& r) {
  std::ofstream f(path);
  f << "{\"workload\":\"" << workload << "\",\"kinds\":{";
  bool first = true;
  for (int k = 0; k < kNumKinds; ++k) {
    const std::vector<double> lat = latencies_of(r, static_cast<Kind>(k));
    if (lat.empty()) continue;
    f << (first ? "" : ",") << "\"" << kind_name(static_cast<Kind>(k))
      << "\":{\"count\":" << lat.size()
      << ",\"mean_ns\":" << json_number(mean(lat))
      << ",\"p50_ns\":" << json_number(percentile(lat, 0.5))
      << ",\"p99_ns\":" << json_number(percentile(lat, 0.99)) << "}";
    first = false;
  }
  // The first spans by slot (thread 0's, unless the workload shares its
  // ops out): [kind, start ns from round start, ns].
  f << "},\"spans\":[";
  const std::size_t n = std::min<std::size_t>(r.start_ns.size(), 4096);
  const std::uint64_t t0 =
      r.start_ns.empty()
          ? 0
          : *std::min_element(r.start_ns.begin(), r.start_ns.end());
  for (std::size_t i = 0; i < n; ++i) {
    const char* kind = kind_name(static_cast<Kind>(r.kinds[i]));
    f << (i == 0 ? "" : ",") << "[\"" << kind << "\"," << r.start_ns[i] - t0
      << "," << r.lat_ns[i] << "]";
  }
  f << "]}\n";
}

// Compile-time facts for the run's metadata stamp.
void print_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const bool sanitizer = true;
#else
  const bool sanitizer = false;
#endif
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#if defined(APRAM_OBS_CONTENTION_OFF)
  const bool contention = false;
#else
  const bool contention = true;
#endif
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#else
  const char* compiler = "gcc " __VERSION__;
#endif
  std::printf(
      "{\"build\":{\"compiler\":\"%s\",\"build_type\":\"%s\","
      "\"obs_contention\":%s,\"sanitizer\":%s,\"optimized\":%s}}\n",
      compiler, PERFBENCH_BUILD_TYPE, contention ? "true" : "false",
      sanitizer ? "true" : "false", optimized ? "true" : "false");
}

int run(const Args& a) {
  print_build();
  std::string report;
  bool checks_ok = checks::self_test(&report) && sim_self_test(a.seed, &report);
  if (!checks_ok) std::fprintf(stderr, "perfbench: %s\n", report.c_str());
  if (a.self_test) {
    std::printf("%s\n", checks_ok ? "check self-test passed" : report.c_str());
    return checks_ok ? 0 : 1;
  }
  std::unique_ptr<Workload> w = make_workload(a.workload, a.seed);
  if (!w) usage("unknown workload '" + a.workload + "'");

  // Peak RSS is reported above this baseline: the inputs and the buffers
  // every round reuses are already resident.
  release_free_memory();
  const std::uint64_t baseline_rss = rss_bytes();

  Totals totals;
  Metrics values;
  Metrics samples;
  samples["threads"] = w->threads();
  samples["baseline_rss_mb"] = static_cast<double>(baseline_rss) / kMiB;
  if (!a.trace) {
    // Freed heap pages are not handed back between these rounds; the next
    // round reuses them. Trimming and refaulting them made the high-water
    // mark and set-up time vary with how the two interleaved, and with how
    // busy the host was.
    std::vector<double> tput, p50, p99, setup;
    const std::uint64_t start = now_ns();
    while (static_cast<int>(tput.size()) < kMinRounds ||
           static_cast<double>(now_ns() - start) * 1e-9 < a.seconds) {
      Round r = w->round(false);
      totals.add(r);
      tput.push_back(throughput(r));
      p50.push_back(r.p50_ns);
      p99.push_back(r.p99_ns);
      setup.push_back(r.setup_s);
    }
    values["throughput_ops_s"] = median(tput);
    values["op_p50_us"] = median(p50) * 1e-3;
    values["op_p99_us"] = median(p99) * 1e-3;
    values["peak_rss_mb"] =
        static_cast<double>(peak_rss_bytes() - baseline_rss) / kMiB;
    values["setup_s"] = median(setup);
    samples["ops"] = static_cast<double>(totals.attempted);
    samples["rounds"] = static_cast<double>(tput.size());
  } else {
    const Metrics ladder = cost_ladder();
    values = ladder;
    const Measured m = measure(*w, a.seconds, 2, totals);
    const Metrics mine = median_layers(m.traced);
    for (const auto& [k, v] : mine) values[k] = v;
    values["obs.trace_overhead_ratio"] =
        median(m.untraced_tput) / median(m.traced_tput);
    if (is_rt_workload(a.workload)) {
      add_ladder(values, mine, median(m.untraced_mean_ns), ladder);
    }
    if (!a.spans.empty()) write_spans(a.spans, a.workload, m.traced.back());
    samples["ops"] = static_cast<double>(totals.attempted);
    samples["rounds"] = static_cast<double>(m.traced.size());

    // Layers this workload does not drive: one probe round pair of each
    // other workload, the first one that measures a figure supplying it.
    for (const char* other : kWorkloads) {
      if (a.workload == other) continue;
      std::unique_ptr<Workload> probe = make_workload(other, a.seed);
      const Measured pm = measure(*probe, 0, 1, totals);
      Metrics theirs = median_layers(pm.traced);
      if (is_rt_workload(other)) {
        add_ladder(theirs, theirs, median(pm.untraced_mean_ns), ladder);
      }
      for (const auto& [k, v] : theirs) values.emplace(k, v);
    }
    values["failed_op_ratio"] = static_cast<double>(totals.failed) /
                                static_cast<double>(totals.attempted);
  }

  const bool correct = checks_ok && totals.failed == 0;
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"values\":%s,"
      "\"samples\":%s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(totals.attempted),
      static_cast<unsigned long long>(
          std::min(totals.failed, totals.attempted)),
      json_object(values).c_str(), json_object(samples).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse(argc, argv));
}
