// Shared helpers for the experiment binaries (bench/bench_e*.cpp).
//
// Every binary runs with no arguments (flags can narrow/widen sweeps),
// prints one or more tables to stdout, and finishes in seconds — together
// they regenerate every quantitative claim in the paper (see DESIGN.md §3
// for the experiment index and EXPERIMENTS.md for recorded results).
#pragma once

#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "agreement/approx_agreement.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/scheduler.hpp"
#include "sim/world.hpp"
#include "util/assert.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace apram::bench {

// Host facts, read (never written) from /proc. Steal ticks count the time
// the hypervisor ran another guest on this one's CPUs (the 8th field of
// /proc/stat's "cpu" line, in USER_HZ); 0 where /proc/stat is unreadable.
inline std::uint64_t host_steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t fields[8] = {};
  in >> cpu;
  for (std::uint64_t& f : fields) in >> f;
  return in && cpu == "cpu" ? fields[7] : 0;
}

inline std::string host_cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    const std::size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      const std::size_t at = line.find_first_not_of(" \t", colon + 1);
      return at == std::string::npos ? "" : line.substr(at);
    }
  }
  return "unknown";
}

// Per-binary observability bundle: the registry every measurement flows
// into, and the machine-readable JSON artifact CI asserts on. Construct it
// right after Flags (it claims --metrics_out; pass --metrics_out= to
// disable the artifact) and call emit() once at the end of run(). The
// default path routes through obs::artifact_path ($APRAM_ARTIFACT_DIR,
// else the binary's directory) so a source-dir invocation never litters
// the tree; an explicit --metrics_out is taken verbatim. The artifact
// records its host: gauges "host.nproc" and "host.steal_ticks" (steal
// ticks between construction and emit()), and the label "host.cpu_model".
// On a box with fewer CPUs than threads, a row measures preemption, not
// parallelism.
class BenchObs {
 public:
  BenchObs(const std::string& bench_name, Flags& flags)
      : name_(bench_name),
        path_(flags.get_string(
            "metrics_out",
            obs::artifact_path(bench_name + ".metrics.json"))),
        steal_begin_(host_steal_ticks()) {}

  obs::Registry& registry() { return registry_; }

  void emit(const obs::Tracer* tracer = nullptr) {
    if (path_.empty()) return;
    registry_.gauge("host.nproc")
        .set(static_cast<std::int64_t>(std::thread::hardware_concurrency()));
    registry_.gauge("host.steal_ticks")
        .set(static_cast<std::int64_t>(host_steal_ticks() - steal_begin_));
    obs::write_metrics_json(path_, registry_, tracer, name_,
                            {{"host.cpu_model", host_cpu_model()}});
    std::cout << "metrics artifact: " << path_ << "\n";
  }

 private:
  std::string name_;
  std::string path_;
  std::uint64_t steal_begin_;
  obs::Registry registry_;
};

// One approximate-agreement execution in the concurrent-participation
// regime (inputs installed first; see DESIGN.md §6), with the output phase
// interleaved by `sched`.
struct AgreementOutcome {
  std::vector<double> outputs;
  std::int64_t max_round = 0;
  std::uint64_t max_steps_per_proc = 0;  // output-phase steps only
  bool valid = false;                    // range(Y) ⊆ range(X), |Y| < ε
};

inline AgreementOutcome run_agreement_regime(const std::vector<double>& inputs,
                                             double eps,
                                             sim::Scheduler& sched) {
  const int n = static_cast<int>(inputs.size());
  sim::World w(n);
  ApproxAgreementSim aa(w, n, eps);

  for (int pid = 0; pid < n; ++pid) {
    w.spawn(pid, [&aa, &inputs, pid](sim::Context ctx) -> sim::ProcessTask {
      co_await aa.input(ctx, inputs[static_cast<std::size_t>(pid)]);
    });
  }
  sim::RoundRobinScheduler rr;
  APRAM_CHECK(w.run(rr).all_done);

  std::vector<std::uint64_t> phase1_steps(static_cast<std::size_t>(n));
  for (int pid = 0; pid < n; ++pid) {
    phase1_steps[static_cast<std::size_t>(pid)] = w.counts(pid).total();
  }

  AgreementOutcome out;
  out.outputs.resize(inputs.size());
  for (int pid = 0; pid < n; ++pid) {
    w.spawn(pid, [&aa, &out, pid](sim::Context ctx) -> sim::ProcessTask {
      out.outputs[static_cast<std::size_t>(pid)] = co_await aa.output(ctx);
    });
  }
  APRAM_CHECK(w.run(sched, 50'000'000).all_done);

  for (int pid = 0; pid < n; ++pid) {
    out.max_round = std::max(out.max_round, aa.peek_entry(pid).round);
    out.max_steps_per_proc = std::max(
        out.max_steps_per_proc,
        w.counts(pid).total() - phase1_steps[static_cast<std::size_t>(pid)]);
  }
  const RealRange in = range_of(inputs);
  const RealRange y = range_of(out.outputs);
  out.valid = in.contains(y) && y.size() < eps;
  return out;
}

}  // namespace apram::bench
