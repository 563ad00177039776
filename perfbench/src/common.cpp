#include "common.hpp"

#include <malloc.h>
#include <unistd.h>

#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>

#include "rt/thread_harness.hpp"

namespace perfbench {

namespace {

template <class T>
double percentile_of(std::vector<T>& v, double p) {
  if (v.empty()) return 0.0;
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo),
                   v.end());
  const double a = v[lo];
  if (hi == lo) return a;
  const double b = *std::min_element(
      v.begin() + static_cast<std::ptrdiff_t>(hi), v.end());
  return a + (b - a) * (pos - static_cast<double>(lo));
}

}  // namespace

double percentile(std::vector<double> v, double p) {
  return percentile_of(v, p);
}

double percentile_in_place(std::vector<std::uint32_t>& v, double p) {
  return percentile_of(v, p);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

void run_threads(int threads, const std::function<void(int)>& body) {
  apram::rt::parallel_run(threads, body);
}

std::uint64_t rss_bytes() {
  std::ifstream f("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  f >> size >> resident;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

std::uint64_t peak_rss_bytes() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      std::uint64_t kb = 0;
      in >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

std::uint64_t heap_in_use_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

void release_free_memory() { malloc_trim(0); }

const char* kind_name(Kind k) {
  static const char* const kNames[kNumKinds] = {
      "update", "scan", "same_set", "unite",   "inc",
      "read",   "enqueue", "dequeue", "schedule"};
  return kNames[k];
}

std::vector<double> latencies_of(const Round& r, Kind k) {
  std::vector<double> out;
  for (std::size_t i = 0; i < r.lat_ns.size(); ++i) {
    if (r.kinds[i] == k) out.push_back(r.lat_ns[i]);
  }
  return out;
}

}  // namespace perfbench
