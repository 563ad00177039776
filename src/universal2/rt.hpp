// apram::universal2 — real-thread convenience wrappers.
//
// Same shape as every rt wrapper: each derives from api::RtOwned (the Mem,
// the backend-templated object, and the Mem's observability /
// fault-injection / reclamation attach points) and adds the old int-pid
// call style (thread p may call only the p-indexed entry points). New code
// that composes objects should hold the Mem and the templated classes
// directly.
#pragma once

#include <cstdint>
#include <string>

#include "api/rt_backend.hpp"
#include "universal2/counter_rep.hpp"
#include "universal2/linked_list.hpp"
#include "universal2/paper_universal.hpp"

namespace apram::universal2 {

// Wait-free counter (normalized fast/slow path) on real threads.
class Counter2RT : public api::RtOwned<Counter2<api::RtBackend>> {
 public:
  using Config = Counter2<api::RtBackend>::Config;

  explicit Counter2RT(int num_procs, Config cfg = {})
      : RtOwned(num_procs, "u2c", cfg) {}

  std::int64_t inc(int p, std::int64_t by = 1) {
    return impl_.inc(api::RtBackend::Ctx{p}, by).get();
  }
  std::int64_t dec(int p, std::int64_t by = 1) {
    return impl_.dec(api::RtBackend::Ctx{p}, by).get();
  }
  std::int64_t reset(int p, std::int64_t to = 0) {
    return impl_.reset(api::RtBackend::Ctx{p}, to).get();
  }
  std::int64_t read(int p) { return impl_.read(api::RtBackend::Ctx{p}).get(); }

  std::uint64_t slow_path_entries(int p) const {
    return impl_.sim().slow_path_entries(p);
  }
};

// Wait-free sorted linked-list set on real threads.
class SortedSetRT : public api::RtOwned<SortedSet<api::RtBackend>> {
 public:
  using Config = SortedSet<api::RtBackend>::Config;

  SortedSetRT(int num_procs, int capacity_per_proc, Config cfg = {})
      : RtOwned(num_procs, capacity_per_proc, "u2set", cfg) {}

  std::int64_t insert(int p, std::int64_t key) {
    return impl_.insert(api::RtBackend::Ctx{p}, key).get();
  }
  std::int64_t remove(int p, std::int64_t key) {
    return impl_.remove(api::RtBackend::Ctx{p}, key).get();
  }
  std::int64_t contains(int p, std::int64_t key) {
    return impl_.contains(api::RtBackend::Ctx{p}, key).get();
  }

  // Quiescent membership walk (call after joins / outside the run).
  std::vector<std::int64_t> snapshot_keys(int p) {
    return impl_.rep().snapshot_keys(api::RtBackend::Ctx{p}).get();
  }

  std::uint64_t slow_path_entries(int p) const {
    return impl_.sim().slow_path_entries(p);
  }
};

// The paper's universal construction on real threads (bench baseline).
template <SequentialSpec S>
class PaperUniversalRT
    : public api::RtOwned<PaperUniversal<api::RtBackend, S>> {
 public:
  explicit PaperUniversalRT(int num_procs,
                            ScanMode mode = ScanMode::kOptimized)
      : PaperUniversalRT::RtOwned(num_procs, mode) {}

  typename S::Response execute(int p, typename S::Invocation inv) {
    return this->impl_.execute(api::RtBackend::Ctx{p}, std::move(inv)).get();
  }
};

}  // namespace apram::universal2
