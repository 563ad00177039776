// The paper's universal construction for commute/overwrite objects
// (Figure 4, §5.4), written over the register-backend concept so it runs in
// the simulator (UniversalObjectSim, below) and on real threads
// (universal2::PaperUniversalRT in universal2/rt.hpp) — the apples-to-apples
// baseline bench_e6 compares WaitFreeSim against on sim AND rt.
//
// Representation: a shared precedence graph of *entries*, one per completed
// operation. An entry records the invocation, the response, and n pointers
// to the latest entry of every process at the time the operation started
// (its snapshot *view*). The graph is rooted in an anchor array (the atomic
// snapshot object of §6): root[P] points to P's most recent entry.
//
// execute(P, inv):
//   Step 1 — take an atomic snapshot of the anchor array (one ReadMax scan,
//            §6.2: n²−1 reads + n+1 writes); collect the entries reachable
//            from it (the precedence graph); build its linearization graph
//            (Figure 3, core/universal_linearize.hpp); topologically sort it;
//            run the sequential specification over that linearization to
//            obtain the state, and from it the response to `inv`.
//   Step 2 — create the entry and publish it with a single anchor write
//            (post()).
//
// Structure: the anchor array is the generic LatticeScan at
// TaggedVectorLattice<const Entry*>; each process owns an entry arena
// (std::deque — stable addresses) and a tag counter. On rt the publishing
// register write is the release barrier that makes the (immutable) entry
// contents visible to every later scanner. Traversal of the published
// entries is local bookkeeping; the paper accounts it as construction
// overhead, not as shared-memory steps.
//
// Per-op cost grows with the history (the linearization walks every
// reachable entry) — exactly the overhead §5.4 concedes and universal2's
// fast path eliminates; bench_e6 pins both numbers.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "algebra/spec.hpp"
#include "api/backend.hpp"
#include "api/sim_backend.hpp"
#include "core/universal_linearize.hpp"
#include "obs/span.hpp"
#include "snapshot/lattice_scan.hpp"
#include "util/assert.hpp"

namespace apram::universal2 {

template <class B, SequentialSpec S>
class PaperUniversal {
 public:
  using Ctx = typename B::Ctx;
  template <class T>
  using Coro = typename B::template Coro<T>;

  struct Entry {
    int pid = -1;
    std::uint64_t seq = 0;  // per-process operation index (1-based)
    typename S::Invocation inv{};
    typename S::Response resp{};
    std::vector<const Entry*> preceding;  // anchor view at operation start
  };

  using Lattice = TaggedVectorLattice<const Entry*>;
  using LatticeValue = typename Lattice::Value;

  PaperUniversal(typename B::Mem& mem, int num_procs,
                 ScanMode mode = ScanMode::kOptimized)
      : n_(num_procs), scan_(mem, num_procs, mode) {
    APRAM_CHECK(num_procs >= 1);
    per_proc_.reserve(static_cast<std::size_t>(n_));
    for (int p = 0; p < n_; ++p) {
      per_proc_.push_back(std::make_unique<PerProc>());
    }
  }

  int num_procs() const { return n_; }

  // Figure 4's execute(), backend-generic.
  Coro<typename S::Response> execute(Ctx ctx, typename S::Invocation inv) {
    const int p = ctx.pid();
    PerProc& mine = *per_proc_[static_cast<std::size_t>(p)];
    ctx.op_begin(obs::OpKind::kExecute);

    // Step 1: atomic scan of the anchor array -> view -> linearize ->
    // replay the sequential spec -> response.
    ctx.op_phase(obs::Phase::kCollect);
    LatticeValue joined = co_await scan_.read_max(ctx);
    const std::vector<std::optional<const Entry*>> view =
        Lattice::unpack(joined, static_cast<std::size_t>(n_));
    const std::vector<const Entry*> lin = linearize_entries<S, Entry>(view);
    std::vector<typename S::Invocation> invs;
    invs.reserve(lin.size());
    for (const Entry* e : lin) invs.push_back(e->inv);
    auto run = run_sequential<S>(invs);
    auto [next_state, resp] = S::apply(run.final_state, inv);
    (void)next_state;

    // Create the entry (owner-local arena; immutable once published).
    Entry& e = mine.arena.emplace_back();
    e.pid = p;
    e.seq = ++mine.next_seq;
    e.inv = std::move(inv);
    e.resp = resp;
    e.preceding.resize(static_cast<std::size_t>(n_), nullptr);
    for (int q = 0; q < n_; ++q) {
      const auto& slot = view[static_cast<std::size_t>(q)];
      if (slot.has_value()) e.preceding[static_cast<std::size_t>(q)] = *slot;
    }

    // Step 2: publish with a single anchor write.
    ctx.op_phase(obs::Phase::kPublish);
    const std::uint64_t tag = ++mine.next_tag;
    co_await scan_.post(
        ctx, Lattice::singleton(static_cast<std::size_t>(n_),
                                static_cast<std::size_t>(p), tag, &e));
    ctx.op_end(obs::OpKind::kExecute);
    co_return resp;
  }

  std::size_t entries_created(int p) const {
    return per_proc_[static_cast<std::size_t>(p)]->arena.size();
  }

  // Test/debug access to the anchor array's scan matrix.
  const snapshot::LatticeScan<B, Lattice>& anchor() const { return scan_; }

 private:
  struct alignas(64) PerProc {
    std::deque<Entry> arena;  // stable addresses; this process is the writer
    std::uint64_t next_seq = 0;
    std::uint64_t next_tag = 0;
  };

  int n_;
  snapshot::LatticeScan<B, Lattice> scan_;
  std::vector<std::unique_ptr<PerProc>> per_proc_;
};

}  // namespace apram::universal2

namespace apram {

// Simulator instantiation under the historical name: registers appear as
// "<name>.root.scan[p][i]".
template <SequentialSpec S>
class UniversalObjectSim
    : public api::SimOwned<universal2::PaperUniversal<api::SimBackend, S>> {
 public:
  using Base = universal2::PaperUniversal<api::SimBackend, S>;
  using Entry = typename Base::Entry;

  UniversalObjectSim(sim::World& world, int num_procs, const std::string& name,
                     ScanMode mode = ScanMode::kOptimized)
      : UniversalObjectSim::SimOwned(world, name + ".root", num_procs, mode) {}

  // The linearized history of the entries reachable from the *current*
  // anchor state: peeks the level-0 registers, which hold every process's
  // latest post (no simulation steps; test-only).
  std::vector<const Entry*> current_history() const {
    using L = typename Base::Lattice;
    typename L::Value joined = L::bottom();
    for (int q = 0; q < this->num_procs(); ++q) {
      joined = L::join(joined, this->anchor().register_at(q, 0).peek());
    }
    return linearize_entries<S, Entry>(
        L::unpack(joined, static_cast<std::size_t>(this->num_procs())));
  }
};

}  // namespace apram
