// Real-thread atomic registers (the `apram::rt` runtime).
//
// The paper's model assumes atomic registers large enough to hold whole
// arrays ("numerous techniques exist for constructing large atomic registers
// from smaller ones"). On real hardware we realize an arbitrarily large
// single-writer multi-reader atomic register by publishing immutable
// versions through one atomic word. Two implementations share that shape:
//
//   * Bounded (the default): versions live in an rt::reclaim::VersionArena —
//     a 64-bit control word packing {acquire count, arena slot}, wait-free
//     reader acquire/release, publication with count transfer, failed-CAS
//     cleanup, and per-writer free-list recycling. Memory is proportional to
//     concurrent holders, never to write count. See rt/reclaim.hpp for the
//     protocol and safety argument.
//
//   * Unbounded (Unbounded* classes, named only directly): every write
//     appends to a grow-only node store that is never freed before the
//     register is destroyed — the paper's unbounded-register assumption,
//     verbatim. bench_micro_rt prices the bounded registers against them.
//
// Reads return BY VALUE in both flavours (the copy happens while the version
// is held; bounded readers then release it). Both read paths are wait-free:
// unbounded is one acquire-load, bounded is one fetch_add + one fetch_sub.
//
// Both register flavours carry an optional apram::obs probe (attach_probe):
// unattached, an access pays one relaxed pointer load and a predictable
// branch; attached, each access is counted (relaxed fetch_add) and — when
// the calling thread has a model pid — traced with an rt timestamp.
//
// They also carry an optional apram::fault::RtInjector (attach_injector)
// that fires BEFORE the access takes effect — the injection point is the
// access boundary, the only place the model lets an adversary act. The
// bounded registers add a second injection point, on_hold(), between a
// reader's acquire and its dereference: stalling there keeps a version
// pinned while writers churn, which is exactly the window a reclamation bug
// would need to free a held version (tests/rt_reclaim_test.cpp proves it
// cannot). The unattached cost is the same one relaxed load + branch.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

#include "fault/rt_inject.hpp"
#include "obs/rt_probe.hpp"
#include "rt/reclaim.hpp"
#include "util/assert.hpp"

namespace apram::rt {

// ---------------------------------------------------------------------------
// Bounded-memory registers (default): VersionArena underneath.
// ---------------------------------------------------------------------------

template <class T>
class BoundedSWMRRegister {
 public:
  explicit BoundedSWMRRegister(T initial) : arena_(1, std::move(initial)) {}

  BoundedSWMRRegister(const BoundedSWMRRegister&) = delete;
  BoundedSWMRRegister& operator=(const BoundedSWMRRegister&) = delete;

  // Any thread. Wait-free: one fetch_add (acquire), copy, one fetch_sub
  // (release). The returned value is the caller's own copy.
  T read() const {
    if (fault::RtInjector* inj = injector_.load(std::memory_order_relaxed)) {
      inj->on_access();
    }
    const auto ref = arena_.acquire();
    if (fault::RtInjector* inj = injector_.load(std::memory_order_relaxed)) {
      inj->on_hold();
    }
    T v = arena_.get(ref);
    arena_.release(ref);
    if (const obs::RtProbe* p = probe_.load(std::memory_order_relaxed)) {
      p->on_read();
    }
    return v;
  }

  // Owner thread only (single writer). Wait-free: allocate (own free list),
  // one exchange to install, one fetch_add to transfer the old version's
  // acquire count.
  void write(T v) {
    if (fault::RtInjector* inj = injector_.load(std::memory_order_relaxed)) {
      inj->on_access();
    }
    arena_.publish(arena_.alloc(0, std::move(v)));
    if (const obs::RtProbe* p = probe_.load(std::memory_order_relaxed)) {
      p->on_write();
    }
  }

  // Space diagnostics: number of values ever written (incl. the initial).
  // Monotone even though slots recycle.
  std::size_t versions() const {
    return static_cast<std::size_t>(arena_.stats().allocated);
  }

  reclaim::ReclaimStats reclaim_stats() const { return arena_.stats(); }

  // The probe must outlive the register (or a detaching attach_probe(nullptr)
  // call). Attach before concurrent use begins; the pointer itself is atomic,
  // but the probe's metric handles are read without further synchronization.
  void attach_probe(const obs::RtProbe* probe) {
    probe_.store(probe, std::memory_order_release);
  }

  // The injector must outlive the register (or a detaching
  // attach_injector(nullptr) call). Attach before concurrent use.
  void attach_injector(fault::RtInjector* injector) {
    injector_.store(injector, std::memory_order_release);
  }

 private:
  mutable reclaim::VersionArena<T> arena_;
  std::atomic<const obs::RtProbe*> probe_{nullptr};
  std::atomic<fault::RtInjector*> injector_{nullptr};
};

// Multi-writer register with value-compared compare-and-swap over
// arbitrarily large values, bounded-memory flavour. compare_exchange
// compares the CURRENT VALUE with T's operator== — which must identify
// distinct writes (distinct published values never compare equal; Stamped<T>
// in farray/farray.hpp is the standard recipe) — and succeeds via a CAS
// on the arena control word. The caller's own acquire pins the expected
// version, so the control-word compare cannot ABA (a held slot cannot be
// retired, hence cannot be reallocated and re-published). A loser returns
// its prepared slot to the free list immediately (failed-CAS cleanup).
template <class T>
class BoundedCASValueRegister {
 public:
  BoundedCASValueRegister(int num_writers, T initial)
      : arena_(num_writers, std::move(initial)) {
    APRAM_CHECK(num_writers >= 1);
  }

  BoundedCASValueRegister(const BoundedCASValueRegister&) = delete;
  BoundedCASValueRegister& operator=(const BoundedCASValueRegister&) = delete;

  // Any thread. Wait-free: acquire, copy, release.
  T read() const {
    if (fault::RtInjector* inj = injector_.load(std::memory_order_relaxed)) {
      inj->on_access();
    }
    const auto ref = arena_.acquire();
    if (fault::RtInjector* inj = injector_.load(std::memory_order_relaxed)) {
      inj->on_hold();
    }
    T v = arena_.get(ref);
    arena_.release(ref);
    if (const obs::RtProbe* p = probe_.load(std::memory_order_relaxed)) {
      p->on_read();
    }
    return v;
  }

  // One atomic step by thread `pid`: if the current value equals `expected`
  // (T's operator==), install `desired` and return true. The reader-side
  // hold is released AFTER the install attempt (the ATOMSNAP CAS-ordering
  // rule): the hold is what makes the install ABA-free.
  bool compare_exchange(int pid, const T& expected, T desired) {
    if (fault::RtInjector* inj = injector_.load(std::memory_order_relaxed)) {
      inj->on_access();
    }
    const auto ref = arena_.acquire();
    if (fault::RtInjector* inj = injector_.load(std::memory_order_relaxed)) {
      inj->on_hold();
    }
    bool ok = arena_.get(ref) == expected;
    if (ok) {
      const std::uint32_t d = arena_.alloc(pid, std::move(desired));
      ok = arena_.try_publish(ref, d);
      if (!ok) arena_.dealloc(d);  // loser returns its slot immediately
    }
    arena_.release(ref);
    if (const obs::RtProbe* p = probe_.load(std::memory_order_relaxed)) {
      p->on_cas(ok);
    }
    return ok;
  }

  // Space diagnostics: values ever prepared (incl. the initial; counts slots
  // from failed swaps too). Monotone even though slots recycle.
  std::size_t versions() const {
    return static_cast<std::size_t>(arena_.stats().allocated);
  }

  reclaim::ReclaimStats reclaim_stats() const { return arena_.stats(); }

  void attach_probe(const obs::RtProbe* probe) {
    probe_.store(probe, std::memory_order_release);
  }

  void attach_injector(fault::RtInjector* injector) {
    injector_.store(injector, std::memory_order_release);
  }

 private:
  mutable reclaim::VersionArena<T> arena_;
  std::atomic<const obs::RtProbe*> probe_{nullptr};
  std::atomic<fault::RtInjector*> injector_{nullptr};
};

// ---------------------------------------------------------------------------
// Unbounded registers: the paper's assumption, verbatim. Grow-only node
// stores, nothing freed before destruction. std::deque guarantees reference
// stability under push_back, and only the single writer touches the deque
// structure, so reads race with nothing.
// ---------------------------------------------------------------------------

template <class T>
class UnboundedSWMRRegister {
 public:
  explicit UnboundedSWMRRegister(T initial) {
    nodes_.push_back(std::move(initial));
    current_.store(&nodes_.back(), std::memory_order_release);
  }

  UnboundedSWMRRegister(const UnboundedSWMRRegister&) = delete;
  UnboundedSWMRRegister& operator=(const UnboundedSWMRRegister&) = delete;

  // Any thread. Wait-free: one acquire load, then a copy of the immutable
  // node (nodes are never reclaimed, so the dereference is always safe).
  T read() const {
    if (fault::RtInjector* inj = injector_.load(std::memory_order_relaxed)) {
      inj->on_access();
    }
    T v = *current_.load(std::memory_order_acquire);
    if (const obs::RtProbe* p = probe_.load(std::memory_order_relaxed)) {
      p->on_read();
    }
    return v;
  }

  // Owner thread only (single writer). Wait-free: one release store.
  void write(T v) {
    if (fault::RtInjector* inj = injector_.load(std::memory_order_relaxed)) {
      inj->on_access();
    }
    nodes_.push_back(std::move(v));
    current_.store(&nodes_.back(), std::memory_order_release);
    if (const obs::RtProbe* p = probe_.load(std::memory_order_relaxed)) {
      p->on_write();
    }
  }

  // Space diagnostics: number of values ever written (incl. the initial).
  std::size_t versions() const { return nodes_.size(); }

  // Nothing is recycled here; live == allocated by construction.
  reclaim::ReclaimStats reclaim_stats() const {
    reclaim::ReclaimStats s;
    s.allocated = s.live = nodes_.size();
    return s;
  }

  void attach_probe(const obs::RtProbe* probe) {
    probe_.store(probe, std::memory_order_release);
  }

  void attach_injector(fault::RtInjector* injector) {
    injector_.store(injector, std::memory_order_release);
  }

 private:
  std::deque<T> nodes_;
  std::atomic<const T*> current_;
  std::atomic<const obs::RtProbe*> probe_{nullptr};
  std::atomic<fault::RtInjector*> injector_{nullptr};
};

// Unbounded multi-writer register with value-compared CAS: one grow-only
// node store per writer (writer `pid` appends only to store `pid`, so no
// store is ever touched by two threads), swap done on the publication
// pointer. Sound under the same operator==-identifies-writes contract as the
// bounded flavour: published nodes are never recycled, so the pointer CAS
// cannot ABA. Nodes from failed swaps stay in their writer's store — the
// unbounded-register assumption again.
template <class T>
class UnboundedCASValueRegister {
 public:
  UnboundedCASValueRegister(int num_writers, T initial)
      : initial_(std::move(initial)),
        stores_(static_cast<std::size_t>(num_writers)) {
    APRAM_CHECK(num_writers >= 1);
    current_.store(&initial_, std::memory_order_release);
  }

  UnboundedCASValueRegister(const UnboundedCASValueRegister&) = delete;
  UnboundedCASValueRegister& operator=(const UnboundedCASValueRegister&) =
      delete;

  // Any thread. Wait-free: one acquire load, then a copy.
  T read() const {
    if (fault::RtInjector* inj = injector_.load(std::memory_order_relaxed)) {
      inj->on_access();
    }
    T v = *current_.load(std::memory_order_acquire);
    if (const obs::RtProbe* p = probe_.load(std::memory_order_relaxed)) {
      p->on_read();
    }
    return v;
  }

  // One atomic step by thread `pid`: if the current value equals `expected`
  // (T's operator==), install `desired` and return true. Wait-free — a
  // failed pointer CAS is a failed operation, never a retry loop.
  bool compare_exchange(int pid, const T& expected, T desired) {
    if (fault::RtInjector* inj = injector_.load(std::memory_order_relaxed)) {
      inj->on_access();
    }
    const T* cur = current_.load(std::memory_order_acquire);
    bool ok = *cur == expected;
    if (ok) {
      std::deque<T>& store = stores_[static_cast<std::size_t>(pid)].nodes;
      store.push_back(std::move(desired));
      ok = current_.compare_exchange_strong(cur, &store.back(),
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire);
    }
    if (const obs::RtProbe* p = probe_.load(std::memory_order_relaxed)) {
      p->on_cas(ok);
    }
    return ok;
  }

  // Space diagnostics: values ever prepared (incl. the initial; counts nodes
  // from failed swaps too).
  std::size_t versions() const {
    std::size_t total = 1;
    for (const Store& s : stores_) total += s.nodes.size();
    return total;
  }

  reclaim::ReclaimStats reclaim_stats() const {
    reclaim::ReclaimStats s;
    s.allocated = s.live = versions();
    return s;
  }

  void attach_probe(const obs::RtProbe* probe) {
    probe_.store(probe, std::memory_order_release);
  }

  void attach_injector(fault::RtInjector* injector) {
    injector_.store(injector, std::memory_order_release);
  }

 private:
  // Per-writer stores live on their own cache lines.
  struct alignas(64) Store {
    std::deque<T> nodes;
  };

  T initial_;
  std::vector<Store> stores_;
  std::atomic<const T*> current_;
  std::atomic<const obs::RtProbe*> probe_{nullptr};
  std::atomic<fault::RtInjector*> injector_{nullptr};
};

// ---------------------------------------------------------------------------
// The register names every rt algorithm and the api::RtBackend use for
// values wider than a word: the bounded-memory registers. The Unbounded*
// classes are only ever named directly (paper-mode comparisons in
// bench_micro_rt and rt_test).
// ---------------------------------------------------------------------------

template <class T>
using SWMRRegister = BoundedSWMRRegister<T>;
template <class T>
using CASValueRegister = BoundedCASValueRegister<T>;

// Multi-writer register with compare-and-swap — the building block for rt
// structures that go beyond the paper's read/write base model (and the
// source of kCas trace events). T must be trivially copyable and small
// enough for the platform's lock-free std::atomic<T>. No versioning, so no
// reclamation needed: the value lives inline. api::RtBackend uses it as
// both Reg<T> and CasReg<T> for integral T of at most 8 bytes (the word
// registers). A read never holds anything, so there is no on_hold point.
// Every access is seq_cst, so word registers are linearizable across
// registers like the paper's atomic registers (DESIGN.md §9); on x86 a
// read stays a plain load and a write is one xchg.
template <class T>
class CASRegister {
 public:
  explicit CASRegister(T initial) : v_(initial) {
    static_assert(std::atomic<T>::is_always_lock_free,
                  "CASRegister requires a lock-free std::atomic<T>");
  }

  CASRegister(const CASRegister&) = delete;
  CASRegister& operator=(const CASRegister&) = delete;

  T read() const {
    if (fault::RtInjector* inj = injector_.load(std::memory_order_relaxed)) {
      inj->on_access();
    }
    const T v = v_.load(std::memory_order_seq_cst);
    if (const obs::RtProbe* p = probe_.load(std::memory_order_relaxed)) {
      p->on_read();
    }
    return v;
  }

  void write(T v) {
    if (fault::RtInjector* inj = injector_.load(std::memory_order_relaxed)) {
      inj->on_access();
    }
    v_.store(v, std::memory_order_seq_cst);
    if (const obs::RtProbe* p = probe_.load(std::memory_order_relaxed)) {
      p->on_write();
    }
  }

  // On failure `expected` is updated to the observed value, as with
  // std::atomic::compare_exchange_strong.
  bool compare_exchange(T& expected, T desired) {
    if (fault::RtInjector* inj = injector_.load(std::memory_order_relaxed)) {
      inj->on_access();
    }
    const bool ok = v_.compare_exchange_strong(expected, desired,
                                               std::memory_order_seq_cst);
    if (const obs::RtProbe* p = probe_.load(std::memory_order_relaxed)) {
      p->on_cas(ok);
    }
    return ok;
  }

  // Nothing is versioned, so nothing is reclaimed: every field is exactly 0.
  reclaim::ReclaimStats reclaim_stats() const { return {}; }

  void attach_probe(const obs::RtProbe* probe) {
    probe_.store(probe, std::memory_order_release);
  }

  void attach_injector(fault::RtInjector* injector) {
    injector_.store(injector, std::memory_order_release);
  }

 private:
  std::atomic<T> v_;
  std::atomic<const obs::RtProbe*> probe_{nullptr};
  std::atomic<fault::RtInjector*> injector_{nullptr};
};

}  // namespace apram::rt
