// Real-thread atomic registers (the `apram::rt` runtime).
//
// The paper's model assumes atomic registers large enough to hold whole
// arrays ("numerous techniques exist for constructing large atomic registers
// from smaller ones"). On real hardware we realize an arbitrarily large
// single-writer multi-reader atomic register by publishing immutable
// versions through one atomic word. The versions live in an
// rt::reclaim::VersionArena — a 64-bit control word packing {acquire count,
// arena slot}, wait-free reader acquire/release, publication with count
// transfer, failed-CAS cleanup, and per-writer free-list recycling. Memory
// is proportional to concurrent holders, never to write count. See
// rt/reclaim.hpp for the protocol and safety argument. Values of at most a
// word, and 16-byte Stamped<int64> records, skip the arena: CASRegister
// below is one std::atomic<T>.
//
// Reads return BY VALUE (the copy happens while the version is held; the
// reader then releases it). The read path is wait-free: one fetch_add plus
// one fetch_sub.
//
// Every register carries an optional apram::obs probe (attach_probe):
// unattached, an access pays one relaxed pointer load and a predictable
// branch; attached, each access is counted (relaxed fetch_add) and — when
// the calling thread has a model pid — traced with an rt timestamp.
//
// They also carry an optional apram::fault::RtInjector (attach_injector)
// that fires BEFORE the access takes effect — the injection point is the
// access boundary, the only place the model lets an adversary act. The
// arena registers add a second injection point, on_hold(), between a
// reader's acquire and its dereference: stalling there keeps a version
// pinned while writers churn, which is exactly the window a reclamation bug
// would need to free a held version (tests/rt_reclaim_test.cpp proves it
// cannot). The unattached cost is the same one relaxed load + branch.
#pragma once

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "fault/rt_inject.hpp"
#include "obs/rt_probe.hpp"
#include "rt/reclaim.hpp"
#include "util/assert.hpp"

namespace apram::rt {

// ---------------------------------------------------------------------------
// Bounded-memory registers: VersionArena underneath.
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
// arbitrarily large values, on the arena. compare_exchange compares the
// CURRENT VALUE with T's operator== — which must identify distinct writes
// (distinct published values never compare equal; api::Stamped<T> in
// api/backend.hpp is the standard recipe) — and succeeds via a CAS on the
// arena control word. The caller's own acquire pins the expected
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
// The register names every rt algorithm and the api::RtBackend use for
// values wider than a word: the bounded-memory registers.
// ---------------------------------------------------------------------------

template <class T>
using SWMRRegister = BoundedSWMRRegister<T>;
template <class T>
using CASValueRegister = BoundedCASValueRegister<T>;

// Whether this CPU runs every 16-byte atomic access as one instruction:
// with cmpxchg16b and AVX, libatomic's ifunc turns a 16-byte load into one
// vmovdqa, a store into vmovdqa + mfence and a CAS into one lock
// cmpxchg16b (aligned 16-byte AVX accesses are atomic; Intel SDM vol. 3A
// §9.1.1). Read once; DESIGN.md §13 gives the wait-freedom argument.
inline bool cpu_has_inline_dwcas() {
#if defined(__x86_64__)
  static const bool ok = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    return __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 &&
           (ecx & bit_CMPXCHG16B) != 0 && (ecx & bit_AVX) != 0;
  }();
  return ok;
#else
  return false;
#endif
}

// Multi-writer register with compare-and-swap — the building block for rt
// structures that go beyond the paper's read/write base model (and the
// source of kCas trace events). T must be trivially copyable and either
// small enough for the platform's lock-free std::atomic<T> or exactly 16
// bytes (a double word: cmpxchg16b + AVX, checked at construction — an
// unsupported CPU aborts rather than silently taking libatomic's locks).
// No versioning, so no reclamation needed: the value lives inline.
// api::RtBackend uses it as both Reg<T> and CasReg<T> for integral T of at
// most 8 bytes and for Stamped<int64> (the word registers). A read never
// holds anything, so there is no on_hold point. Every access is seq_cst,
// so word registers are linearizable across registers like the paper's
// atomic registers (DESIGN.md §9); on x86 a read stays a plain load and a
// write is one xchg (8 bytes) or a store + mfence (16 bytes).
template <class T>
class CASRegister {
 public:
  explicit CASRegister(T initial) : v_(initial) {
    static_assert(std::atomic<T>::is_always_lock_free || sizeof(T) == 16,
                  "CASRegister requires a lock-free std::atomic<T> or a "
                  "16-byte T");
    if constexpr (!std::atomic<T>::is_always_lock_free) {
      static_assert(alignof(std::atomic<T>) == 16,
                    "vmovdqa and cmpxchg16b need 16-byte alignment");
      APRAM_CHECK_MSG(cpu_has_inline_dwcas(),
                      "16-byte inline registers need an x86-64 CPU with "
                      "cmpxchg16b and AVX; this CPU lacks one of them");
    }
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
