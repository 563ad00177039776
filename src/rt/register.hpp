// Real-thread atomic registers (the `apram::rt` runtime).
//
// One register interface over two storages, as the paper has one kind of
// object, the atomic register, and assumes registers large enough to hold
// whole arrays ("numerous techniques exist for constructing large atomic
// registers from smaller ones"). Both classes below offer
//
//   read()                                   any thread
//   write(v)                                 the register's single writer
//   compare_exchange(pid, expected, desired) any of its writers, as pid
//
// and are built from (initial) for one writer or (num_writers, initial).
// A CAS compares the current value with `expected` by T's operator==,
// which must identify distinct writes (api::Stamped in api/backend.hpp).
//
//   CASRegister<T>    inline: one std::atomic<T>. For values of at most a
//                     word and 16-byte Stamped<int64> records (selection:
//                     api::kWordRegister). Nothing is versioned; pid is
//                     unused.
//   ArenaRegister<T>  any T: immutable versions published through one
//                     control word of an rt::reclaim::VersionArena, which
//                     keeps memory proportional to concurrent holders,
//                     never to write count (rt/reclaim.hpp has the
//                     protocol and safety argument). pid picks the free
//                     list a CAS allocates from; write() uses writer 0's.
//
// Reads return BY VALUE and are wait-free: an inline read is one load, an
// arena read one fetch_add (acquire), the copy and one fetch_sub (release).
//
// Both carry RegisterHooks: an optional apram::obs probe (attach_probe)
// that counts each access (relaxed fetch_add) and, when the calling thread
// has a model pid, traces it with an rt timestamp; and an optional
// apram::fault::RtInjector (attach_injector) that fires BEFORE the access
// takes effect, the access boundary being the only place the model lets an
// adversary act. Unattached, each costs one relaxed pointer load and a
// predictable branch. The arena register adds a second injection point,
// on_hold(), between a reader's acquire and its dereference: stalling there
// keeps a version pinned while writers churn, which is exactly the window a
// reclamation bug would need to free a held version
// (tests/rt_reclaim_test.cpp proves it cannot).
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "fault/rt_inject.hpp"
#include "obs/rt_probe.hpp"
#include "rt/reclaim.hpp"
#include "util/assert.hpp"

namespace apram::rt {

// The probe and injector attach points every register carries, and the
// hook calls its accesses make. They are forced inline, with the attached
// branch marked cold: unattached, each is one relaxed load and a
// not-taken branch at the access site, where GCC's size heuristics would
// otherwise leave some as calls inside large coroutine frames.
class RegisterHooks {
 public:
  RegisterHooks(const RegisterHooks&) = delete;
  RegisterHooks& operator=(const RegisterHooks&) = delete;

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

 protected:
  RegisterHooks() = default;
  ~RegisterHooks() = default;

  [[gnu::always_inline]] void on_access() const {
    fault::RtInjector* inj = injector_.load(std::memory_order_relaxed);
    if (inj != nullptr) [[unlikely]] inj->on_access();
  }
  [[gnu::always_inline]] void on_hold() const {
    fault::RtInjector* inj = injector_.load(std::memory_order_relaxed);
    if (inj != nullptr) [[unlikely]] inj->on_hold();
  }
  [[gnu::always_inline]] void on_read() const {
    const obs::RtProbe* p = probe_.load(std::memory_order_relaxed);
    if (p != nullptr) [[unlikely]] p->on_read();
  }
  [[gnu::always_inline]] void on_write() const {
    const obs::RtProbe* p = probe_.load(std::memory_order_relaxed);
    if (p != nullptr) [[unlikely]] p->on_write();
  }
  [[gnu::always_inline]] void on_cas(bool ok) const {
    const obs::RtProbe* p = probe_.load(std::memory_order_relaxed);
    if (p != nullptr) [[unlikely]] p->on_cas(ok);
  }

 private:
  std::atomic<const obs::RtProbe*> probe_{nullptr};
  std::atomic<fault::RtInjector*> injector_{nullptr};
};

// The arena register. A CAS succeeds via a CAS on the arena control word;
// the caller's own acquire pins the expected version, so that compare
// cannot ABA (a held slot cannot be retired, hence cannot be reallocated
// and re-published). A loser returns its prepared slot to the free list
// immediately (failed-CAS cleanup).
template <class T>
class ArenaRegister : public RegisterHooks {
 public:
  using value_type = T;

  explicit ArenaRegister(T initial) : ArenaRegister(1, std::move(initial)) {}
  ArenaRegister(int num_writers, T initial)
      : arena_(num_writers, std::move(initial)) {}

  // Wait-free: one fetch_add (acquire), copy, one fetch_sub (release). The
  // returned value is the caller's own copy.
  T read() const {
    on_access();
    const auto ref = arena_.acquire();
    on_hold();
    T v = arena_.get(ref);
    arena_.release(ref);
    on_read();
    return v;
  }

  // Single writer only: allocates from writer 0's free list. Wait-free:
  // one exchange to install, one fetch_add to transfer the old version's
  // acquire count.
  void write(T v) {
    on_access();
    arena_.publish(arena_.alloc(0, std::move(v)));
    on_write();
  }

  // One atomic step by writer `pid`: if the current value equals `expected`,
  // install `desired` and return true. The reader-side hold is released
  // AFTER the install attempt (the ATOMSNAP CAS-ordering rule): the hold is
  // what makes the install ABA-free.
  bool compare_exchange(int pid, const T& expected, T desired) {
    on_access();
    const auto ref = arena_.acquire();
    on_hold();
    bool ok = arena_.get(ref) == expected;
    if (ok) {
      const std::uint32_t d = arena_.alloc(pid, std::move(desired));
      ok = arena_.try_publish(ref, d);
      if (!ok) arena_.dealloc(d);  // loser returns its slot immediately
    }
    arena_.release(ref);
    on_cas(ok);
    return ok;
  }

  reclaim::ReclaimStats reclaim_stats() const { return arena_.stats(); }

 private:
  mutable reclaim::VersionArena<T> arena_;
};

// perfbench's cost ladder prices its L1 rows on these two names, for
// int64 too, so they stay aliases of the arena register.
template <class T>
using SWMRRegister = ArenaRegister<T>;
template <class T>
using CASValueRegister = ArenaRegister<T>;

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

// The inline register. T must be trivially copyable and either small
// enough for the platform's lock-free std::atomic<T> or exactly 16 bytes
// (a double word: cmpxchg16b + AVX, checked at construction — an
// unsupported CPU aborts rather than silently taking libatomic's locks).
// A read never holds anything, so there is no on_hold point. Every access
// is seq_cst, so inline registers are linearizable across registers like
// the paper's atomic registers (DESIGN.md §9); on x86 a read stays a plain
// load and a write is one xchg (8 bytes) or a store + mfence (16 bytes).
template <class T>
class CASRegister : public RegisterHooks {
 public:
  using value_type = T;

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
  // Any number of writers share the one atomic.
  CASRegister(int /*num_writers*/, T initial) : CASRegister(initial) {}

  T read() const {
    on_access();
    const T v = v_.load(std::memory_order_seq_cst);
    on_read();
    return v;
  }

  void write(T v) {
    on_access();
    v_.store(v, std::memory_order_seq_cst);
    on_write();
  }

  bool compare_exchange(int /*pid*/, T expected, T desired) {
    on_access();
    const bool ok = v_.compare_exchange_strong(expected, desired,
                                               std::memory_order_seq_cst);
    on_cas(ok);
    return ok;
  }

  // Nothing is versioned, so nothing is reclaimed: every field is exactly 0.
  reclaim::ReclaimStats reclaim_stats() const { return {}; }

 private:
  std::atomic<T> v_;
};

}  // namespace apram::rt
