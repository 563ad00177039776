// RtBackend — real threads as a register backend.
//
// The inverse of SimBackend: awaiters never suspend. Each Ctx accessor
// performs the register operation inline (the hardware, not a Scheduler,
// interleaves processes) and hands the result to an always-ready awaiter, so
// an algorithm coroutine instantiated with this backend runs synchronously
// to completion — EagerCoro (see api/eager_coro.hpp) is built around exactly
// that guarantee, and rt convenience wrappers drain it with .get().
//
// Mem owns the registers (type-erased holders keep names and creation-order
// object ids) and is the single attach point for observability and fault
// injection: attach_obs() instruments every register created SO FAR with
// aggregate counters "rt.<name>.reads" / ".writes" / ".cas" plus optional
// trace events, mirroring the sim World's attach_metrics shape; a CAS is
// counted separately in ".cas" (one atomic step — add it to ".writes" when
// comparing against sim StepCounts, where a CAS counts as one write).
// Attach after construction, before concurrent use.
//
// Register selection (kWordRegister below): Reg<T> and CasReg<T> are one
// type, as in SimBackend. A value of integral type of at most 8 bytes, or a
// Stamped<U> of an 8-byte integral U (16 bytes, no padding), fits one
// atomic instruction and lives inline in rt::CASRegister<T>: a plain
// std::atomic<T>, no version arena, no refcount traffic. Every other T
// (arrays, other records, vectors) lives in rt::ArenaRegister<T>. make()
// builds a one-writer register, make_cas() one with a writer per process.
// DESIGN.md §9 gives the argument.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/backend.hpp"
#include "api/eager_coro.hpp"
#include "fault/rt_inject.hpp"
#include "obs/metrics.hpp"
#include "obs/rt_probe.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "rt/register.hpp"
#include "util/assert.hpp"

namespace apram::api {

namespace detail {

template <class T>
struct ReadyAwaiter {
  T value;
  bool await_ready() const noexcept { return true; }
  void await_suspend(std::coroutine_handle<>) const noexcept {}
  T await_resume() { return std::move(value); }
};

struct ReadyVoidAwaiter {
  bool await_ready() const noexcept { return true; }
  void await_suspend(std::coroutine_handle<>) const noexcept {}
  void await_resume() const noexcept {}
};

}  // namespace detail

// Whether RtBackend keeps T inline in one std::atomic<T> (rt::CASRegister)
// instead of a VersionArena. For integral T a bitwise compare-exchange
// decides exactly what operator== decides, so the value-CAS contract of
// api/backend.hpp is unchanged. So it does for Stamped<U>: a register's
// seqs never repeat and `expected` is a value read from the register, so
// equal seqs mean the same write, hence equal bits. A padded Stamped
// (U = int32) is excluded: its padding bytes take part in the bitwise
// compare without being part of the value.
template <class T>
inline constexpr bool kWordRegister = std::is_integral_v<T> && sizeof(T) <= 8;
template <class U>
inline constexpr bool kWordRegister<Stamped<U>> =
    std::is_integral_v<U> && sizeof(Stamped<U>) == 16 &&
    std::has_unique_object_representations_v<Stamped<U>>;

struct RtBackend {
  template <class T>
  using Reg = std::conditional_t<kWordRegister<T>, rt::CASRegister<T>,
                                 rt::ArenaRegister<T>>;
  template <class T>
  using CasReg = Reg<T>;
  template <class T>
  using Coro = EagerCoro<T>;

  class Ctx {
   public:
    explicit Ctx(int pid) : pid_(pid) {}

    int pid() const { return pid_; }

    template <class R>
    auto read(const R& reg) const {
      return detail::ReadyAwaiter<typename R::value_type>{reg.read()};
    }

    // Single-writer discipline is by convention here (the sim backend
    // enforces it and aborts; running the same algorithm there first is the
    // cheap way to check).
    template <class R>
    auto write(R& reg, typename R::value_type value) const {
      reg.write(std::move(value));
      return detail::ReadyVoidAwaiter{};
    }

    template <class R>
    auto cas(R& reg, typename R::value_type expected,
             typename R::value_type desired) const {
      const bool ok =
          reg.compare_exchange(pid_, expected, std::move(desired));
      return detail::ReadyAwaiter<bool>{ok};
    }

    // Operation-span markers (obs/span.hpp), forwarded to the calling
    // thread's ambient span state (installed by rt::parallel_run). No-ops —
    // one TLS load and a branch — without an ambient tracer. Same explicit
    // begin/end contract as sim::Context.
    void op_begin(obs::OpKind kind) const { obs::rt_op_begin(kind); }
    void op_end(obs::OpKind kind) const { obs::rt_op_end(kind); }
    void op_phase(obs::Phase phase, int index = -1) const {
      obs::rt_op_phase(phase, index);
    }
    void op_help(int object) const { obs::rt_op_help(object); }

   private:
    int pid_;
  };

  class Mem {
   public:
    explicit Mem(int num_procs) : num_procs_(num_procs) {
      APRAM_CHECK(num_procs >= 1);
    }

    int num_procs() const { return num_procs_; }

    template <class T>
    Reg<T>& make(const std::string& name, T initial, int /*writer*/ = -1) {
      return add<Reg<T>>(name, std::move(initial));
    }

    template <class T>
    CasReg<T>& make_cas(const std::string& name, T initial) {
      return add<CasReg<T>>(name, num_procs_, std::move(initial));
    }

    // Instruments every register created so far: aggregate counters
    // "rt.<name>.reads" / ".writes" / ".cas" / ".cas_fail" (lost CASes) in
    // `registry`, plus per-access trace events (object id = creation order)
    // when `tracer` is non-null. Attach before concurrent use;
    // registry/tracer must outlive this Mem.
    void attach_obs(obs::Registry& registry, const std::string& name,
                    obs::Tracer* tracer = nullptr) {
      obs::Counter* reads = &registry.counter("rt." + name + ".reads");
      obs::Counter* writes = &registry.counter("rt." + name + ".writes");
      obs::Counter* cas = &registry.counter("rt." + name + ".cas");
      obs::Counter* cas_fail = &registry.counter("rt." + name + ".cas_fail");
      for (std::size_t i = 0; i < holders_.size(); ++i) {
        HolderBase& h = *holders_[i];
        h.probe.reads = reads;
        h.probe.writes = writes;
        h.probe.cas_ops = cas;
        h.probe.cas_failures = cas_fail;
        h.probe.tracer = tracer;
        h.probe.object = static_cast<std::int32_t>(i);
        h.hooks().attach_probe(&h.probe);
      }
    }

    // Attaches a fault injector to every register created so far (see
    // fault/rt_inject.hpp); nullptr detaches. Attach before concurrent use.
    void attach_injector(fault::RtInjector* injector) {
      for (auto& h : holders_) h->hooks().attach_injector(injector);
    }

    // Reclamation accounting summed over every register in this Mem (exact
    // at quiescence). live_versions() is bounded by concurrent holders, not
    // by write count — which is what makes the gauge worth watching. Word
    // registers (kWordRegister) own no versions and add exactly zero to
    // every field: that is exact, not a bound.
    rt::reclaim::ReclaimStats reclaim_stats() const {
      rt::reclaim::ReclaimStats total;
      for (const auto& h : holders_) total += h->reclaim_stats();
      return total;
    }

    // Publishes the reclamation totals as gauges "rt.<name>.reclaim.
    // {live_versions,retired,recycled,acquire_contention}" into `registry`.
    // Call at quiescence (after joins); gauges are last-writer-wins. Word
    // registers contribute exactly zero to each gauge (see reclaim_stats).
    void export_reclaim_gauges(obs::Registry& registry,
                               const std::string& name) const {
      const rt::reclaim::ReclaimStats s = reclaim_stats();
      const std::string prefix = "rt." + name + ".reclaim.";
      registry.gauge(prefix + "live_versions")
          .set(static_cast<std::int64_t>(s.live_versions()));
      registry.gauge(prefix + "retired")
          .set(static_cast<std::int64_t>(s.retired));
      registry.gauge(prefix + "recycled")
          .set(static_cast<std::int64_t>(s.recycled));
      registry.gauge(prefix + "acquire_contention")
          .set(static_cast<std::int64_t>(s.acquire_contention));
    }

    // Counts every register, word registers included.
    std::size_t num_registers() const { return holders_.size(); }
    const std::string& register_name(std::size_t i) const {
      return holders_[i]->name;
    }

   private:
    struct HolderBase {
      explicit HolderBase(std::string n) : name(std::move(n)) {}
      virtual ~HolderBase() = default;
      virtual rt::RegisterHooks& hooks() = 0;
      virtual rt::reclaim::ReclaimStats reclaim_stats() const = 0;

      std::string name;
      obs::RtProbe probe;  // configured by attach_obs
    };

    template <class R>
    struct Holder final : HolderBase {
      template <class... Args>
      explicit Holder(std::string n, Args&&... args)
          : HolderBase(std::move(n)), reg(std::forward<Args>(args)...) {}
      rt::RegisterHooks& hooks() override { return reg; }
      rt::reclaim::ReclaimStats reclaim_stats() const override {
        return reg.reclaim_stats();
      }

      R reg;
    };

    template <class R, class... Args>
    R& add(const std::string& name, Args&&... args) {
      auto h = std::make_unique<Holder<R>>(name, std::forward<Args>(args)...);
      R& reg = h->reg;
      holders_.push_back(std::move(h));
      return reg;
    }

    int num_procs_;
    std::vector<std::unique_ptr<HolderBase>> holders_;
  };
};

static_assert(CasBackendFor<RtBackend, int>);
static_assert(CasBackendFor<RtBackend, Stamped<std::int64_t>>);
static_assert(CasBackendFor<RtBackend, std::vector<int>>);

// Owner of one rt object: the Mem plus the backend-templated object built
// on it (Impl's constructor takes (Mem&, num_procs, extra args...)), and the
// Mem's observability / fault-injection / reclamation attach points. Every
// rt convenience wrapper (TreeScanRT, UnionFindRT, Counter2RT, ...) derives
// from it and adds only its int-pid entry points: thread p calls them with
// pid p, each wrapping one Impl coroutine drained with .get().
template <class Impl>
class RtOwned {
 public:
  int num_procs() const { return mem_.num_procs(); }

  // See RtBackend::Mem::attach_obs / attach_injector / reclaim_stats /
  // export_reclaim_gauges.
  void attach_obs(obs::Registry& registry, const std::string& name,
                  obs::Tracer* tracer = nullptr) {
    mem_.attach_obs(registry, name, tracer);
  }
  void attach_injector(fault::RtInjector* injector) {
    mem_.attach_injector(injector);
  }
  rt::reclaim::ReclaimStats reclaim_stats() const {
    return mem_.reclaim_stats();
  }
  void export_reclaim_gauges(obs::Registry& registry,
                             const std::string& name) const {
    mem_.export_reclaim_gauges(registry, name);
  }

  // The backend-templated object, for composition and introspection.
  Impl& object() { return impl_; }

 protected:
  template <class... Args>
  explicit RtOwned(int num_procs, Args&&... args)
      : mem_(num_procs), impl_(mem_, num_procs, std::forward<Args>(args)...) {}

  RtBackend::Mem mem_;  // declared first: impl_'s registers live in it
  Impl impl_;
};

}  // namespace apram::api
