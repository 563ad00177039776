// apram::api — the register-backend concept.
//
// Every algorithm in this library runs in two worlds: the single-threaded
// asynchronous-PRAM simulator (exact step counts, schedule exploration,
// crash injection) and the real-thread runtime (std::atomic registers,
// genuine parallelism). Historically each algorithm was written twice, once
// per world. A *backend* abstracts the difference so the algorithm is a
// single coroutine template:
//
//   template <class B, Semilattice L>
//   class LatticeScan {
//     typename B::template Coro<Value> scan(typename B::Ctx ctx, Value v) {
//       Value got = co_await ctx.read(reg);
//       ...
//       co_await ctx.write(reg, acc);
//     }
//   };
//
// A backend B supplies:
//
//   B::Ctx               — per-process handle: pid(), and awaitable factories
//                          read(reg) / write(reg, v) / cas(casreg, exp, des).
//   B::Mem               — register factory/owner: make<T>(name, init, writer)
//                          and make_cas<T>(name, init), returning references
//                          stable for the Mem's lifetime.
//   B::Reg<T>            — single-writer multi-reader register handle.
//   B::CasReg<T>         — multi-writer register with compare-and-swap.
//                          Both backends make it the same type as Reg<T>;
//                          make() and make_cas() differ in the writers.
//   B::Coro<T>           — the coroutine return type algorithms use.
//
// The two implementations:
//
//   SimBackend (api/sim_backend.hpp) — awaiters suspend; each resumption is
//   one atomic step granted by the Scheduler. Coro = sim::SimCoro.
//
//   RtBackend (api/rt_backend.hpp) — awaiters are always ready; the access
//   happens inline and the coroutine never suspends. Coro = EagerCoro, which
//   starts eagerly and is drained with .get().
//
// Semantics both backends guarantee per access: reads/writes of a Reg<T> are
// atomic (linearizable) register operations; cas() on a CasReg<T> is a
// single atomic step comparing with T's operator== — which must identify
// distinct writes for ABA-freedom (Stamped<T> below is the recipe).
//
// Coroutine style rule (GCC 12): every co_await sits alone in its own
// statement — never inside a conditional expression or call argument.
#pragma once

#include <concepts>
#include <cstdint>
#include <string>

namespace apram::api {

// A value plus a write-identifying stamp. operator== compares ONLY seq: two
// Stamped values are "equal" iff they are the same write, which is exactly
// the identity a value-compared CAS needs to be ABA-free. Writers install
// {cur.seq + 1, ...} over the cur they read, so a register's seqs never
// repeat.
template <class T>
struct Stamped {
  std::uint64_t seq = 0;
  T v{};

  friend bool operator==(const Stamped& a, const Stamped& b) {
    return a.seq == b.seq;
  }
};

// B can host an algorithm over plain read/write registers of value type T.
template <class B, class T>
concept BackendFor = requires(typename B::Mem& mem,
                              typename B::template Reg<T>& reg,
                              const typename B::Ctx& ctx, std::string name,
                              T v, int writer) {
  { ctx.pid() } -> std::convertible_to<int>;
  {
    mem.template make<T>(name, v, writer)
  } -> std::same_as<typename B::template Reg<T>&>;
  ctx.read(reg);
  ctx.write(reg, v);
};

// B additionally supports compare-and-swap registers of value type T.
template <class B, class T>
concept CasBackendFor =
    BackendFor<B, T> && requires(typename B::Mem& mem,
                                 typename B::template CasReg<T>& reg,
                                 const typename B::Ctx& ctx, std::string name,
                                 T v) {
      {
        mem.template make_cas<T>(name, v)
      } -> std::same_as<typename B::template CasReg<T>&>;
      ctx.cas(reg, v, v);
    };

}  // namespace apram::api
