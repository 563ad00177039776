// PolylogQueue — a wait-free FIFO queue with polylogarithmic step
// complexity, after Naderibeni & Ruppert ("A Wait-free Queue with
// Polylogarithmic Step Complexity", arXiv:2305.07229), built on the farray
// tree (farray/farray.hpp).
//
// Construction. Each process appends its operations (enqueue(v) / dequeue)
// to a single-writer log; a tournament tree over the n logs — the farray
// with an order-accumulating refresher instead of a pure combine — agrees
// on ONE total order of all operations:
//
//   node value = an immutable chain of blocks; each successful stamped-CAS
//   install appends one block holding exactly the child entries not yet
//   covered (the chain records, per install, the child chains it consumed,
//   so the diff is computed by walking the child chain back to the recorded
//   base — no rescans, no duplicates). CAS lineage makes every node's chain
//   PREFIX-STABLE: installs only extend, so once an operation has a
//   position at the root, that position never changes.
//
// The double-refresh helping lemma (see farray/farray.hpp — it is purely
// temporal, so it applies to this refresher verbatim) guarantees that when
// an operation's root-path walk returns, the operation is in the root
// chain. The root order is the linearization: it extends real-time order
// (an op enters the tree only after its invocation, and is at the root
// before its response), and responses are COMPUTED from it — a dequeue
// reads the root once and replays the FIFO semantics over the prefix up to
// its own entry, so agreement on responses is agreement on the order, and
// no per-item CAS races (hence no unbounded retry loops) exist anywhere.
// Replay is process-local: each process keeps a cursor into the (prefix-
// stable) root order, so total local replay work is amortized O(1) per
// entry and zero shared accesses.
//
// Step counts (shared accesses; h = ⌈log2 n⌉, exact solo for n a power of
// two):
//
//   enqueue:  1 + 4h solo, ≤ 1 + 8h contended  (leaf append + root path)
//   dequeue:  2 + 4h solo, ≤ 2 + 8h contended  (+ one root read)
//
// apram-trace certifies both under `--bound queue_op` against the paper's
// O(log² n) envelope (12·⌈log2 n⌉² — our register-model cost is O(log n)
// REGISTER accesses because a node's whole chain lives in one register; the
// paper pays the extra log factor to keep node values word-sized, the same
// modelling convention as TaggedVectorLattice's O(n) register values).
//
// Space. A chain is a word: the address of its newest block, an immutable
// {prev, len, left_base, right_base, count} header followed by its `count`
// operations. Process p bump-allocates every block it creates (its leaf
// appends and the installs it computes) from pool p, which no other process
// touches, and fills the block before the seq_cst store or CAS that
// publishes its address; a reader that loads the address therefore sees
// the finished block. Leaves are plain word registers and nodes are inline
// Stamped<uint64> registers (kWordRegister in api/rt_backend.hpp): no
// version arena, no refcounts. The seq stamp keeps node CASes ABA-free, so
// an address needs no {pool, slot} packing. A block whose CAS lost was never
// published, so it goes back to its pool at once. The chains still hold the
// full history, like the paper's unbounded registers, and blocks live until
// the queue is destroyed; each process's replay keeps only the enqueued
// values it has not yet handed out.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "api/backend.hpp"
#include "api/rt_backend.hpp"
#include "api/sim_backend.hpp"
#include "farray/farray.hpp"
#include "obs/span.hpp"
#include "util/assert.hpp"

namespace apram {

// One operation in a log: (pid, seq) is its identity, seq 1-based per pid.
struct QueueOp {
  std::int32_t pid = 0;
  std::uint32_t seq = 0;
  bool is_enq = false;
  std::int64_t value = 0;  // enqueue payload
};

// A chain (the value of a leaf or internal-node register) is the address of
// its newest block; 0 is the empty chain.
using QueueChain = std::uint64_t;

// One immutable block of a chain, followed in memory by its `count` ops.
struct QueueBlock {
  QueueChain prev;      // rest of this chain
  std::uint64_t len;    // cumulative entries including this block
  // Child chains this install consumed (internal nodes only): the next
  // install diffs the then-current child chains against these bases.
  QueueChain left_base;
  QueueChain right_base;
  std::uint64_t count;  // entries this block appended, in order

  const QueueOp* ops() const {
    return reinterpret_cast<const QueueOp*>(this + 1);
  }
  QueueOp* ops() { return reinterpret_cast<QueueOp*>(this + 1); }
};
static_assert(sizeof(QueueBlock) % alignof(QueueOp) == 0);

inline const QueueBlock* queue_block(QueueChain c) {
  return reinterpret_cast<const QueueBlock*>(static_cast<std::uintptr_t>(c));
}

inline std::uint64_t queue_chain_len(QueueChain c) {
  return c ? queue_block(c)->len : 0;
}

// Process p's block allocator: a bump pointer over 64 KiB chunks. Only p
// allocates from it, so it needs no synchronization. Blocks live until the
// pool is destroyed.
class alignas(64) QueueBlockPool {
 public:
  QueueBlock* alloc(QueueChain prev, std::uint64_t len, QueueChain left_base,
                    QueueChain right_base, std::uint64_t count) {
    const std::size_t bytes = block_bytes(count);
    if (static_cast<std::size_t>(end_ - top_) < bytes) {
      const std::size_t size = std::max(kChunkBytes, bytes);
      chunks_.push_back(std::make_unique_for_overwrite<std::byte[]>(size));
      top_ = chunks_.back().get();
      end_ = top_ + size;
    }
    auto* b = ::new (static_cast<void*>(top_))
        QueueBlock{prev, len, left_base, right_base, count};
    top_ += bytes;
    return b;
  }

  // Takes back the newest block, which was never published.
  void give_back(const QueueBlock* b) {
    const std::size_t bytes = block_bytes(b->count);
    APRAM_CHECK_MSG(reinterpret_cast<const std::byte*>(b) + bytes == top_,
                    "only the newest queue block can go back to its pool");
    top_ -= bytes;
  }

  // Scratch for the diff walks of the installs this process computes, and
  // the block of its latest install while that install's CAS may lose.
  std::vector<const QueueBlock*> walk;
  const QueueBlock* pending_install = nullptr;

 private:
  static constexpr std::size_t kChunkBytes = std::size_t{64} << 10;

  static std::size_t block_bytes(std::uint64_t count) {
    return sizeof(QueueBlock) +
           static_cast<std::size_t>(count) * sizeof(QueueOp);
  }

  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::byte* top_ = nullptr;
  std::byte* end_ = nullptr;
};

// The order-accumulating node refresher (farray::NodeRefresherFor): extend
// the node's current chain with whatever the children appended since the
// last install. Pure in its three inputs — the consumed bases ride inside
// the chain value itself; the pid only picks the pool the block comes from.
class QueueOrderRefresh {
 public:
  explicit QueueOrderRefresh(QueueBlockPool* pools) : pools_(pools) {}

  static QueueChain identity() { return 0; }

  QueueChain refresh(int pid, QueueChain cur, QueueChain l, QueueChain r) {
    QueueBlockPool& pool = pools_[pid];
    pool.pending_install = nullptr;
    const QueueBlock* c = queue_block(cur);
    const QueueChain lb = c ? c->left_base : 0;
    const QueueChain rb = c ? c->right_base : 0;
    // Nothing new below: reinstalling cur under a fresh seq is the same
    // chain, and needs no block.
    if (l == lb && r == rb) return cur;
    std::vector<const QueueBlock*>& walk = pool.walk;
    walk.clear();
    collect(walk, l, lb);
    const std::size_t num_left = walk.size();
    collect(walk, r, rb);
    const std::uint64_t count = queue_chain_len(l) - queue_chain_len(lb) +
                                queue_chain_len(r) - queue_chain_len(rb);
    QueueBlock* b = pool.alloc(cur, queue_chain_len(cur) + count, l, r, count);
    QueueOp* out = b->ops();
    for (std::size_t i = num_left; i-- > 0;) out = copy_ops(walk[i], out);
    for (std::size_t i = walk.size(); i-- > num_left;) {
      out = copy_ops(walk[i], out);
    }
    pool.pending_install = b;
    return reinterpret_cast<std::uintptr_t>(b);
  }

  // The CAS of pid's latest install lost, so nobody else has seen its block
  // (if it made one), and it is still the newest block in pid's pool.
  void on_lost_cas(int pid) {
    QueueBlockPool& pool = pools_[pid];
    if (pool.pending_install != nullptr) pool.give_back(pool.pending_install);
    pool.pending_install = nullptr;
  }

 private:
  // Pushes the blocks of `now` newer than `base`, newest first. `base` is
  // always an ancestor block of `now` (chains only extend, and `base` was
  // read from this child earlier), so the walk ends by address equality.
  static void collect(std::vector<const QueueBlock*>& walk, QueueChain now,
                      QueueChain base) {
    for (QueueChain b = now; b != base; b = queue_block(b)->prev) {
      APRAM_CHECK_MSG(b != 0, "queue chain base is not an ancestor");
      walk.push_back(queue_block(b));
    }
  }

  static QueueOp* copy_ops(const QueueBlock* b, QueueOp* out) {
    return std::copy_n(b->ops(), b->count, out);
  }

  QueueBlockPool* pools_;  // [n]; pid p allocates only from pools_[p]
};

template <class B>
  requires api::BackendFor<B, QueueChain> &&
           api::CasBackendFor<B, farray::Stamped<QueueChain>>
class PolylogQueue {
 public:
  using Ctx = typename B::Ctx;
  template <class T>
  using Coro = typename B::template Coro<T>;
  using Tree = farray::FArrayTree<B, QueueChain, QueueOrderRefresh>;

  PolylogQueue(typename B::Mem& mem, int num_procs)
      : pools_(static_cast<std::size_t>(num_procs)),
        tree_(mem, num_procs, pools_.data()) {
    locals_.reserve(static_cast<std::size_t>(num_procs));
    for (int p = 0; p < num_procs; ++p) {
      locals_.push_back(std::make_unique<Local>());
    }
  }

  int num_procs() const { return tree_.num_procs(); }
  int height() const { return tree_.height(); }

  // Appends the value; on return the enqueue has a fixed position in the
  // agreed total order. 1 + 4h accesses solo, ≤ 1 + 8h contended.
  Coro<void> enqueue(Ctx ctx, std::int64_t v) {
    const int p = ctx.pid();
    Local& l = local(p);
    ctx.op_begin(obs::OpKind::kEnqueue);
    const QueueChain leaf = append_own(l, p, /*is_enq=*/true, v);
    co_await tree_.write(ctx, leaf);
    ctx.op_end(obs::OpKind::kEnqueue);
  }

  // Removes and returns the oldest value, or -1 when the queue is empty at
  // the dequeue's linearization point (QueueSpec's totalized dequeue).
  // 2 + 4h accesses solo, ≤ 2 + 8h contended.
  Coro<std::int64_t> dequeue(Ctx ctx) {
    const int p = ctx.pid();
    Local& l = local(p);
    ctx.op_begin(obs::OpKind::kDequeue);
    const std::uint32_t seq = l.num_ops + 1;
    const QueueChain leaf = append_own(l, p, /*is_enq=*/false, 0);
    co_await tree_.write(ctx, leaf);
    const QueueChain root = co_await tree_.read_f(ctx);
    const std::int64_t resp = replay_to(l, p, seq, root);
    ctx.op_end(obs::OpKind::kDequeue);
    co_return resp;
  }

  // Test/debug: the agreed total order so far (root chain length).
  Tree& tree() { return tree_; }

  void export_contention_gauges(obs::Registry& registry,
                                const std::string& prefix) const {
    tree_.export_contention_gauges(registry, prefix);
  }

 private:
  struct alignas(64) Local {
    QueueChain leaf = 0;        // mirror of own leaf register (single writer)
    std::uint32_t num_ops = 0;  // == queue_chain_len(leaf)
    // FIFO replay cursor over the root order. The root chain is
    // prefix-stable, so the cursor never rewinds and replay work is
    // amortized O(1) per linearized entry.
    std::uint64_t consumed = 0;           // root entries already replayed
    std::deque<std::int64_t> pending;     // enqueued, not yet handed out
    std::vector<const QueueBlock*> walk;  // replay scratch
  };

  Local& local(int p) { return *locals_[static_cast<std::size_t>(p)]; }

  QueueChain append_own(Local& l, int pid, bool is_enq, std::int64_t v) {
    ++l.num_ops;
    QueueBlock* b = pools_[static_cast<std::size_t>(pid)].alloc(
        l.leaf, l.num_ops, 0, 0, 1);
    b->ops()[0] =
        QueueOp{static_cast<std::int32_t>(pid), l.num_ops, is_enq, v};
    l.leaf = reinterpret_cast<std::uintptr_t>(b);
    return l.leaf;
  }

  // Replays the FIFO semantics over the root order up to (and including)
  // entry (pid, seq) — which the helping lemma guarantees is present —
  // returning that dequeue's response. Local work only.
  std::int64_t replay_to(Local& l, int pid, std::uint32_t seq,
                         QueueChain root) {
    l.walk.clear();
    for (QueueChain c = root; c != 0 && queue_block(c)->len > l.consumed;
         c = queue_block(c)->prev) {
      l.walk.push_back(queue_block(c));
    }
    for (std::size_t k = l.walk.size(); k-- > 0;) {
      const QueueBlock* b = l.walk[k];
      const std::uint64_t start = b->len - b->count;
      for (std::uint64_t i = l.consumed - std::min(l.consumed, start);
           i < b->count; ++i) {
        const QueueOp& op = b->ops()[i];
        ++l.consumed;
        std::int64_t resp = 0;
        if (op.is_enq) {
          l.pending.push_back(op.value);
        } else {
          resp = -1;
          if (!l.pending.empty()) {
            resp = l.pending.front();
            l.pending.pop_front();
          }
        }
        if (op.pid == pid && op.seq == seq) return resp;
      }
    }
    APRAM_CHECK_MSG(false,
                    "dequeue missing from the root after its refresh walk — "
                    "the double-refresh helping lemma was violated");
    return -1;
  }

  std::vector<QueueBlockPool> pools_;  // [n]; declared first: tree_ uses it
  Tree tree_;
  std::vector<std::unique_ptr<Local>> locals_;  // [n]
};

// --------------------------------------------------------------------------
// rt convenience wrapper (int-pid call style; thread p calls only pid p's
// entry points — the Local replay state is single-threaded per pid).

class PolylogQueueRT : public api::RtOwned<PolylogQueue<api::RtBackend>> {
 public:
  explicit PolylogQueueRT(int num_procs) : RtOwned(num_procs) {}

  void enqueue(int p, std::int64_t v) {
    impl_.enqueue(api::RtBackend::Ctx{p}, v).get();
  }
  std::int64_t dequeue(int p) {
    return impl_.dequeue(api::RtBackend::Ctx{p}).get();
  }

  void export_contention_gauges(obs::Registry& registry,
                                const std::string& prefix) const {
    impl_.export_contention_gauges(registry, prefix);
  }
};

}  // namespace apram
