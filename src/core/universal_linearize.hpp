// Shared linearization logic of the universal construction (Figure 3/4).
//
// Used by universal2::PaperUniversal (universal2/paper_universal.hpp, the
// one Figure 4 implementation, behind UniversalObjectSim and
// PaperUniversalRT): discover the entries reachable from a snapshot view,
// build the precedence DAG from the direct `preceding` pointers, and
// linearize it with Definition 14 dominance as the tie-break.
//
// Entry is any type exposing `pid`, `seq`, `inv` (an S::Invocation) and
// `preceding` (a vector of const Entry*). The canonical node order is
// (pid, seq) — stable across processes and replays, so identical views
// linearize identically everywhere (the agreement property Figure 4 needs).
#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "algebra/spec.hpp"
#include "graph/lingraph.hpp"

namespace apram {

template <SequentialSpec S, class Entry>
std::vector<const Entry*> linearize_entries(
    const std::vector<std::optional<const Entry*>>& view) {
  // Discover reachable entries.
  std::vector<const Entry*> stack;
  std::map<const Entry*, int> seen;  // entry -> discovery marker
  for (const auto& slot : view) {
    if (slot.has_value() && *slot != nullptr && !seen.count(*slot)) {
      seen.emplace(*slot, 0);
      stack.push_back(*slot);
    }
  }
  std::vector<const Entry*> nodes;
  while (!stack.empty()) {
    const Entry* e = stack.back();
    stack.pop_back();
    nodes.push_back(e);
    for (const Entry* pred : e->preceding) {
      if (pred != nullptr && !seen.count(pred)) {
        seen.emplace(pred, 0);
        stack.push_back(pred);
      }
    }
  }

  // Canonical node order: by (pid, seq).
  std::sort(nodes.begin(), nodes.end(), [](const Entry* a, const Entry* b) {
    return std::make_pair(a->pid, a->seq) < std::make_pair(b->pid, b->seq);
  });
  std::map<const Entry*, int> index;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    index.emplace(nodes[i], static_cast<int>(i));
  }

  // Precedence DAG from the direct preceding pointers.
  Digraph prec(static_cast<int>(nodes.size()));
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (const Entry* pred : nodes[i]->preceding) {
      if (pred == nullptr) continue;
      const int pi = index.at(pred);
      if (pi != static_cast<int>(i) &&
          !prec.has_edge(pi, static_cast<int>(i))) {
        prec.add_edge(pi, static_cast<int>(i));
      }
    }
  }

  const std::vector<int> order = linearize(prec, [&](int a, int b) {
    const Entry* ea = nodes[static_cast<std::size_t>(a)];
    const Entry* eb = nodes[static_cast<std::size_t>(b)];
    return dominates<S>(ea->inv, ea->pid, eb->inv, eb->pid);
  });

  std::vector<const Entry*> out;
  out.reserve(order.size());
  for (int i : order) out.push_back(nodes[static_cast<std::size_t>(i)]);
  return out;
}

}  // namespace apram
