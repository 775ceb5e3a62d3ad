#include "socet/transparency/search.hpp"

#include <algorithm>
#include <limits>

#include "socet/obs/metrics.hpp"

namespace socet::transparency {

namespace {

constexpr unsigned kInf = std::numeric_limits<unsigned>::max() / 4;

/// Shared machinery for the two search directions.  `Adapter` supplies:
///   terminal(node)   — latency-0 endpoints (outputs for propagation,
///                      inputs for justification)
///   groups(node)     — mandatory edge groups leaving the node (in search
///                      direction), precomputed on the RCG node
///   next(edge)       — the node an edge leads to (in search direction)
///   step_cost(node, edge) — cycles added when traversing the edge
template <typename Adapter>
class AndOrSearch {
 public:
  AndOrSearch(const Rcg& rcg, EdgeClass allowed,
              const std::set<std::uint32_t>& excluded, Adapter adapter)
      : rcg_(rcg), allowed_(rcg.edges().size(), 0), adapter_(adapter) {
    for (std::uint32_t e = 0; e < allowed_.size(); ++e) {
      allowed_[e] = allowed == EdgeClass::kAllExisting || rcg.edge(e).hscan;
    }
    for (std::uint32_t e : excluded) {
      if (e < allowed_.size()) allowed_[e] = 0;
    }
  }

  SearchResult run(std::uint32_t start) {
    relax();
    SearchResult result;
    if (value_[start] >= kInf) return result;
    result.found = true;
    result.latency = value_[start];
    visited_.assign(rcg_.nodes().size(), 0);
    used_.assign(rcg_.edges().size(), 0);
    reconstruct(start, result.freeze_points);
    for (std::uint32_t e = 0; e < used_.size(); ++e) {
      if (used_[e]) result.edges.push_back(e);
    }
    return result;
  }

 private:
  struct Choice {
    unsigned latency = kInf;
    std::uint32_t edge = 0;
  };

  /// The cheapest allowed edge of `group` out of `node` (first on ties).
  Choice choose(std::uint32_t node,
                const std::vector<std::uint32_t>& group) const {
    Choice best;
    for (std::uint32_t e : group) {
      if (!allowed_[e]) continue;
      const RcgEdge& edge = rcg_.edges()[e];
      const unsigned next_value = value_[adapter_.next(edge)];
      if (next_value >= kInf) continue;
      const unsigned cand = adapter_.step_cost(rcg_, node, edge) + next_value;
      if (cand < best.latency) best = {cand, e};
    }
    return best;
  }

  void relax() {
    const std::size_t n = rcg_.nodes().size();
    value_.assign(n, kInf);
    for (std::uint32_t i = 0; i < n; ++i) {
      if (adapter_.terminal(rcg_, i)) value_[i] = 0;
    }
    // Values only decrease; at most n rounds to convergence.
    for (std::size_t round = 0; round < n + 1; ++round) {
      SOCET_COUNT("transparency/relax_rounds");
      bool changed = false;
      for (std::uint32_t i = 0; i < n; ++i) {
        if (adapter_.terminal(rcg_, i)) continue;
        SOCET_COUNT("transparency/nodes_evaluated");
        const unsigned v = evaluate(i);
        if (v < value_[i]) {
          value_[i] = v;
          changed = true;
        }
      }
      if (!changed) break;
    }
  }

  unsigned evaluate(std::uint32_t node) const {
    const auto& groups = adapter_.groups(rcg_, node);
    if (groups.empty()) return kInf;
    unsigned worst = 0;
    for (const auto& group : groups) {
      const unsigned best = choose(node, group).latency;
      if (best >= kInf) return kInf;
      worst = std::max(worst, best);
    }
    return worst;
  }

  void reconstruct(std::uint32_t node, unsigned& freezes) {
    if (visited_[node]) return;
    visited_[node] = 1;
    if (adapter_.terminal(rcg_, node)) return;
    const auto& groups = adapter_.groups(rcg_, node);
    // The slowest chosen branch; faster ones need balancing freezes.
    // (Every group has a finite choice when value_[node] is finite.)
    unsigned worst = 0;
    for (const auto& group : groups) {
      const Choice choice = choose(node, group);
      if (choice.latency < kInf) worst = std::max(worst, choice.latency);
    }
    for (const auto& group : groups) {
      const Choice choice = choose(node, group);
      if (choice.latency >= kInf) continue;
      if (choice.latency < worst) ++freezes;  // hold data on this branch
      used_[choice.edge] = 1;
      reconstruct(adapter_.next(rcg_.edges()[choice.edge]), freezes);
    }
  }

  const Rcg& rcg_;
  /// Per edge: in the edge class and not excluded.
  std::vector<char> allowed_;
  Adapter adapter_;
  std::vector<unsigned> value_;
  /// Reconstruction marks: nodes expanded, edges on the chosen paths.
  std::vector<char> visited_;
  std::vector<char> used_;
};

struct PropagationAdapter {
  bool terminal(const Rcg& rcg, std::uint32_t node) const {
    return rcg.node(node).ref.kind == rtl::NodeKind::kOutputPort;
  }
  const std::vector<std::vector<std::uint32_t>>& groups(
      const Rcg& rcg, std::uint32_t node) const {
    return rcg.node(node).out_groups;
  }
  std::uint32_t next(const RcgEdge& edge) const { return edge.dst; }
  unsigned step_cost(const Rcg& rcg, std::uint32_t /*node*/,
                     const RcgEdge& edge) const {
    // Entering a register costs one clock; reaching an output port is
    // combinational.
    return rcg.node(edge.dst).ref.kind == rtl::NodeKind::kRegister ? 1 : 0;
  }
};

struct JustificationAdapter {
  bool terminal(const Rcg& rcg, std::uint32_t node) const {
    return rcg.node(node).ref.kind == rtl::NodeKind::kInputPort;
  }
  const std::vector<std::vector<std::uint32_t>>& groups(
      const Rcg& rcg, std::uint32_t node) const {
    return rcg.node(node).in_groups;
  }
  std::uint32_t next(const RcgEdge& edge) const { return edge.src; }
  unsigned step_cost(const Rcg& rcg, std::uint32_t node,
                     const RcgEdge& /*edge*/) const {
    // Loading this node (if it is a register) costs one clock; an output
    // port reads its driver combinationally.
    return rcg.node(node).ref.kind == rtl::NodeKind::kRegister ? 1 : 0;
  }
};

}  // namespace

SearchResult find_propagation(const Rcg& rcg, std::uint32_t input_node,
                              EdgeClass allowed,
                              const std::set<std::uint32_t>& excluded_edges) {
  util::require(
      rcg.node(input_node).ref.kind == rtl::NodeKind::kInputPort,
      "find_propagation: start node is not an input port");
  SOCET_COUNT("transparency/propagation_searches");
  AndOrSearch search(rcg, allowed, excluded_edges, PropagationAdapter{});
  auto result = search.run(input_node);
  if (result.found) SOCET_HISTOGRAM("transparency/latency_found", result.latency);
  return result;
}

SearchResult find_justification(const Rcg& rcg, std::uint32_t output_node,
                                EdgeClass allowed,
                                const std::set<std::uint32_t>& excluded_edges) {
  util::require(
      rcg.node(output_node).ref.kind == rtl::NodeKind::kOutputPort,
      "find_justification: start node is not an output port");
  SOCET_COUNT("transparency/justification_searches");
  AndOrSearch search(rcg, allowed, excluded_edges, JustificationAdapter{});
  auto result = search.run(output_node);
  if (result.found) SOCET_HISTOGRAM("transparency/latency_found", result.latency);
  return result;
}

}  // namespace socet::transparency
