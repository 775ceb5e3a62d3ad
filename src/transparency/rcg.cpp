#include "socet/transparency/rcg.hpp"

#include <algorithm>

#include "socet/obs/trace.hpp"

namespace socet::transparency {

namespace {

/// Two half-open bit ranges.
bool ranges_disjoint(unsigned lo_a, unsigned w_a, unsigned lo_b, unsigned w_b) {
  return lo_a + w_a <= lo_b || lo_b + w_b <= lo_a;
}

/// Partition `edge_indices` into slice groups keyed by each edge's
/// (lo, width) range; groups appear in order of their first edge.
std::vector<std::vector<std::uint32_t>> slice_groups(
    const std::vector<RcgEdge>& edges,
    const std::vector<std::uint32_t>& edge_indices, bool split,
    bool by_src_range) {
  std::vector<std::vector<std::uint32_t>> groups;
  if (!split) {
    if (!edge_indices.empty()) groups.push_back(edge_indices);
    return groups;
  }
  std::vector<std::pair<unsigned, unsigned>> ranges;
  for (std::uint32_t e : edge_indices) {
    const RcgEdge& edge = edges[e];
    const auto range = std::make_pair(by_src_range ? edge.src_lo : edge.dst_lo,
                                      edge.width);
    const auto it = std::find(ranges.begin(), ranges.end(), range);
    if (it == ranges.end()) {
      ranges.push_back(range);
      groups.push_back({e});
    } else {
      groups[it - ranges.begin()].push_back(e);
    }
  }
  return groups;
}

}  // namespace

Rcg::Rcg(const rtl::Netlist& netlist, const hscan::HscanConfig* hscan)
    : netlist_(&netlist) {
  SOCET_SPAN("transparency/rcg");
  // Nodes: input ports, output ports, registers — in a stable order.
  port_index_.resize(netlist.ports().size());
  auto add_node = [&](const rtl::NodeRef& ref) {
    if (ref.kind != rtl::NodeKind::kRegister) {
      port_index_[ref.index] = static_cast<std::uint32_t>(nodes_.size());
    }
    nodes_.push_back(RcgNode{ref, false, false, {}, {}, {}, {}});
  };
  for (rtl::PortId id : netlist.input_ports()) {
    add_node(rtl::port_node(netlist, id));
  }
  for (rtl::PortId id : netlist.output_ports()) {
    add_node(rtl::port_node(netlist, id));
  }
  first_register_ = static_cast<std::uint32_t>(nodes_.size());
  for (std::size_t i = 0; i < netlist.registers().size(); ++i) {
    add_node(rtl::register_node(rtl::RegisterId(static_cast<std::uint32_t>(i))));
  }

  // Edges from the transfer-path enumeration.  Multiple enumerated paths
  // between the same node pair with the same slices (e.g. through
  // different mux data pins) merge into one edge, keeping the cheapest
  // annotation (direct beats mux path; HSCAN flag accumulates).  A
  // node's out_edges list, in edge order, is where a duplicate is found.
  auto add_edge = [&](const RcgEdge& edge) {
    nodes_[edge.src].out_edges.push_back(
        static_cast<std::uint32_t>(edges_.size()));
    edges_.push_back(edge);
  };
  for (const rtl::TransferPath& path : rtl::enumerate_transfer_paths(netlist)) {
    const std::uint32_t src = index_of(path.src);
    const std::uint32_t dst = index_of(path.dst);
    const auto& out = nodes_[src].out_edges;
    const auto it = std::find_if(out.begin(), out.end(), [&](std::uint32_t e) {
      const RcgEdge& edge = edges_[e];
      return edge.dst == dst && edge.src_lo == path.src_lo &&
             edge.dst_lo == path.dst_lo && edge.width == path.width;
    });
    if (it != out.end()) {
      RcgEdge& edge = edges_[*it];
      edge.direct = edge.direct || path.direct();
      edge.mux_hops =
          std::min(edge.mux_hops, static_cast<unsigned>(path.hops.size()));
      continue;
    }
    RcgEdge edge;
    edge.src = src;
    edge.dst = dst;
    edge.src_lo = path.src_lo;
    edge.dst_lo = path.dst_lo;
    edge.width = path.width;
    edge.direct = path.direct();
    edge.mux_hops = static_cast<unsigned>(path.hops.size());
    add_edge(edge);
  }

  // HSCAN flags: an edge is an HSCAN edge when the chain construction
  // reused the same (src, dst) node pair.
  if (hscan != nullptr) {
    for (const auto& [from, to] : hscan->reused_edges) {
      const std::uint32_t src = find(from);
      const std::uint32_t dst = find(to);
      if (src == kAbsent || dst == kAbsent) continue;
      for (std::uint32_t e : nodes_[src].out_edges) {
        if (edges_[e].dst == dst) edges_[e].hscan = true;
      }
    }
    // Inserted scan test muxes create brand-new paths: add them as HSCAN
    // edges so the transparency search can ride the chains end to end.
    for (const auto& [from, to] : hscan->added_links) {
      const std::uint32_t src = find(from);
      const std::uint32_t dst = find(to);
      if (src == kAbsent || dst == kAbsent) continue;
      const unsigned width =
          std::min(rtl::node_width(netlist, from), rtl::node_width(netlist, to));
      RcgEdge edge;
      edge.src = src;
      edge.dst = dst;
      edge.src_lo = 0;
      edge.dst_lo = 0;
      edge.width = width;
      edge.hscan = true;
      edge.direct = false;
      edge.mux_hops = 1;
      add_edge(edge);
    }
  }

  // A register's Q wired straight onto an output port is free observation
  // hardware (no mux, no gating), so it is usable even by the HSCAN-only
  // search regardless of which chain the register landed on.
  for (RcgEdge& edge : edges_) {
    if (edge.direct && nodes_[edge.dst].ref.kind == rtl::NodeKind::kOutputPort) {
      edge.hscan = true;
    }
  }

  // Fan-in adjacency and split-node classification.
  for (std::uint32_t e = 0; e < edges_.size(); ++e) {
    nodes_[edges_[e].dst].in_edges.push_back(e);
  }
  for (RcgNode& node : nodes_) {
    for (std::size_t a = 0; a < node.in_edges.size() && !node.c_split; ++a) {
      for (std::size_t b = a + 1; b < node.in_edges.size(); ++b) {
        const RcgEdge& ea = edges_[node.in_edges[a]];
        const RcgEdge& eb = edges_[node.in_edges[b]];
        if (ranges_disjoint(ea.dst_lo, ea.width, eb.dst_lo, eb.width)) {
          node.c_split = true;
          break;
        }
      }
    }
    for (std::size_t a = 0; a < node.out_edges.size() && !node.o_split; ++a) {
      for (std::size_t b = a + 1; b < node.out_edges.size(); ++b) {
        const RcgEdge& ea = edges_[node.out_edges[a]];
        const RcgEdge& eb = edges_[node.out_edges[b]];
        if (ranges_disjoint(ea.src_lo, ea.width, eb.src_lo, eb.width)) {
          node.o_split = true;
          break;
        }
      }
    }
    node.out_groups = slice_groups(edges_, node.out_edges, node.o_split,
                                   /*by_src_range=*/true);
    node.in_groups = slice_groups(edges_, node.in_edges, node.c_split,
                                  /*by_src_range=*/false);
  }
}

std::uint32_t Rcg::find(const rtl::NodeRef& ref) const {
  std::uint32_t i = kAbsent;
  if (ref.kind == rtl::NodeKind::kRegister) {
    if (ref.index < nodes_.size() - first_register_) {
      i = first_register_ + ref.index;
    }
  } else if (ref.index < port_index_.size()) {
    i = port_index_[ref.index];
  }
  return i != kAbsent && nodes_[i].ref == ref ? i : kAbsent;
}

std::uint32_t Rcg::index_of(const rtl::NodeRef& ref) const {
  const std::uint32_t i = find(ref);
  if (i == kAbsent) util::raise("Rcg::index_of: node not in graph");
  return i;
}

std::vector<std::uint32_t> Rcg::input_nodes() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].ref.kind == rtl::NodeKind::kInputPort) out.push_back(i);
  }
  return out;
}

std::vector<std::uint32_t> Rcg::output_nodes() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].ref.kind == rtl::NodeKind::kOutputPort) out.push_back(i);
  }
  return out;
}

std::string Rcg::node_name(std::uint32_t index) const {
  return rtl::node_name(*netlist_, nodes_.at(index).ref);
}

}  // namespace socet::transparency
