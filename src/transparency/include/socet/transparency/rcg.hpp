// Register connectivity graph (RCG) — paper Section 4, Figure 7.
//
// Nodes are the core's input ports, output ports and registers.  An edge
// connects two nodes when a direct or multiplexer path exists between
// them, annotated with the bit slices it carries and whether it lies on an
// HSCAN chain (the darkened edges of Figure 7).
//
// Split-node classification drives the transparency search:
//   * C-split — different bit slices of the node are written from
//     different sources exclusively, so justifying the node requires
//     justifying every slice (the CPU's ACCUMULATOR);
//   * O-split — the node's fanout is sliced toward different
//     destinations, so propagating its value requires using every slice
//     (the CPU's IR).
//
// Each node also carries its edges partitioned into mandatory slice
// groups, computed once here for the search: for a non-split node all
// edges form a single group of alternatives; for a split node, edges
// with distinct slice ranges are separate groups that must all be
// satisfied, in order of first appearance.
#pragma once

#include <cstdint>
#include <vector>

#include "socet/hscan/hscan.hpp"
#include "socet/rtl/netlist.hpp"
#include "socet/rtl/paths.hpp"

namespace socet::transparency {

struct RcgEdge {
  std::uint32_t src = 0;  ///< node index
  std::uint32_t dst = 0;  ///< node index
  unsigned src_lo = 0;
  unsigned dst_lo = 0;
  unsigned width = 1;
  bool hscan = false;   ///< reused by an HSCAN chain
  bool direct = false;  ///< no multiplexer on the path
  unsigned mux_hops = 0;
};

struct RcgNode {
  rtl::NodeRef ref;
  bool c_split = false;
  bool o_split = false;
  std::vector<std::uint32_t> out_edges;
  std::vector<std::uint32_t> in_edges;
  /// `out_edges` grouped by source slice when O-split (propagation).
  std::vector<std::vector<std::uint32_t>> out_groups;
  /// `in_edges` grouped by destination slice when C-split (justification).
  std::vector<std::vector<std::uint32_t>> in_groups;
};

class Rcg {
 public:
  /// Extract the RCG of `netlist`.  When `hscan` is given, edges reused by
  /// its chains are flagged (and preferred by the transparency search).
  explicit Rcg(const rtl::Netlist& netlist,
               const hscan::HscanConfig* hscan = nullptr);

  const rtl::Netlist& netlist() const { return *netlist_; }
  const std::vector<RcgNode>& nodes() const { return nodes_; }
  const std::vector<RcgEdge>& edges() const { return edges_; }
  const RcgNode& node(std::uint32_t index) const { return nodes_.at(index); }
  const RcgEdge& edge(std::uint32_t index) const { return edges_.at(index); }

  /// Node index for an RTL node reference; throws if absent.
  std::uint32_t index_of(const rtl::NodeRef& ref) const;

  /// Indices of all input-port / output-port nodes.
  std::vector<std::uint32_t> input_nodes() const;
  std::vector<std::uint32_t> output_nodes() const;

  std::string node_name(std::uint32_t index) const;

 private:
  static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};
  /// Node index for `ref`, or kAbsent when it names no node of the graph.
  std::uint32_t find(const rtl::NodeRef& ref) const;

  const rtl::Netlist* netlist_;
  std::vector<RcgNode> nodes_;
  std::vector<RcgEdge> edges_;
  /// Every port and register is a node: a port's node index sits in its
  /// slot here, and registers follow the ports from `first_register_`.
  std::vector<std::uint32_t> port_index_;
  std::uint32_t first_register_ = 0;
};

}  // namespace socet::transparency
