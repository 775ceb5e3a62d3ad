#include "socet/hscan/hscan.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "socet/obs/trace.hpp"

namespace socet::hscan {

namespace {

using rtl::NodeKind;
using rtl::NodeRef;
using rtl::PortId;
using rtl::RegisterId;
using rtl::TransferPath;

/// Candidate chain hop backed by an existing path.
struct Edge {
  NodeRef to;
  LinkKind kind;
};

}  // namespace

bool HscanConfig::covers(rtl::RegisterId reg) const {
  for (const auto& chain : chains) {
    if (std::find(chain.registers.begin(), chain.registers.end(), reg) !=
        chain.registers.end()) {
      return true;
    }
  }
  return false;
}

HscanConfig build_hscan(const rtl::Netlist& netlist,
                        const HscanCostModel& cost) {
  SOCET_SPAN("hscan/build");
  const auto inputs = netlist.input_ports();
  const auto outputs = netlist.output_ports();
  util::require(!inputs.empty() && !outputs.empty(),
                "build_hscan: netlist needs input and output ports");

  // Existing-path adjacency between RCG nodes.  Prefer direct links (an OR
  // gate) over mux paths (two gates); first match wins below, so sort
  // direct-first.
  std::map<NodeRef, std::vector<Edge>> adjacency;
  for (const TransferPath& path : rtl::enumerate_transfer_paths(netlist)) {
    adjacency[path.src].push_back(
        Edge{path.dst, path.direct() ? LinkKind::kDirect : LinkKind::kMuxPath});
  }
  for (auto& [node, edges] : adjacency) {
    std::stable_sort(edges.begin(), edges.end(),
                     [](const Edge& a, const Edge& b) {
                       return static_cast<int>(a.kind) <
                              static_cast<int>(b.kind);
                     });
  }

  HscanConfig config;
  config.chains.reserve(inputs.size());
  for (PortId head : inputs) {
    ScanChain chain;
    chain.head = head;
    config.chains.push_back(std::move(chain));
  }

  std::set<RegisterId> unassigned;
  for (std::size_t i = 0; i < netlist.registers().size(); ++i) {
    unassigned.insert(RegisterId(static_cast<std::uint32_t>(i)));
  }

  auto link_cost = [&](LinkKind kind, const NodeRef& to) -> unsigned {
    switch (kind) {
      case LinkKind::kDirect:
        return cost.direct_link;
      case LinkKind::kMuxPath:
        return cost.mux_path_link;
      case LinkKind::kTestMux:
        return cost.test_mux_per_bit * rtl::node_width(netlist, to);
    }
    return 0;
  };

  auto tail_node = [&](const ScanChain& chain) -> NodeRef {
    if (chain.registers.empty()) return rtl::port_node(netlist, chain.head);
    return rtl::register_node(chain.registers.back());
  };

  auto extend = [&](ScanChain& chain, const NodeRef& to, LinkKind kind) {
    const NodeRef from = tail_node(chain);
    const unsigned cells = link_cost(kind, to);
    chain.links.push_back(ChainLink{from, to, kind, cells});
    chain.registers.push_back(RegisterId(to.index));
    config.overhead_cells += cells;
    if (kind == LinkKind::kTestMux) {
      config.added_links.emplace_back(from, to);
    } else {
      config.reused_edges.emplace_back(from, to);
    }
    unassigned.erase(RegisterId(to.index));
  };

  // Round-robin extension keeps the chains depth-balanced (low vector
  // multiplier).  Existing-path hops are always preferred; a test mux is
  // inserted only when no chain can grow along an existing path, and then
  // only one, on the shallowest chain, into a width-matched register.
  while (!unassigned.empty()) {
    bool progressed = false;
    for (ScanChain& chain : config.chains) {
      if (unassigned.empty()) break;
      const NodeRef from = tail_node(chain);
      if (auto it = adjacency.find(from); it != adjacency.end()) {
        for (const Edge& edge : it->second) {
          if (edge.to.kind != NodeKind::kRegister) continue;
          if (!unassigned.count(RegisterId(edge.to.index))) continue;
          extend(chain, edge.to, edge.kind);
          progressed = true;
          break;
        }
      }
    }
    if (progressed || unassigned.empty()) continue;

    // Deadlock: splice one test mux into the shallowest chain, preferring
    // a register whose width matches the chain tail's width.
    ScanChain* shallowest = &config.chains.front();
    for (ScanChain& chain : config.chains) {
      if (chain.depth() < shallowest->depth()) shallowest = &chain;
    }
    const unsigned tail_width =
        rtl::node_width(netlist, tail_node(*shallowest));
    RegisterId target = *unassigned.begin();
    for (RegisterId reg : unassigned) {
      if (netlist.reg(reg).width == tail_width) {
        target = reg;
        break;
      }
    }
    extend(*shallowest, rtl::register_node(target), LinkKind::kTestMux);
  }

  // Terminate every non-empty chain at an output port: reuse an existing
  // path if one exists, preferring ports not already used as a tail.
  std::set<PortId> used_tails;
  for (ScanChain& chain : config.chains) {
    if (chain.registers.empty()) continue;
    const NodeRef from = tail_node(chain);

    const Edge* best = nullptr;
    if (auto it = adjacency.find(from); it != adjacency.end()) {
      for (const Edge& edge : it->second) {
        if (edge.to.kind != NodeKind::kOutputPort) continue;
        if (best == nullptr) best = &edge;
        if (!used_tails.count(PortId(edge.to.index))) {
          best = &edge;
          break;
        }
      }
    }
    NodeRef to;
    LinkKind kind;
    if (best != nullptr) {
      to = best->to;
      kind = best->kind;
    } else {
      // Test mux onto the first free output port (or port 0 if all taken).
      PortId target = outputs.front();
      for (PortId po : outputs) {
        if (!used_tails.count(po)) {
          target = po;
          break;
        }
      }
      to = rtl::port_node(netlist, target);
      kind = LinkKind::kTestMux;
    }
    const unsigned cells = link_cost(kind, to);
    chain.links.push_back(ChainLink{from, to, kind, cells});
    chain.tail = PortId(to.index);
    used_tails.insert(chain.tail);
    config.overhead_cells += cells;
    if (kind == LinkKind::kTestMux) {
      config.added_links.emplace_back(from, to);
    } else {
      config.reused_edges.emplace_back(from, to);
    }
    config.max_depth = std::max(config.max_depth, chain.depth());
  }

  // Drop chains that never picked up a register.
  std::erase_if(config.chains,
                [](const ScanChain& c) { return c.registers.empty(); });
  return config;
}

unsigned fscan_overhead_cells(const rtl::Netlist& netlist,
                              const HscanCostModel& cost) {
  return netlist.flip_flop_count() * cost.fscan_per_ff;
}

}  // namespace socet::hscan
