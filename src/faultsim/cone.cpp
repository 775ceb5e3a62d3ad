#include "socet/faultsim/cone.hpp"

#include <algorithm>

namespace socet::faultsim {

using gate::GateId;
using gate::GateKind;

ConeCache::ConeCache(const gate::GateNetlist& netlist)
    : netlist_(netlist),
      is_observe_(netlist.gate_count(), 0),
      root_(netlist.gate_count()),
      spans_(netlist.gate_count()) {
  const auto& order = netlist.topo_order();
  const auto& fanouts = netlist.fanouts();
  std::vector<std::uint32_t> pos(netlist.gate_count());
  for (std::size_t i = 0; i < order.size(); ++i) {
    pos[order[i].index()] = static_cast<std::uint32_t>(i);
  }
  const auto combinational = [&](GateId g) {
    return netlist.gate(g).kind != GateKind::kDff;
  };

  observe_ = netlist.outputs();
  for (GateId dff : netlist.dffs()) {
    observe_.push_back(netlist.gate(dff).fanin[0]);
  }
  std::sort(observe_.begin(), observe_.end());
  observe_.erase(std::unique(observe_.begin(), observe_.end()),
                 observe_.end());
  for (GateId obs : observe_) is_observe_[obs.index()] = 1;

  // Reverse topological order visits a gate's fanouts before the gate,
  // so a chain gate inherits an already final root, and a root finds the
  // cones of its fanouts' roots already built.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t i = it->index();
    const auto& out = fanouts[i];
    const bool chain =
        !is_observe_[i] && out.size() == 1 && combinational(out[0]);
    root_[i] = chain ? root_[out[0].index()] : *it;
  }

  // Extents: a chain climbs to its root, and a cone lies after its root,
  // so the highest position a root's cone reaches is the highest one its
  // fanouts' roots and their cones reach.
  std::vector<std::uint32_t> last(netlist.gate_count());
  std::size_t total = 0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t r = it->index();
    if (root_[r] != *it) continue;
    std::uint32_t hi = pos[r];
    for (GateId out : fanouts[r]) {
      if (combinational(out)) hi = std::max(hi, last[root_[out.index()].index()]);
    }
    last[r] = hi;
    Span& span = spans_[r];
    span.offset = total;
    span.first_word = pos[r] >> 6;
    span.words = (hi >> 6) - span.first_word + 1;
    total += span.words;
  }

  // Bitmaps: a root's cone marks each fanout's chain up to and including
  // the chain's root, then ORs in that root's cone.
  words_.assign(total, 0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t r = it->index();
    if (root_[r] != *it) continue;
    const Span& span = spans_[r];
    std::uint64_t* cone = &words_[span.offset];
    for (GateId out : fanouts[r]) {
      if (!combinational(out)) continue;
      GateId at = out;
      while (true) {
        const std::uint32_t p = pos[at.index()];
        cone[(p >> 6) - span.first_word] |= std::uint64_t{1} << (p & 63);
        if (root_[at.index()] == at) break;
        at = fanouts[at.index()][0];
      }
      const Span& sub = spans_[at.index()];
      for (std::uint32_t k = 0; k < sub.words; ++k) {
        cone[sub.first_word - span.first_word + k] |= words_[sub.offset + k];
      }
    }
  }
}

}  // namespace socet::faultsim
