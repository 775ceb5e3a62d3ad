// Fanout-free regions and region-root fanout cones for fault simulation.
//
// A fault effect inside a fanout-free region (FFR) leaves the region only
// through its root (see region_root), so a fault replay needs the fanout
// cones of region roots only.  They are all built once, at construction,
// bottom-up in reverse topological order: a root's cone is each fanout's
// chain up to that fanout's region root, plus that root and its cone.
// Each cone is a bitmap over topological positions trimmed to the words
// it spans, so a union is a word-wise OR and walking the set bits yields
// the gates in topological order.  Everything here depends only on the
// netlist and is immutable once built, so one ConeCache serves every
// lane width and every worker thread without locking.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "socet/gate/netlist.hpp"

namespace socet::faultsim {

class ConeCache {
 public:
  explicit ConeCache(const gate::GateNetlist& netlist);

  ConeCache(const ConeCache&) = delete;
  ConeCache& operator=(const ConeCache&) = delete;

  /// Root of the fanout-free region (FFR) that contains `id`.  A gate
  /// that is not observed and has exactly one fanout, not a DFF, belongs
  /// to its fanout's region; every other gate roots its own.  A fault
  /// effect inside a region can leave it only through the root, walking
  /// the chain `id`, fanouts[id][0], ... up to it.
  [[nodiscard]] gate::GateId region_root(gate::GateId id) const {
    return root_[id.index()];
  }

  /// Observation points of one scan pattern: POs plus every DFF's D
  /// fanin (PPOs), sorted and unique.
  [[nodiscard]] const std::vector<gate::GateId>& observe_points() const {
    return observe_;
  }
  [[nodiscard]] bool observed(gate::GateId id) const {
    return is_observe_[id.index()] != 0;
  }

  /// Calls `visit(g)` for every gate of `id`'s fanout cone other than
  /// `id`, in topological order, until `visit` returns false: the chain
  /// from `id` up to its region root, the root, then the root's cone.
  /// DFFs terminate propagation (their D pin is the observation point
  /// within one scan pattern), so only `id` itself can be a DFF.
  template <typename Visit>
  void for_each_in_cone(gate::GateId id, Visit&& visit) const {
    const gate::GateId root = root_[id.index()];
    for (gate::GateId at = id; at != root;) {
      at = netlist_.fanouts()[at.index()][0];
      if (!visit(at)) return;
    }
    const Span& span = spans_[root.index()];
    const auto& order = netlist_.topo_order();
    for (std::uint32_t k = 0; k < span.words; ++k) {
      const std::size_t base = std::size_t{span.first_word + k} << 6;
      for (std::uint64_t bits = words_[span.offset + k]; bits != 0;
           bits &= bits - 1) {
        if (!visit(order[base + std::countr_zero(bits)])) return;
      }
    }
  }

  [[nodiscard]] const gate::GateNetlist& netlist() const { return netlist_; }

 private:
  /// Where a root's cone bitmap (the root itself excluded) lives: `words`
  /// words at words_[offset], covering topological positions from
  /// 64 * first_word on.
  struct Span {
    std::size_t offset = 0;
    std::uint32_t first_word = 0;
    std::uint32_t words = 0;
  };

  const gate::GateNetlist& netlist_;
  std::vector<gate::GateId> observe_;
  std::vector<unsigned char> is_observe_;
  std::vector<gate::GateId> root_;
  std::vector<Span> spans_;  ///< per gate; empty for non-roots
  std::vector<std::uint64_t> words_;
};

}  // namespace socet::faultsim
