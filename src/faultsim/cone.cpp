#include "socet/faultsim/cone.hpp"

#include <algorithm>
#include <bit>

namespace socet::faultsim {

using gate::GateId;
using gate::GateKind;

ConeCache::ConeCache(const gate::GateNetlist& netlist)
    : netlist_(netlist),
      cones_(netlist.gate_count()),
      built_(new std::atomic<unsigned char>[netlist.gate_count()]),
      topo_pos_(netlist.gate_count(), 0),
      seen_stamp_(netlist.gate_count(), 0),
      order_bits_((netlist.gate_count() + 63) / 64, 0) {
  for (std::size_t i = 0; i < netlist.gate_count(); ++i) {
    built_[i].store(0, std::memory_order_relaxed);
  }
  const auto& order = netlist.topo_order();
  for (std::size_t i = 0; i < order.size(); ++i) {
    topo_pos_[order[i].index()] = static_cast<std::uint32_t>(i);
  }
  // Force the lazily built fanout lists now, while construction is still
  // single-threaded; after this, every netlist_ access is a const read.
  (void)netlist.fanouts();
}

const std::vector<GateId>& ConeCache::of(GateId id) {
  if (built_[id.index()].load(std::memory_order_acquire)) {
    return cones_[id.index()];
  }
  std::lock_guard<std::mutex> lock(build_mutex_);
  if (!built_[id.index()].load(std::memory_order_relaxed)) {
    build_locked(id);
  }
  return cones_[id.index()];
}

void ConeCache::build_locked(GateId id) {
  // Forward BFS through fanouts; DFFs terminate propagation within one
  // scan pattern (their D value is the observation point).
  ++bfs_stamp_;
  std::vector<GateId> cone{id};
  seen_stamp_[id.index()] = bfs_stamp_;
  const auto& fanouts = netlist_.fanouts();
  for (std::size_t head = 0; head < cone.size(); ++head) {
    if (netlist_.gate(cone[head]).kind == GateKind::kDff && head != 0) {
      continue;
    }
    for (GateId next : fanouts[cone[head].index()]) {
      if (seen_stamp_[next.index()] == bfs_stamp_) continue;
      if (netlist_.gate(next).kind == GateKind::kDff) continue;
      seen_stamp_[next.index()] = bfs_stamp_;
      cone.push_back(next);
    }
  }
  // Topological order without a sort: mark every hit's topological
  // position in the bitmap, then walk the set bits in order, clearing
  // each word as it is read so the bitmap is all-zero for the next build.
  std::size_t lo = order_bits_.size();
  std::size_t hi = 0;
  for (GateId g : cone) {
    const std::uint32_t pos = topo_pos_[g.index()];
    order_bits_[pos >> 6] |= std::uint64_t{1} << (pos & 63);
    lo = std::min<std::size_t>(lo, pos >> 6);
    hi = std::max<std::size_t>(hi, pos >> 6);
  }
  const auto& order = netlist_.topo_order();
  std::size_t out = 0;
  for (std::size_t w = lo; w <= hi; ++w) {
    for (std::uint64_t bits = order_bits_[w]; bits != 0; bits &= bits - 1) {
      cone[out++] = order[(w << 6) + std::countr_zero(bits)];
    }
    order_bits_[w] = 0;
  }
  cones_[id.index()] = std::move(cone);
  built_cones_.fetch_add(1, std::memory_order_relaxed);
  built_[id.index()].store(1, std::memory_order_release);
}

}  // namespace socet::faultsim
