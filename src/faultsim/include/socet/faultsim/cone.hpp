// Shared fanout-cone cache for fault simulation.
//
// Every fault replay walks the topologically-sorted fanout cone of its
// site.  Cones depend only on the netlist, so one cache serves every lane
// width and every worker thread: the partitioned simulator's per-thread
// engines all borrow one ConeCache built over the shared read-only
// netlist.  Lookups of built cones are lock-free (an acquire load of the
// per-gate built flag); a miss builds the cone under a mutex with a
// stamped BFS scratch that is allocated once, not per cone, and orders
// it through a topological-position bitmap instead of a sort.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "socet/gate/netlist.hpp"

namespace socet::faultsim {

class ConeCache {
 public:
  explicit ConeCache(const gate::GateNetlist& netlist);

  ConeCache(const ConeCache&) = delete;
  ConeCache& operator=(const ConeCache&) = delete;

  /// The fanout cone of `id` in topological order, `id` first.  DFFs
  /// terminate propagation (their D pin is the observation point within
  /// one scan pattern).  Thread-safe: concurrent callers may race to
  /// build the same cone; exactly one build wins and all callers see a
  /// fully published vector.
  const std::vector<gate::GateId>& of(gate::GateId id);

  /// Topological position of every gate (shared by engines for cone
  /// ordering and event-driven scheduling).
  [[nodiscard]] const std::vector<std::uint32_t>& topo_pos() const {
    return topo_pos_;
  }

  [[nodiscard]] const gate::GateNetlist& netlist() const { return netlist_; }

  /// Number of cones built so far (metrics / tests).
  [[nodiscard]] std::size_t built_count() const {
    return built_cones_.load(std::memory_order_relaxed);
  }

 private:
  void build_locked(gate::GateId id);

  const gate::GateNetlist& netlist_;
  std::vector<std::vector<gate::GateId>> cones_;
  /// One acquire/release flag per gate: set only after cones_[i] is
  /// fully constructed (cones_ itself is never resized after the ctor).
  std::unique_ptr<std::atomic<unsigned char>[]> built_;
  std::vector<std::uint32_t> topo_pos_;

  std::mutex build_mutex_;
  /// Stamped BFS scratch (guarded by build_mutex_): seen_stamp_[g] ==
  /// bfs_stamp_ marks g visited in the current build, so no
  /// gate_count-sized vector is allocated or cleared per cone.
  std::vector<std::uint64_t> seen_stamp_;
  std::uint64_t bfs_stamp_ = 0;
  /// Topological-position bitmap (guarded by build_mutex_) that orders a
  /// cone's BFS hits; all-zero between builds.
  std::vector<std::uint64_t> order_bits_;
  std::atomic<std::size_t> built_cones_{0};
};

}  // namespace socet::faultsim
