// The Core: what a core provider ships under the SOCET methodology.
//
// One call to Core::prepare performs the provider-side, one-time work of
// the paper's Section 3: HSCAN insertion, RCG extraction, and synthesis of
// the standard version menu (Figures 6/8).  The user-side chip flow then
// consumes only this object: port interface, per-version latency tables
// and overheads, scan depth, and the precomputed test-set size.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "socet/hscan/hscan.hpp"
#include "socet/rtl/netlist.hpp"
#include "socet/transparency/rcg.hpp"
#include "socet/transparency/versions.hpp"

namespace socet::core {

struct CoreCostModels {
  hscan::HscanCostModel hscan;
  transparency::TransparencyCostModel transparency;
};

/// Everything a core provider ships for a *hard* core: the interface and
/// DFT/transparency summary, but no netlist.  See core/serialize.hpp for
/// the text format.
struct CoreInterface {
  std::string name;
  std::vector<rtl::Port> ports;
  unsigned scan_vectors = 0;
  unsigned hscan_overhead_cells = 0;
  unsigned hscan_max_depth = 0;
  unsigned fscan_overhead_cells = 0;
  unsigned flip_flops = 0;
  std::vector<transparency::CoreVersion> versions;
};

class Core {
 public:
  /// Run the full provider-side flow on `netlist`: HSCAN chains, RCG,
  /// standard three-version transparency menu.  The netlist's transfer
  /// paths are enumerated once here and feed both HSCAN and the RCG.
  /// `inspect_rcg`, when set, is shown the RCG the menu was derived from
  /// (HSCAN edges flagged) before it is discarded — what `socet dot`
  /// renders.
  static Core prepare(
      rtl::Netlist netlist, const CoreCostModels& cost = {},
      const std::function<void(const transparency::Rcg&)>& inspect_rcg = {});

  /// Reconstruct a Core from a shipped interface (hard cores).  The
  /// resulting Core carries a ports-only netlist: it plugs into Soc,
  /// planning and optimization exactly like a prepared core, but cannot be
  /// elaborated or re-analyzed.
  static Core from_interface(const CoreInterface& interface);

  /// The shippable summary of this core.
  CoreInterface to_interface() const;

  const std::string& name() const { return netlist_->name(); }
  const rtl::Netlist& netlist() const { return *netlist_; }
  const hscan::HscanConfig& hscan() const { return hscan_; }

  const std::vector<transparency::CoreVersion>& versions() const {
    return versions_;
  }
  const transparency::CoreVersion& version(std::size_t index) const {
    return versions_.at(index);
  }
  std::size_t version_count() const { return versions_.size(); }

  /// Size of the precomputed combinational test set (e.g. from ATPG).
  /// Must be set before chip-level TAT computation.
  void set_scan_vectors(unsigned vectors) { scan_vectors_ = vectors; }
  unsigned scan_vectors() const { return scan_vectors_; }

  /// HSCAN vectors = scan vectors expanded over the chain depth (the
  /// paper's 105 -> 525 for the DISPLAY).
  unsigned hscan_vectors() const {
    return hscan_.sequence_length(scan_vectors_);
  }

  /// Cells added by the core-level DFT (HSCAN chains).
  unsigned hscan_overhead_cells() const { return hscan_.overhead_cells; }
  /// Cells full scan would have cost instead (FSCAN column of Table 2).
  unsigned fscan_overhead_cells() const { return fscan_cells_; }
  /// Widths of all ports, for boundary-scan cell accounting.
  unsigned total_port_bits() const;
  unsigned flip_flop_count() const { return ff_count_; }

 private:
  Core() = default;

  unsigned ff_count_ = 0;

  /// Heap-held so Core stays cheaply movable and version/config references
  /// into the netlist stay stable.
  std::shared_ptr<const rtl::Netlist> netlist_;
  hscan::HscanConfig hscan_;
  std::vector<transparency::CoreVersion> versions_;
  unsigned scan_vectors_ = 0;
  unsigned fscan_cells_ = 0;
};

}  // namespace socet::core
