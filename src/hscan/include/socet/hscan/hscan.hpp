// HSCAN: high-level scan insertion (Bhattacharya & Dey, VTS'96), the
// paper's underlying core-level DFT technique.
//
// Registers are stitched into parallel scan chains running from circuit
// inputs to circuit outputs.  Wherever an existing multiplexer or direct
// path already connects two registers, the chain reuses it for one or two
// extra gates; only when no path exists (or it conflicts with previously
// built chain segments) is a test multiplexer inserted.  Because the
// result is a full-scan circuit, test generation stays combinational.
//
// The returned configuration feeds three consumers:
//   * vector-count accounting: an HSCAN test sequence applies
//     combinational vectors in (max chain depth + 1)-cycle frames;
//   * the transparency engine, which prefers reusing HSCAN edges (the
//     darkened edges of the paper's Figure 7);
//   * area accounting for Table 2's HSCAN overhead column.
#pragma once

#include <span>
#include <vector>

#include "socet/rtl/netlist.hpp"
#include "socet/rtl/paths.hpp"

namespace socet::hscan {

enum class LinkKind : std::uint8_t {
  kMuxPath,   ///< reused existing mux path (select gating + load OR)
  kDirect,    ///< reused direct connection (load OR only)
  kTestMux,   ///< inserted scan multiplexer (integrated into scan FFs)
};

/// One hop of a scan chain: input port -> register, register -> register,
/// or register -> output port.
struct ChainLink {
  rtl::NodeRef from;
  rtl::NodeRef to;
  LinkKind kind = LinkKind::kTestMux;
  unsigned cost_cells = 0;
};

struct ScanChain {
  rtl::PortId head;  ///< input port feeding the chain
  rtl::PortId tail;  ///< output port observing the chain
  std::vector<rtl::RegisterId> registers;
  std::vector<ChainLink> links;

  /// Sequential depth = number of registers on the chain.
  [[nodiscard]] unsigned depth() const {
    return static_cast<unsigned>(registers.size());
  }
};

/// Per-feature cell costs, matching the paper's examples: a reused mux
/// path needs "just two extra logic gates" (Figure 1(a)); a direct
/// connection "only an OR gate"; an inserted test mux costs one mux cell
/// per bit (it is integrated into the destination scan flip-flops).
struct HscanCostModel {
  unsigned mux_path_link = 2;
  unsigned direct_link = 1;
  unsigned test_mux_per_bit = 1;
  /// Full-scan conversion cost per flip-flop (scan mux + enable buffer),
  /// for the FSCAN comparison column.
  unsigned fscan_per_ff = 4;
};

struct HscanConfig {
  std::vector<ScanChain> chains;
  unsigned overhead_cells = 0;
  unsigned max_depth = 0;

  /// Directed register/port node pairs whose existing paths the chains
  /// reuse — exactly the darkened RCG edges of the paper's Figure 7.
  std::vector<std::pair<rtl::NodeRef, rtl::NodeRef>> reused_edges;

  /// Chain hops realized by inserted test muxes.  These are *new* paths
  /// the RCG must add (also usable by the transparency search — the paper
  /// reuses "existing paths in the core, including HSCAN paths").
  std::vector<std::pair<rtl::NodeRef, rtl::NodeRef>> added_links;

  /// An HSCAN test sequence applies each combinational scan vector over
  /// (max depth + 1) cycles (shift in depth cycles + 1 capture).
  [[nodiscard]] unsigned vector_multiplier() const { return max_depth + 1; }

  /// HSCAN vector count for a combinational test set of `scan_vectors`
  /// patterns (the paper's 105 -> 525 expansion for the DISPLAY).
  [[nodiscard]] unsigned sequence_length(unsigned scan_vectors) const {
    return scan_vectors * vector_multiplier();
  }

  [[nodiscard]] bool covers(rtl::RegisterId reg) const;
};

/// Build HSCAN chains for `netlist`, whose transfer paths
/// (rtl::enumerate_transfer_paths) are `paths`.  Every register lands on
/// exactly one chain; chains are balanced round-robin across the
/// available input ports.  Throws util::Error if the netlist has no input
/// or no output port (nothing to anchor a chain to).
HscanConfig build_hscan(const rtl::Netlist& netlist,
                        std::span<const rtl::TransferPath> paths,
                        const HscanCostModel& cost = {});

/// Cell overhead of plain full scan on the same netlist (FSCAN column of
/// Table 2): every flip-flop becomes a scan flip-flop.
unsigned fscan_overhead_cells(const rtl::Netlist& netlist,
                              const HscanCostModel& cost = {});

}  // namespace socet::hscan
