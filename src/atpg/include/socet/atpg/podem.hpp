// PODEM test generation for one stuck-at fault.
//
// Operates on the full-scan combinational view: decision variables are the
// primary inputs and the flip-flop contents (pseudo primary inputs); a
// fault is detected when the composite (good, faulty) simulation shows a
// discrepancy at a primary output or a flip-flop D pin.
//
// The implementation is textbook PODEM: objective selection (activate the
// fault, then advance the D-frontier), backtrace to an input assignment,
// implication, X-path pruning, and chronological backtracking with a
// configurable limit.  Exhausting the decision tree proves the fault
// untestable (redundant).
//
// Implication is levelized and event-driven over a flat (CSR) view of the
// netlist built once per call: the good and faulty 3-valued machines (the
// 5-valued D-algebra) are evaluated together, and only the fanouts of
// lines whose (good, faulty) pair changed are re-evaluated, level by
// level.  The first implication evaluates every gate from the all-X
// state.  A value trail lets a backtrack restore the values from before
// a decision instead of re-implying them.  The lines carrying a D are
// kept as a set, from which the X-path check and the D-frontier start.
#pragma once

#include <cstdint>
#include <vector>

#include "socet/faultsim/faults.hpp"
#include "socet/faultsim/scan_sim.hpp"

namespace socet::atpg {

/// Three-valued logic for each of the good and faulty circuits.
enum class V3 : std::uint8_t { k0, k1, kX };

struct PodemOptions {
  unsigned backtrack_limit = 512;
};

struct PodemResult {
  enum class Outcome { kFound, kUntestable, kAborted };
  Outcome outcome = Outcome::kAborted;
  /// Valid when outcome == kFound.  Unassigned inputs are left 0; the
  /// `dont_care` vector flags them so the caller may refill.
  faultsim::ScanPattern pattern;
  std::vector<bool> pi_dont_care;
  std::vector<bool> ppi_dont_care;
  unsigned backtracks = 0;
  /// Implication calls, and the gate evaluations they made (work units).
  unsigned implications = 0;
  std::uint64_t gate_evals = 0;
};

PodemResult podem(const gate::GateNetlist& netlist, const faultsim::Fault& fault,
                  const PodemOptions& options = {});

/// Multi-site PODEM: every site is injected simultaneously (at most one
/// per gate) and a pattern detecting the combined effect is sought.  This
/// is the engine behind time-frame sequential ATPG, where one permanent
/// fault appears once per unrolled frame.
PodemResult podem_multi(const gate::GateNetlist& netlist,
                        const std::vector<faultsim::Fault>& sites,
                        const PodemOptions& options = {});

}  // namespace socet::atpg
