// SAT-based redundancy proof for one stuck-at fault (Larrabee, "Test
// pattern generation using Boolean satisfiability", IEEE TCAD 1992).
//
// The encoder turns a fault into a miter over the full-scan
// combinational view and hands it to the CDCL solver of sat.hpp; the two
// are kept apart, so the solver knows nothing of circuits.  A satisfying
// assignment is a test (the PI/PPI values detect the fault); UNSAT proves
// the fault redundant, which PODEM can only do by exhausting its decision
// tree.
//
// The miter covers only the fault's cone:
//   - faulty variables for the fault's fanout cone, cut to the gates that
//     reach an observation point (a PO or a flip-flop D pin);
//   - good variables for the transitive fan-in of that cut cone;
//   - one sensitized-path ("active") variable per cut-cone gate.  An
//     active gate's good and faulty values differ, an active gate that is
//     not observed has an active fanout, and the fault site is active.
// A path of active gates must therefore run from the site to an
// observation point.  (The shortcut "a differing unobserved gate has a
// differing fanout" is unsound under reconvergence: two differences can
// cancel where the paths meet, and the rule then forbids the detecting
// assignment.)
//
// Per-netlist structure (flat fan-in/fan-out, observation flags and each
// gate's clause template) is built once in MiterScratch; each proof then
// encodes into the scratch's reused buffers and solver.
#pragma once

#include <cstdint>
#include <vector>

#include "socet/atpg/sat.hpp"
#include "socet/faultsim/faults.hpp"
#include "socet/faultsim/pattern.hpp"

namespace socet::atpg {

struct ProofResult {
  /// kUnsat: no pattern detects the fault (redundant).  kSat: a test
  /// exists (MiterScratch::model_pattern).  kUnknown: conflict limit.
  sat::Result result = sat::Result::kUnknown;
  std::uint64_t conflicts = 0;
};

/// The structure every proof on one netlist shares, and buffers reused
/// (cleared, not freed) from one fault to the next.
class MiterScratch {
 public:
  explicit MiterScratch(const gate::GateNetlist& netlist);

  /// The test the last kSat proof found: its PI/PPI assignment, with
  /// inputs outside the fault's cone read as 0.
  [[nodiscard]] faultsim::ScanPattern model_pattern() const;

 private:
  friend ProofResult prove_untestable(const gate::GateNetlist& netlist,
                                      const faultsim::Fault& fault,
                                      MiterScratch& scratch,
                                      std::uint64_t conflict_limit);

  bool is_source(std::uint32_t g) const {
    return kind_[g] == gate::GateKind::kInput ||
           kind_[g] == gate::GateKind::kDff;
  }
  /// Add gate g's template clauses with slot 0 read as `out` and slot
  /// k + 1 as `in[k]`.
  void emit_gate(std::uint32_t g, sat::Lit out, const sat::Lit* in);

  const gate::GateNetlist* netlist_;
  std::vector<gate::GateKind> kind_;
  std::vector<std::uint32_t> fanin_begin_;
  std::vector<std::uint32_t> fanin_;
  std::vector<std::uint32_t> fanout_begin_;
  std::vector<std::uint32_t> fanout_;  ///< combinational sinks only
  std::vector<std::uint32_t> topo_pos_;
  std::vector<std::uint8_t> observable_;  ///< PO, or feeds a DFF D pin
  /// Clause templates, one per (kind, fanin count) and shared by every
  /// gate of that shape: a clause count and a literal count, then codes
  /// 2 * slot + negated with each clause ended by kEnd.  Slot 0 is the
  /// gate's output and slot k + 1 its fanin k.
  std::vector<std::uint32_t> tmpl_;
  std::vector<std::uint32_t> tmpl_of_;  ///< by gate: offset in tmpl_

  // Per-proof buffers.  A gate is in a set when its stamp equals stamp_.
  std::uint64_t stamp_ = 0;
  std::vector<std::uint64_t> in_cone_;    ///< fanout cone of the site
  std::vector<std::uint64_t> live_;       ///< cone gates reaching an output
  std::vector<std::uint64_t> in_region_;  ///< good-machine variables
  std::vector<std::uint32_t> cone_;
  std::vector<std::uint32_t> region_;
  std::vector<sat::Lit> good_;    ///< by gate: good-machine literal
  std::vector<sat::Lit> faulty_;  ///< by gate: faulty-machine literal
  std::vector<std::uint32_t> active_;  ///< by gate: sensitized-path var
  std::vector<sat::Lit> pins_;
  std::vector<sat::Lit> clause_;
  sat::Solver solver_;
};

/// Decide whether some scan pattern detects `fault` on `netlist` (the
/// netlist `scratch` was built for), spending at most `conflict_limit`
/// solver conflicts.
ProofResult prove_untestable(const gate::GateNetlist& netlist,
                             const faultsim::Fault& fault,
                             MiterScratch& scratch,
                             std::uint64_t conflict_limit);

}  // namespace socet::atpg
