// Sequential fault simulation (parallel-fault, 511 faulty machines + the
// good machine per Lane<8> word, all fault groups in lockstep).
//
// Used for the paper's "original circuit, no DFT" and "HSCAN-only" rows of
// Table 3: a vector sequence is applied from reset at the chip's primary
// inputs and responses are observed at the primary outputs only.  Bit 0 of
// every simulation word is the good machine; bits 1..511 carry one faulty
// machine each, with the fault permanently injected at its site.
//
// The constructor builds a flat view of the netlist once (gates in
// topo_order() positions, a kind array, CSR fanins), so one simulator can
// serve many run() calls.  run() sweeps every group over that view one
// cycle at a time and drops each fault as soon as it is detected.  A
// group carries only its flip-flop state, so once the survivors fit in
// one group fewer, the emptiest group's survivors move (each as its
// column of flop bits) into the free machine bits of the others, and
// later cycles simulate fewer groups.  Two-valued simulation from reset
// is exact, so grouping and packing order never change a fault's status.
#pragma once

#include <cstdint>
#include <vector>

#include "socet/faultsim/faults.hpp"
#include "socet/faultsim/lane.hpp"
#include "socet/util/bitvector.hpp"

namespace socet::faultsim {

class SequentialFaultSim {
 public:
  /// Keeps its own flat copy of `netlist`: later edits to the netlist are
  /// not seen.  run() works in scratch the simulator owns, so one
  /// simulator serves one thread at a time.
  explicit SequentialFaultSim(const gate::GateNetlist& netlist);

  /// Apply `sequence` (one BitVector per cycle, one bit per primary input,
  /// ordered like GateNetlist::inputs()) from reset.  Faults whose machine
  /// diverges from the good machine at any primary output in any cycle are
  /// marked kDetected in `statuses`; only kUndetected faults are simulated.
  ///
  /// Raises util::Error before writing any status when the list is
  /// malformed (a fault on a gate outside the netlist, a pin fault on an
  /// input or constant, or on a pin the gate does not have) or a vector is
  /// narrower than the primary inputs, even when `sequence` is empty.
  void run(const std::vector<Fault>& faults,
           const std::vector<util::BitVector>& sequence,
           std::vector<FaultStatus>& statuses);

 private:
  using Word = Lane<8>;
  struct Group;

  void validate(const std::vector<Fault>& faults,
                const std::vector<util::BitVector>& sequence) const;
  void index_sites(Group& group, const std::vector<Fault>& faults) const;
  /// One cycle of one group: settle, observe, capture.  Returns the
  /// machines that differ from the good machine at a primary output.
  Word step(Group& group);
  bool eval_pin_fault(std::uint32_t pos, unsigned machine, std::int32_t pin,
                      bool stuck_at) const;

  // Flat view, indexed by topo_order() position.
  std::vector<gate::GateKind> kind_;
  std::vector<std::uint32_t> fanin_begin_;  ///< CSR row starts (n + 1)
  std::vector<std::uint32_t> fanin_;        ///< fanin positions
  std::vector<std::uint32_t> pos_of_;       ///< gate index -> position
  std::vector<std::uint32_t> input_pos_;    ///< in inputs() order
  std::vector<std::uint32_t> dff_pos_;      ///< ascending: the state slots
  std::vector<std::uint32_t> d_pos_;        ///< D driver of each slot
  std::vector<std::uint32_t> po_pos_;
  std::vector<Word> values_;                ///< one group's settled cycle
  std::vector<Word> pi_;                    ///< this cycle's input words
};

}  // namespace socet::faultsim
