// Combinational (full-scan) fault simulation.
//
// A full-scan circuit is tested through its combinational view: every scan
// pattern sets the primary inputs and the flip-flop contents (pseudo
// primary inputs), and responses are observed at the primary outputs and
// flip-flop D pins (pseudo primary outputs).  The simulator runs the good
// machine once per pattern block, then walks each still-undetected fault
// up its fanout-free region and replays each needed region root's fanout
// cone once, with fault dropping.
//
// ScanFaultSim is a facade over the lane-generic block kernels
// (block_engine.hpp): pattern blocks are 64, 256 or 512 patterns wide
// depending on how many patterns a run carries (overridable via
// ScanSimOptions), and on AVX2 hardware the wide widths run the
// vectorized kernel family.  Detection statuses are identical at every
// width and with either kernel family: detection is a per-fault,
// per-pattern property that block shape cannot change.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "socet/faultsim/block_engine.hpp"
#include "socet/faultsim/cone.hpp"
#include "socet/faultsim/faults.hpp"
#include "socet/faultsim/pattern.hpp"
#include "socet/util/bitvector.hpp"

namespace socet::faultsim {

struct ScanSimOptions {
  /// Pattern-block width in 64-bit words (1, 4 or 8); 0 picks the width
  /// from the run's pattern count (<=64 patterns: 1; <=256: 4; else 8).
  unsigned lane_words = 0;
  /// Use the AVX2 kernel family for multi-word lanes when the build has
  /// the AVX2 translation unit and the CPU reports AVX2.
  bool use_avx2 = true;
  /// Event-driven good machine: re-evaluate only fanout cones of nets
  /// whose packed pattern word changed between blocks.
  bool event_driven = true;
  /// Value-change suppression inside fault cone replays (see
  /// EngineOptions::replay_suppression).
  bool replay_suppression = true;
  /// Starting scratch-epoch value (test hook; see EngineOptions).
  std::uint64_t initial_stamp = 0;
};

class ScanFaultSim {
 public:
  explicit ScanFaultSim(const gate::GateNetlist& netlist,
                        ScanSimOptions options = {});

  /// Simulate `patterns` against `faults`; marks newly detected faults in
  /// `statuses` (kUndetected -> kDetected).  Other statuses are untouched.
  /// When `first_detect` is given it is sized to `faults`, and each newly
  /// detected fault's entry is set to the index in `patterns` of the
  /// first pattern that detects it; other entries are untouched.
  void run(const std::vector<Fault>& faults,
           const std::vector<ScanPattern>& patterns,
           std::vector<FaultStatus>& statuses,
           std::vector<std::size_t>* first_detect = nullptr);

  /// Good-machine responses for one pattern: values of POs then PPOs.
  /// Useful for building expected-response data.
  util::BitVector good_response(const ScanPattern& pattern);

  /// The response the circuit produces for `pattern` *with `fault`
  /// injected* (same PO+PPO layout as good_response).  Drives the fault
  /// dictionary used by diagnosis.
  util::BitVector faulty_response(const Fault& fault,
                                  const ScanPattern& pattern);

  /// Width the auto policy picks for a run of `pattern_count` patterns.
  static unsigned auto_lane_words(std::size_t pattern_count);

  /// Width and kernel family of the most recent run() (tests/benches).
  [[nodiscard]] unsigned last_lane_words() const { return last_lane_words_; }
  [[nodiscard]] const char* last_kernel() const { return last_kernel_; }

 private:
  BlockEngineBase& engine_for(unsigned lane_words);

  const gate::GateNetlist& netlist_;
  ScanSimOptions options_;
  ConeCache cones_;
  /// One lazily created engine per supported width (slots: W=1, 4, 8).
  std::array<std::unique_ptr<BlockEngineBase>, 3> engines_;
  unsigned last_lane_words_ = 0;
  const char* last_kernel_ = "";
};

}  // namespace socet::faultsim
