// Lane-generic fault-simulation kernels behind a width-erased interface.
//
// A BlockEngine simulates 64*W patterns per pass (W = 1, 4 or 8 machine
// words — see lane.hpp) with the same algorithm at every width: good
// machine once per block, then, with fault dropping, a walk of each
// fault's fanout-free region up to its root and one replay of each
// needed root's fanout cone (docs/ALGORITHMS.md §10).  Two kernel
// families implement the interface:
//
//   * a portable scalar family, compiled with the project's default
//     flags (the fixed W-word loops still auto-vectorize), and
//   * an AVX2 family, compiled in a separate -mavx2 translation unit and
//     selected at runtime only when the CPU reports AVX2 (the two
//     families use distinct tag types, so no COMDAT-merged symbol can
//     smuggle AVX2 code onto a pre-AVX2 machine).
//
// Engines share one read-only ConeCache (cone.hpp) and keep per-engine
// value arrays, so the partitioned simulator can run one engine per worker
// thread over a shared read-only netlist.  The scratch stamps are 64-bit:
// a 32-bit stamp wraps after 2^32 fault replays and silently aliases
// stale scratch values into a fresh epoch (the seed bug; see
// tests/faultsim_kernel_test.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "socet/faultsim/cone.hpp"
#include "socet/faultsim/faults.hpp"
#include "socet/faultsim/pattern.hpp"
#include "socet/util/bitvector.hpp"

namespace socet::faultsim {

struct EngineOptions {
  /// Re-evaluate only fanout cones of nets whose packed pattern word
  /// changed between blocks, instead of a full eval_comb sweep.
  bool event_driven = true;
  /// Replay each fanout-free region's root once per block, skipping
  /// gates none of whose fanins diverged from the good machine, and
  /// combine it with each fault's walk up to that root.  False keeps the
  /// seed kernel: every fault re-evaluates its whole site cone, then
  /// scans every observation point.  Both give identical statuses.
  bool replay_suppression = true;
  /// Starting value of the scratch epoch counter.  Test hook: placing the
  /// counter just below 2^32 proves the 64-bit stamps survive the
  /// boundary where a 32-bit counter wraps and corrupts lookups.
  std::uint64_t initial_stamp = 0;
};

/// Counters a run accumulates (merged into the obs metrics registry by
/// the ScanFaultSim facade).
struct EngineStats {
  std::uint64_t blocks = 0;
  std::uint64_t gates_evaluated = 0;  ///< good-machine gate evaluations
  std::uint64_t cone_replays = 0;     ///< region-root replays
  std::uint64_t region_walks = 0;     ///< per-fault walks up to a root
  std::uint64_t faults_dropped = 0;   ///< newly detected (and dropped)

  EngineStats& operator+=(const EngineStats& o) {
    blocks += o.blocks;
    gates_evaluated += o.gates_evaluated;
    cone_replays += o.cone_replays;
    region_walks += o.region_walks;
    faults_dropped += o.faults_dropped;
    return *this;
  }
};

class BlockEngineBase {
 public:
  virtual ~BlockEngineBase() = default;

  [[nodiscard]] virtual unsigned lane_words() const = 0;
  [[nodiscard]] virtual const char* kernel_name() const = 0;

  /// Simulate `patterns` against faults[first, last); marks newly
  /// detected faults in `statuses` (kUndetected -> kDetected).  Other
  /// indices and statuses are untouched, so disjoint [first, last)
  /// ranges can run concurrently on per-thread engines.  When
  /// `first_detect` is given (sized like `faults`), each newly detected
  /// fault's entry is set to the index of the first pattern detecting it.
  virtual void run(const std::vector<Fault>& faults, std::size_t first,
                   std::size_t last, const std::vector<ScanPattern>& patterns,
                   std::vector<FaultStatus>& statuses, EngineStats* stats,
                   std::vector<std::size_t>* first_detect) = 0;

  /// Good-machine responses for one pattern: values of POs then PPOs.
  virtual util::BitVector good_response(const ScanPattern& pattern) = 0;

  /// The response the circuit produces for `pattern` with `fault`
  /// injected (same PO+PPO layout as good_response).
  virtual util::BitVector faulty_response(const Fault& fault,
                                          const ScanPattern& pattern) = 0;
};

/// Portable kernels; `lane_words` must be 1, 4 or 8.
std::unique_ptr<BlockEngineBase> make_scalar_engine(
    unsigned lane_words, const ConeCache& cones, const EngineOptions& options);

/// AVX2 kernels, or nullptr when this build has no AVX2 translation unit
/// or the CPU lacks AVX2.  `lane_words` must be 4 or 8 (a one-word lane
/// has nothing to vectorize).
std::unique_ptr<BlockEngineBase> make_avx2_engine(
    unsigned lane_words, const ConeCache& cones, const EngineOptions& options);

/// Runtime CPU feature check used by make_avx2_engine (exposed so tests
/// and benches can report which kernel family actually ran).
bool cpu_has_avx2();

}  // namespace socet::faultsim
