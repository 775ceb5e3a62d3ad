// Fault-partitioned scan fault simulation.
//
// Stuck-at detection is a per-fault property: whether fault f is caught
// by pattern set P does not depend on any other fault.  So the fault
// list splits into contiguous index chunks, one per worker thread, and
// each worker runs its own BlockEngine (private good/scratch arrays)
// over the SAME pattern set against its chunk only.  All engines borrow
// one shared read-only netlist and one shared read-only ConeCache
// (cone.hpp), built before any worker starts.  Workers write
// disjoint ranges of the status vector, which makes the merged result
// byte-identical to a serial run — regardless of thread count, chunk
// boundaries or lane width.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "socet/faultsim/block_engine.hpp"
#include "socet/faultsim/cone.hpp"
#include "socet/faultsim/faults.hpp"
#include "socet/faultsim/pattern.hpp"
#include "socet/faultsim/scan_sim.hpp"
#include "socet/util/bitvector.hpp"

namespace socet::faultsim {

struct ParallelSimOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().  One
  /// thread (or one small fault list) runs inline on the caller.
  unsigned threads = 0;
  /// Below this many faults the partitioning overhead outweighs the
  /// work; such runs stay single-threaded.
  std::size_t min_faults_per_thread = 64;
  /// Per-engine kernel options (lane width, AVX2, event-driven, ...).
  ScanSimOptions sim;
};

class ParallelScanFaultSim {
 public:
  explicit ParallelScanFaultSim(const gate::GateNetlist& netlist,
                                ParallelSimOptions options = {});

  /// Same contract as ScanFaultSim::run, same resulting statuses — the
  /// partitioning is invisible in the output.
  void run(const std::vector<Fault>& faults,
           const std::vector<ScanPattern>& patterns,
           std::vector<FaultStatus>& statuses);

  /// Single-pattern responses (serial; delegates to one engine).
  util::BitVector good_response(const ScanPattern& pattern);
  util::BitVector faulty_response(const Fault& fault,
                                  const ScanPattern& pattern);

  /// Worker count the partitioner chose on the most recent run().
  [[nodiscard]] unsigned last_threads() const { return last_threads_; }
  [[nodiscard]] unsigned last_lane_words() const { return last_lane_words_; }
  [[nodiscard]] const char* last_kernel() const { return last_kernel_; }

 private:
  BlockEngineBase& engine_for(unsigned worker, unsigned lane_words);

  const gate::GateNetlist& netlist_;
  ParallelSimOptions options_;
  ConeCache cones_;
  /// engines_[worker][slot] with slots W=1, 4, 8; created on demand and
  /// reused across runs so good-machine state stays warm per worker.
  std::vector<std::array<std::unique_ptr<BlockEngineBase>, 3>> engines_;
  unsigned last_threads_ = 0;
  unsigned last_lane_words_ = 0;
  const char* last_kernel_ = "";
};

}  // namespace socet::faultsim
