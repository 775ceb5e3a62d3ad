#include "socet/faultsim/parallel_sim.hpp"

#include <algorithm>
#include <thread>

#include "socet/obs/journal.hpp"
#include "socet/obs/metrics.hpp"
#include "socet/obs/resource.hpp"
#include "socet/util/error.hpp"
#include "socet/util/pool.hpp"

namespace socet::faultsim {

ParallelScanFaultSim::ParallelScanFaultSim(const gate::GateNetlist& netlist,
                                           ParallelSimOptions options)
    : netlist_(netlist), options_(options), cones_(netlist) {
  util::require(options_.sim.lane_words == 0 || options_.sim.lane_words == 1 ||
                    options_.sim.lane_words == 4 ||
                    options_.sim.lane_words == 8,
                "ParallelScanFaultSim: lane_words must be 0 (auto), 1, 4 or 8");
  if (options_.threads == 0) {
    options_.threads = std::max(1u, std::thread::hardware_concurrency());
  }
}

BlockEngineBase& ParallelScanFaultSim::engine_for(unsigned worker,
                                                  unsigned lane_words) {
  if (engines_.size() <= worker) engines_.resize(worker + 1);
  const unsigned slot = lane_words == 1 ? 0 : lane_words == 4 ? 1 : 2;
  auto& engine = engines_[worker][slot];
  if (!engine) {
    EngineOptions eo;
    eo.event_driven = options_.sim.event_driven;
    eo.replay_suppression = options_.sim.replay_suppression;
    eo.initial_stamp = options_.sim.initial_stamp;
    if (lane_words >= 4 && options_.sim.use_avx2) {
      engine = make_avx2_engine(lane_words, cones_, eo);
    }
    if (!engine) engine = make_scalar_engine(lane_words, cones_, eo);
  }
  return *engine;
}

void ParallelScanFaultSim::run(const std::vector<Fault>& faults,
                               const std::vector<ScanPattern>& patterns,
                               std::vector<FaultStatus>& statuses) {
  util::require(statuses.size() == faults.size(),
                "ParallelScanFaultSim::run: status vector size mismatch");
  SOCET_RESOURCE_SCOPE("faultsim/parallel_run");

  const unsigned width =
      options_.sim.lane_words != 0
          ? options_.sim.lane_words
          : ScanFaultSim::auto_lane_words(patterns.size());

  // Contiguous chunks keep each worker's cache walk over the fault list
  // linear; capping by min_faults_per_thread keeps small runs inline.
  const std::size_t per_thread = std::max<std::size_t>(
      1, options_.min_faults_per_thread);
  const unsigned workers = static_cast<unsigned>(std::min<std::size_t>(
      options_.threads,
      std::max<std::size_t>(1, faults.size() / per_thread)));
  last_threads_ = workers;

  // Touch every engine before the fan-out so engines_ never reallocates
  // while workers hold references into it.
  for (unsigned t = 0; t < workers; ++t) (void)engine_for(t, width);

  last_lane_words_ = engine_for(0, width).lane_words();
  last_kernel_ = engine_for(0, width).kernel_name();

  SOCET_EVENT("faultsim/partition", {"threads", workers},
              {"lane_words", last_lane_words_}, {"kernel", last_kernel_},
              {"faults", static_cast<unsigned long long>(faults.size())},
              {"patterns", static_cast<unsigned long long>(patterns.size())});

  const std::size_t base = faults.size() / workers;
  const std::size_t extra = faults.size() % workers;
  std::vector<EngineStats> stats(workers);
  util::run_on_workers(workers, [&](unsigned t) {
    // Chunk t covers [first, last): the first `extra` chunks get one
    // extra fault so sizes differ by at most one.
    const std::size_t first = t * base + std::min<std::size_t>(t, extra);
    const std::size_t last = first + base + (t < extra ? 1 : 0);
    engine_for(t, width).run(faults, first, last, patterns, statuses,
                             &stats[t], nullptr);
  });

  EngineStats total;
  for (const EngineStats& s : stats) total += s;
  SOCET_COUNT_N("faultsim/pattern_blocks", total.blocks);
  SOCET_COUNT_N("faultsim/good_gate_evals", total.gates_evaluated);
  SOCET_COUNT_N("faultsim/cone_replays", total.cone_replays);
  SOCET_COUNT_N("faultsim/region_walks", total.region_walks);
  SOCET_COUNT_N("faultsim/faults_dropped", total.faults_dropped);
}

util::BitVector ParallelScanFaultSim::good_response(
    const ScanPattern& pattern) {
  return engine_for(0, 1).good_response(pattern);
}

util::BitVector ParallelScanFaultSim::faulty_response(
    const Fault& fault, const ScanPattern& pattern) {
  return engine_for(0, 1).faulty_response(fault, pattern);
}

}  // namespace socet::faultsim
