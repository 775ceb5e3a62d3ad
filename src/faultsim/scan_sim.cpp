#include "socet/faultsim/scan_sim.hpp"

#include "socet/obs/journal.hpp"
#include "socet/obs/metrics.hpp"
#include "socet/obs/resource.hpp"
#include "socet/util/error.hpp"

namespace socet::faultsim {

ScanFaultSim::ScanFaultSim(const gate::GateNetlist& netlist,
                           ScanSimOptions options)
    : netlist_(netlist), options_(options), cones_(netlist) {
  util::require(options_.lane_words == 0 || options_.lane_words == 1 ||
                    options_.lane_words == 4 || options_.lane_words == 8,
                "ScanFaultSim: lane_words must be 0 (auto), 1, 4 or 8");
}

unsigned ScanFaultSim::auto_lane_words(std::size_t pattern_count) {
  // A run that fits one seed-width block gains nothing from wider lanes
  // (the extra words would simulate only padding); scale up with the
  // pattern count so big regrades amortize cone replays across 512
  // patterns per pass.
  if (pattern_count <= 64) return 1;
  if (pattern_count <= 256) return 4;
  return 8;
}

BlockEngineBase& ScanFaultSim::engine_for(unsigned lane_words) {
  const unsigned slot = lane_words == 1 ? 0 : lane_words == 4 ? 1 : 2;
  auto& engine = engines_[slot];
  if (!engine) {
    EngineOptions eo;
    eo.event_driven = options_.event_driven;
    eo.replay_suppression = options_.replay_suppression;
    eo.initial_stamp = options_.initial_stamp;
    if (lane_words >= 4 && options_.use_avx2) {
      engine = make_avx2_engine(lane_words, cones_, eo);
    }
    if (!engine) engine = make_scalar_engine(lane_words, cones_, eo);
  }
  return *engine;
}

void ScanFaultSim::run(const std::vector<Fault>& faults,
                       const std::vector<ScanPattern>& patterns,
                       std::vector<FaultStatus>& statuses,
                       std::vector<std::size_t>* first_detect) {
  util::require(statuses.size() == faults.size(),
                "ScanFaultSim::run: status vector size mismatch");
  if (first_detect != nullptr) first_detect->resize(faults.size());
  SOCET_RESOURCE_SCOPE("faultsim/scan_run");

  const unsigned width = options_.lane_words != 0
                             ? options_.lane_words
                             : auto_lane_words(patterns.size());
  BlockEngineBase& engine = engine_for(width);
  last_lane_words_ = engine.lane_words();
  last_kernel_ = engine.kernel_name();
  SOCET_EVENT("faultsim/kernel", {"lane_words", engine.lane_words()},
              {"kernel", engine.kernel_name()},
              {"patterns", static_cast<unsigned long long>(patterns.size())},
              {"faults", static_cast<unsigned long long>(faults.size())});

  EngineStats stats;
  engine.run(faults, 0, faults.size(), patterns, statuses, &stats,
             first_detect);

  SOCET_COUNT_N("faultsim/pattern_blocks", stats.blocks);
  SOCET_COUNT_N("faultsim/good_gate_evals", stats.gates_evaluated);
  SOCET_COUNT_N("faultsim/cone_replays", stats.cone_replays);
  SOCET_COUNT_N("faultsim/region_walks", stats.region_walks);
  SOCET_COUNT_N("faultsim/faults_dropped", stats.faults_dropped);
}

util::BitVector ScanFaultSim::good_response(const ScanPattern& pattern) {
  return engine_for(1).good_response(pattern);
}

util::BitVector ScanFaultSim::faulty_response(const Fault& fault,
                                              const ScanPattern& pattern) {
  return engine_for(1).faulty_response(fault, pattern);
}

}  // namespace socet::faultsim
