// Shared plumbing for the benchmark harness.
//
// Every bench binary regenerates one of the paper's tables or figures;
// this header provides the measured ingredients: per-core ATPG runs (test
// sets + fault coverage), chip-area elaboration, whole-chip sequential
// fault simulation (flat, with or without physical scan chains), and
// coverage aggregation.
#pragma once

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "report.hpp"
#include "socet/atpg/atpg.hpp"
#include "socet/baselines/baselines.hpp"
#include "socet/opt/optimize.hpp"
#include "socet/soc/flatten.hpp"
#include "socet/synth/elaborate.hpp"
#include "socet/systems/systems.hpp"
#include "socet/util/table.hpp"

namespace socet::bench {

struct CoreMeasurement {
  std::string name;
  double area_cells = 0;
  faultsim::CoverageSummary coverage;
  unsigned scan_vectors = 0;
};

struct SystemMeasurement {
  std::vector<CoreMeasurement> cores;
  double chip_area_cells = 0;

  /// Fault-population-weighted chip fault coverage / test efficiency.
  [[nodiscard]] faultsim::CoverageSummary aggregate() const {
    faultsim::CoverageSummary sum;
    for (const auto& core : cores) {
      sum.total += core.coverage.total;
      sum.detected += core.coverage.detected;
      sum.untestable += core.coverage.untestable;
      sum.aborted += core.coverage.aborted;
    }
    return sum;
  }
};

/// Run ATPG on every core of `system`: sets each core's scan-vector count
/// to the measured test-set size and returns areas + coverage.
inline SystemMeasurement measure_cores(systems::System& system,
                                       std::uint64_t seed = 7) {
  SystemMeasurement m;
  for (auto& core : system.cores) {
    auto elab = synth::elaborate(core->netlist());
    auto result =
        atpg::generate_tests(elab.gates, {.random_patterns = 64, .seed = seed});
    CoreMeasurement cm;
    cm.name = core->name();
    cm.area_cells = elab.gates.area();
    cm.coverage = result.coverage();
    cm.scan_vectors = static_cast<unsigned>(result.vector_count());
    core->set_scan_vectors(cm.scan_vectors);
    m.chip_area_cells += cm.area_cells;
    m.cores.push_back(std::move(cm));
  }
  return m;
}

/// Chip area only (no ATPG) — for the fast benches.
inline double chip_area(const systems::System& system) {
  double area = 0;
  for (const auto& core : system.cores) {
    area += synth::elaborate(core->netlist()).gates.area();
  }
  return area;
}

/// Scan-chain specs for the flattened chip: each core's HSCAN chains with
/// their scan-in pins bound to whatever drives the chain-head port at chip
/// level.
inline synth::ScanOptions flat_scan_options(const soc::Soc& soc,
                                            const soc::FlattenResult& flat) {
  synth::ScanOptions scan;
  for (std::uint32_t c = 0; c < soc.cores().size(); ++c) {
    const core::Core& core = soc.core(c);
    for (const auto& chain : core.hscan().chains) {
      synth::ScanOptions::Chain spec;
      for (rtl::RegisterId reg : chain.registers) {
        spec.registers.push_back(flat.chip.find_register(
            core.name() + "." + core.netlist().reg(reg).name));
      }
      const auto& head_name = core.netlist().port(chain.head).name;
      spec.scan_in = flat.chip.fu_out(
          flat.instances[c].port_proxies.at(head_name));
      scan.chains.push_back(std::move(spec));
    }
  }
  return scan;
}

/// Whole-chip functional test mode for chip_sequential_coverage.
enum class ChipMode {
  /// No DFT at all (Table 3 "Orig." row).
  kNoDft,
  /// Cores carry their HSCAN chains but no chip-level DFT exists — in
  /// particular no test controller, so ScanEnable is stuck inactive
  /// (Table 3 "HSCAN" row).
  kHscanUnreachable,
  /// Ablation: one bonded test pin toggles ScanEnable.  On a pipeline SOC
  /// whose end cores touch chip pins, the HSCAN chains then stitch into a
  /// chip-spanning shift path — a preview of what chip-level DFT buys.
  kHscanWithTestPin,
};

/// The flattened chip of `system` in `mode` and the random sequence the
/// whole-chip sequential fault simulation applies to it.
struct ChipSequentialInput {
  synth::Elaboration elab;
  std::vector<util::BitVector> sequence;
};

inline ChipSequentialInput chip_sequential_input(
    const systems::System& system, ChipMode mode, std::size_t cycles = 96,
    std::uint64_t seed = 11) {
  auto flat = soc::flatten(*system.soc);
  ChipSequentialInput input;
  if (mode == ChipMode::kNoDft) {
    input.elab = synth::elaborate(flat.chip);
  } else {
    input.elab = synth::elaborate_with_scan(
        flat.chip, flat_scan_options(*system.soc, flat));
  }

  input.sequence = atpg::random_sequence(input.elab.gates, cycles, seed);
  if (mode == ChipMode::kHscanUnreachable) {
    const auto& inputs = input.elab.gates.inputs();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (input.elab.gates.gate(inputs[i]).name == "ScanEnable") {
        for (auto& vector : input.sequence) vector.set(i, false);
      }
    }
  }
  return input;
}

/// Whole-chip random sequential fault simulation (Table 3's "Orig." and
/// "HSCAN" rows, plus the scan-enable ablation).
inline faultsim::CoverageSummary chip_sequential_coverage(
    const systems::System& system, ChipMode mode, std::size_t cycles = 96,
    std::uint64_t seed = 11) {
  const auto input = chip_sequential_input(system, mode, cycles, seed);
  auto faults = faultsim::enumerate_faults(input.elab.gates);
  std::vector<faultsim::FaultStatus> statuses(faults.size(),
                                              faultsim::FaultStatus::kUndetected);
  faultsim::SequentialFaultSim sim(input.elab.gates);
  sim.run(faults, input.sequence, statuses);
  return faultsim::summarize(statuses);
}

inline std::string fmt_pct(double value) { return util::Table::num(value, 1); }

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("=== %s ===\n(reproduces %s)\n\n", title, paper_ref);
}

}  // namespace socet::bench
