// Property suites: randomized invariants across the stack.
//
//   * the gate-level elaboration of a core behaves cycle-for-cycle like
//     the RTL interpreter (the elaborator is cross-validated, not trusted);
//   * HSCAN always covers every register exactly once and its cost
//     bookkeeping adds up;
//   * version menus are monotone ladders and cover every port;
//   * PODEM's patterns really detect their target under the independent
//     fault simulator, and faults it proves untestable resist random
//     patterns;
//   * physically inserted scan chains actually shift.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "socet/atpg/atpg.hpp"
#include "socet/atpg/sequential.hpp"
#include "socet/bist/march.hpp"
#include "socet/core/serialize.hpp"
#include "socet/gate/sim.hpp"
#include "socet/rtl/text.hpp"
#include "socet/hscan/hscan.hpp"
#include "socet/rtl/interpreter.hpp"
#include "socet/synth/elaborate.hpp"
#include "socet/systems/synthetic.hpp"
#include "socet/transparency/versions.hpp"
#include "socet/util/rng.hpp"

namespace socet {
namespace {

using systems::SyntheticCoreOptions;
using systems::make_synthetic_core;

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

// ------------------------------------------------ gate vs RTL equivalence

TEST_P(SeededProperty, ElaborationMatchesInterpreter) {
  SyntheticCoreOptions options;
  options.registers = 5;
  options.with_cloud = false;  // interpreter cannot evaluate clouds
  auto netlist = make_synthetic_core("eq", GetParam(), options);

  auto elab = synth::elaborate(netlist);
  gate::SequentialSim gate_sim(elab.gates);
  gate_sim.reset();
  rtl::Interpreter rtl_sim(netlist);
  rtl_sim.reset();

  util::Rng rng(GetParam() ^ 0xE0);
  const auto in_ports = netlist.input_ports();
  for (int cycle = 0; cycle < 24; ++cycle) {
    // Common random stimulus.
    std::map<std::string, util::BitVector> stimulus;
    for (rtl::PortId port : in_ports) {
      stimulus[netlist.port(port).name] =
          util::BitVector::random(netlist.port(port).width, rng);
    }
    std::vector<std::uint64_t> words(elab.gates.inputs().size(), 0);
    std::size_t cursor = 0;
    for (const auto& [name, bits] : elab.input_bits) {
      const auto& value = stimulus.at(name);
      for (std::size_t b = 0; b < bits.size(); ++b) {
        // Locate this gate's position in the inputs() list.
        for (std::size_t i = 0; i < elab.gates.inputs().size(); ++i) {
          if (elab.gates.inputs()[i] == bits[b]) {
            words[i] = value.get(b) ? ~0ULL : 0;
            break;
          }
        }
      }
      ++cursor;
    }
    for (const auto& [name, value] : stimulus) {
      rtl_sim.set_input(name, value);
    }
    gate_sim.step(words);
    rtl_sim.step();

    for (rtl::PortId port : netlist.output_ports()) {
      const auto& name = netlist.port(port).name;
      const auto expected = rtl_sim.output(name);
      const auto& bits = elab.output_bits.at(name);
      for (std::size_t b = 0; b < bits.size(); ++b) {
        ASSERT_EQ((gate_sim.value(bits[b]) & 1) != 0, expected.get(b))
            << "seed " << GetParam() << " cycle " << cycle << " " << name
            << "[" << b << "]";
      }
    }
  }
}

// -------------------------------------------------------- HSCAN invariants

TEST_P(SeededProperty, HscanCoversRegistersExactlyOnce) {
  SyntheticCoreOptions options;
  options.registers = 8;
  auto netlist = make_synthetic_core("hs", GetParam(), options);
  auto config = hscan::build_hscan(netlist);

  std::set<unsigned> seen;
  unsigned link_cost_sum = 0;
  unsigned max_depth = 0;
  for (const auto& chain : config.chains) {
    EXPECT_FALSE(chain.registers.empty());
    EXPECT_EQ(chain.links.size(), chain.registers.size() + 1)
        << "head link + per-register links + tail link";
    for (auto reg : chain.registers) {
      EXPECT_TRUE(seen.insert(reg.value()).second)
          << "register on two chains (seed " << GetParam() << ")";
    }
    for (const auto& link : chain.links) link_cost_sum += link.cost_cells;
    max_depth = std::max(max_depth, chain.depth());
  }
  EXPECT_EQ(seen.size(), netlist.registers().size());
  EXPECT_EQ(config.overhead_cells, link_cost_sum);
  EXPECT_EQ(config.max_depth, max_depth);
  EXPECT_EQ(config.vector_multiplier(), max_depth + 1);
}

TEST_P(SeededProperty, HscanReusedEdgesAreRealPaths) {
  auto netlist = make_synthetic_core("hs2", GetParam(), {});
  auto config = hscan::build_hscan(netlist);
  const auto paths = rtl::enumerate_transfer_paths(netlist);
  for (const auto& [from, to] : config.reused_edges) {
    bool exists = false;
    for (const auto& path : paths) {
      exists |= path.src == from && path.dst == to;
    }
    EXPECT_TRUE(exists) << "reused edge is not an existing transfer path";
  }
}

// ------------------------------------------------------- version invariants

TEST_P(SeededProperty, VersionMenusAreMonotoneLadders) {
  SyntheticCoreOptions options;
  options.registers = 7;
  auto netlist = make_synthetic_core("vm", GetParam(), options);
  auto hs = hscan::build_hscan(netlist);
  transparency::Rcg rcg(netlist, &hs);
  auto versions = transparency::standard_versions(rcg);

  ASSERT_EQ(versions.size(), 3u);
  for (std::size_t v = 1; v < versions.size(); ++v) {
    EXPECT_GT(versions[v].extra_cells, versions[v - 1].extra_cells);
    for (const auto& edge : versions[v - 1].edges) {
      auto now = versions[v].latency(edge.input, edge.output);
      ASSERT_TRUE(now.has_value())
          << "pair lost on upgrade (seed " << GetParam() << ")";
      EXPECT_LE(*now, edge.latency);
    }
  }
  for (const auto& edge : versions.back().edges) {
    EXPECT_EQ(edge.latency, 1u) << "minimum-latency version above 1 cycle";
  }
}

TEST_P(SeededProperty, EveryPortTransparentInEveryVersion) {
  auto netlist = make_synthetic_core("tp", GetParam(), {});
  auto hs = hscan::build_hscan(netlist);
  transparency::Rcg rcg(netlist, &hs);
  auto versions = transparency::standard_versions(rcg);
  for (const auto& version : versions) {
    for (rtl::PortId in : netlist.input_ports()) {
      bool covered = false;
      for (const auto& edge : version.edges) covered |= edge.input == in;
      EXPECT_TRUE(covered) << netlist.port(in).name;
    }
    for (rtl::PortId out : netlist.output_ports()) {
      bool covered = false;
      for (const auto& edge : version.edges) covered |= edge.output == out;
      EXPECT_TRUE(covered) << netlist.port(out).name;
    }
  }
}

// ----------------------------------------------------- RCG edge soundness

TEST_P(SeededProperty, RcgEdgesComeFromTransferPathsOrScanMuxes) {
  auto netlist = make_synthetic_core("rcg", GetParam(), {});
  auto hs = hscan::build_hscan(netlist);
  transparency::Rcg rcg(netlist, &hs);
  const auto paths = rtl::enumerate_transfer_paths(netlist);
  for (const auto& edge : rcg.edges()) {
    const auto& src = rcg.node(edge.src).ref;
    const auto& dst = rcg.node(edge.dst).ref;
    bool from_path = false;
    for (const auto& path : paths) {
      from_path |= path.src == src && path.dst == dst;
    }
    bool from_scan_mux = false;
    for (const auto& [from, to] : hs.added_links) {
      from_scan_mux |= from == src && to == dst;
    }
    EXPECT_TRUE(from_path || from_scan_mux)
        << "phantom RCG edge (seed " << GetParam() << ")";
  }
}

// --------------------------------------------- PODEM vs fault simulation

/// Random combinational gate circuit.
gate::GateNetlist make_random_gates(std::uint64_t seed, unsigned inputs,
                                    unsigned gates) {
  util::Rng rng(seed);
  gate::GateNetlist n("rand");
  std::vector<gate::GateId> pool;
  for (unsigned i = 0; i < inputs; ++i) pool.push_back(n.add_input("i"));
  static constexpr gate::GateKind kinds[] = {
      gate::GateKind::kAnd, gate::GateKind::kOr, gate::GateKind::kNand,
      gate::GateKind::kNor, gate::GateKind::kXor, gate::GateKind::kNot};
  for (unsigned g = 0; g < gates; ++g) {
    const auto kind = kinds[rng.next_below(6)];
    const auto a = pool[rng.next_below(pool.size())];
    if (kind == gate::GateKind::kNot) {
      pool.push_back(n.add_gate(kind, {a}));
    } else {
      auto b = pool[rng.next_below(pool.size())];
      if (a == b) {
        pool.push_back(n.add_gate(gate::GateKind::kNot, {a}));
      } else {
        pool.push_back(n.add_gate(kind, {a, b}));
      }
    }
  }
  // Observe the last few gates.
  for (unsigned o = 0; o < 4 && o < pool.size(); ++o) {
    n.mark_output(pool[pool.size() - 1 - o]);
  }
  return n;
}

TEST_P(SeededProperty, PodemPatternsVerifiedByFaultSim) {
  auto n = make_random_gates(GetParam(), 8, 60);
  ASSERT_TRUE(n.dffs().empty());
  auto faults = faultsim::enumerate_faults(n);
  faultsim::ScanFaultSim sim(n);
  // 8 PIs and no PPIs: all 2^8 patterns decide testability exactly.
  std::vector<faultsim::ScanPattern> every_pattern;
  for (std::uint64_t bits = 0; bits < (1u << n.inputs().size()); ++bits) {
    faultsim::ScanPattern pattern;
    pattern.pi = util::BitVector(n.inputs().size(), bits);
    pattern.ppi = util::BitVector(0);
    every_pattern.push_back(std::move(pattern));
  }
  unsigned found = 0;
  unsigned untestable = 0;
  for (std::size_t fi = 0; fi < faults.size() && fi < 120; ++fi) {
    auto result = atpg::podem(n, faults[fi], {.backtrack_limit = 2000});
    if (result.outcome == atpg::PodemResult::Outcome::kFound) {
      ++found;
      std::vector<faultsim::FaultStatus> statuses(
          faults.size(), faultsim::FaultStatus::kUntestable);
      statuses[fi] = faultsim::FaultStatus::kUndetected;
      sim.run(faults, {result.pattern}, statuses);
      EXPECT_EQ(statuses[fi], faultsim::FaultStatus::kDetected)
          << describe_fault(n, faults[fi]) << " seed " << GetParam();
    } else if (result.outcome == atpg::PodemResult::Outcome::kUntestable) {
      ++untestable;
      // An untestable fault must resist every pattern.
      std::vector<faultsim::FaultStatus> statuses(
          faults.size(), faultsim::FaultStatus::kUntestable);
      statuses[fi] = faultsim::FaultStatus::kUndetected;
      sim.run(faults, every_pattern, statuses);
      EXPECT_NE(statuses[fi], faultsim::FaultStatus::kDetected)
          << "PODEM called a testable fault redundant: "
          << describe_fault(n, faults[fi]) << " seed " << GetParam();
    }
  }
  EXPECT_GT(found, 0u);
}

TEST_P(SeededProperty, ScanAndSequentialSimsAgreeOnCombinational) {
  auto n = make_random_gates(GetParam() ^ 0x51, 6, 40);
  auto faults = faultsim::enumerate_faults(n);
  std::vector<faultsim::FaultStatus> scan_status(
      faults.size(), faultsim::FaultStatus::kUndetected);
  std::vector<faultsim::FaultStatus> seq_status(
      faults.size(), faultsim::FaultStatus::kUndetected);

  util::Rng rng(GetParam() ^ 0x52);
  std::vector<faultsim::ScanPattern> patterns;
  std::vector<util::BitVector> sequence;
  for (int p = 0; p < 48; ++p) {
    auto bits = util::BitVector::random(n.inputs().size(), rng);
    faultsim::ScanPattern pattern;
    pattern.pi = bits;
    pattern.ppi = util::BitVector(0);
    patterns.push_back(std::move(pattern));
    sequence.push_back(std::move(bits));
  }
  faultsim::ScanFaultSim scan(n);
  scan.run(faults, patterns, scan_status);
  faultsim::SequentialFaultSim seq(n);
  seq.run(faults, sequence, seq_status);
  EXPECT_EQ(scan_status, seq_status) << "seed " << GetParam();
}

// --------------------------------------------------- physical scan chains

TEST_P(SeededProperty, InsertedScanChainsShift) {
  SyntheticCoreOptions options;
  options.registers = 5;
  auto netlist = make_synthetic_core("scan", GetParam(), options);
  auto config = hscan::build_hscan(netlist);

  synth::ScanOptions scan;
  for (const auto& chain : config.chains) {
    synth::ScanOptions::Chain spec;
    spec.registers = chain.registers;
    spec.scan_in = netlist.pin(chain.head);
    scan.chains.push_back(std::move(spec));
  }
  auto elab = synth::elaborate_with_scan(netlist, scan);

  // Drive ScanEnable = 1 and a known value on the first chain's head; the
  // value must reach the chain's k-th register after k cycles.
  gate::SequentialSim sim(elab.gates);
  sim.reset();
  const auto& chain = config.chains.front();
  const auto& head_name = netlist.port(chain.head).name;

  auto drive = [&](bool bit_value) {
    std::vector<std::uint64_t> words(elab.gates.inputs().size(), 0);
    for (std::size_t i = 0; i < elab.gates.inputs().size(); ++i) {
      const auto& name = elab.gates.gate(elab.gates.inputs()[i]).name;
      if (name == "ScanEnable") words[i] = ~0ULL;
      if (name.rfind(head_name + "[", 0) == 0) {
        words[i] = bit_value ? ~0ULL : 0;
      }
    }
    sim.step(words);
  };

  // Shift an all-ones frame through the chain.
  for (std::size_t k = 0; k < chain.registers.size(); ++k) drive(true);
  for (std::size_t k = 0; k < chain.registers.size(); ++k) {
    const auto& dffs = elab.register_bits[chain.registers[k].index()];
    EXPECT_NE(sim.value(dffs[0]) & 1, 0u)
        << "chain register " << k << " did not receive the shifted 1 (seed "
        << GetParam() << ")";
  }
}

// --------------------------------------------- unrolling vs sequential sim

/// Random *sequential* gate circuit (the combinational generator plus a
/// few feedback flip-flops).
gate::GateNetlist make_random_sequential(std::uint64_t seed, unsigned inputs,
                                         unsigned gates, unsigned dffs) {
  util::Rng rng(seed);
  gate::GateNetlist n("seq");
  std::vector<gate::GateId> pool;
  std::vector<gate::GateId> state;
  for (unsigned i = 0; i < inputs; ++i) pool.push_back(n.add_input("i"));
  for (unsigned d = 0; d < dffs; ++d) {
    state.push_back(n.add_dff_floating("s"));
    pool.push_back(state.back());
  }
  static constexpr gate::GateKind kinds[] = {
      gate::GateKind::kAnd, gate::GateKind::kOr, gate::GateKind::kNand,
      gate::GateKind::kNor, gate::GateKind::kXor, gate::GateKind::kNot};
  for (unsigned g = 0; g < gates; ++g) {
    const auto kind = kinds[rng.next_below(6)];
    const auto a = pool[rng.next_below(pool.size())];
    if (kind == gate::GateKind::kNot) {
      pool.push_back(n.add_gate(kind, {a}));
    } else {
      auto b = pool[rng.next_below(pool.size())];
      if (a == b) {
        pool.push_back(n.add_gate(gate::GateKind::kNot, {a}));
      } else {
        pool.push_back(n.add_gate(kind, {a, b}));
      }
    }
  }
  for (unsigned d = 0; d < dffs; ++d) {
    n.set_dff_input(state[d], pool[pool.size() - 1 - d]);
  }
  for (unsigned o = 0; o < 3; ++o) {
    n.mark_output(pool[pool.size() - 1 - rng.next_below(pool.size() / 2)]);
  }
  return n;
}

TEST_P(SeededProperty, UnrollMatchesSequentialSim) {
  auto n = make_random_sequential(GetParam() ^ 0x1111, 4, 30, 3);
  constexpr unsigned kFrames = 5;
  auto unrolled = atpg::unroll(n, kFrames);

  util::Rng rng(GetParam() ^ 0x2222);
  // Same stimulus both ways.
  std::vector<std::vector<bool>> stimulus(kFrames,
                                          std::vector<bool>(4, false));
  for (auto& frame : stimulus) {
    for (std::size_t i = 0; i < 4; ++i) frame[i] = rng.next_bool();
  }

  std::vector<std::uint64_t> values(unrolled.netlist.gate_count(), 0);
  for (unsigned f = 0; f < kFrames; ++f) {
    for (std::size_t i = 0; i < 4; ++i) {
      values[unrolled.pi_map[f][i].index()] = stimulus[f][i] ? ~0ULL : 0;
    }
  }
  gate::eval_comb(unrolled.netlist, values);

  gate::SequentialSim sim(n);
  sim.reset();
  // SequentialSim shows post-edge values; the unrolled frame f computes
  // the pre-capture view of cycle f, which equals the post-edge view of
  // cycle f-1 extended with frame f's inputs.  Compare at the original
  // gates' frame images directly: frame f of any *combinational* gate must
  // equal the value SequentialSim computes during cycle f (pre-capture).
  // We therefore re-implement the pre-capture readout via a fresh sim on
  // each prefix: cheaper here to just compare POs of frame f against a
  // manual state recurrence.
  std::vector<std::uint64_t> prefix_values(n.gate_count(), 0);
  std::vector<std::uint64_t> state(n.dffs().size(), 0);
  for (unsigned f = 0; f < kFrames; ++f) {
    for (std::size_t i = 0; i < n.inputs().size(); ++i) {
      prefix_values[n.inputs()[i].index()] = stimulus[f][i] ? ~0ULL : 0;
    }
    for (std::size_t d = 0; d < n.dffs().size(); ++d) {
      prefix_values[n.dffs()[d].index()] = state[d];
    }
    gate::eval_comb(n, prefix_values);
    for (std::size_t o = 0; o < n.outputs().size(); ++o) {
      const auto frame_po =
          unrolled.netlist.outputs()[f * n.outputs().size() + o];
      ASSERT_EQ(values[frame_po.index()] & 1,
                prefix_values[n.outputs()[o].index()] & 1)
          << "seed " << GetParam() << " frame " << f << " po " << o;
    }
    for (std::size_t d = 0; d < n.dffs().size(); ++d) {
      state[d] = prefix_values[n.gate(n.dffs()[d]).fanin[0].index()];
    }
  }
}

// ------------------------------------------------------------- BIST sweep

TEST_P(SeededProperty, MarchCMinusCatchesRandomFaults) {
  util::Rng rng(GetParam() ^ 0xB157);
  for (int trial = 0; trial < 6; ++trial) {
    bist::FaultyMemory mem(64, 8);
    bist::MemFault fault;
    const auto kind = rng.next_below(3);
    fault.kind = kind == 0   ? bist::MemFaultKind::kStuckAt
                 : kind == 1 ? bist::MemFaultKind::kTransition
                             : bist::MemFaultKind::kCouplingIdempotent;
    fault.address = static_cast<std::uint32_t>(rng.next_below(64));
    fault.bit = static_cast<unsigned>(rng.next_below(8));
    fault.value = rng.next_bool();
    if (fault.kind == bist::MemFaultKind::kCouplingIdempotent) {
      do {
        fault.aggressor_address =
            static_cast<std::uint32_t>(rng.next_below(64));
        fault.aggressor_bit = static_cast<unsigned>(rng.next_below(8));
      } while (fault.aggressor_address == fault.address &&
               fault.aggressor_bit == fault.bit);
      fault.aggressor_rising = rng.next_bool();
    }
    mem.inject(fault);
    EXPECT_FALSE(bist::run_march(mem, bist::march_c_minus()).pass)
        << "seed " << GetParam() << " trial " << trial;
  }
}

// --------------------------------------------------- serialization sweeps

TEST_P(SeededProperty, RtlTextRoundTripsOnSyntheticCores) {
  auto original = make_synthetic_core("rt", GetParam(), {});
  auto restored = rtl::parse_netlist(rtl::serialize_netlist(original));
  EXPECT_EQ(rtl::serialize_netlist(restored),
            rtl::serialize_netlist(original));
  restored.validate();
}

TEST_P(SeededProperty, CoreInterfaceRoundTripsOnSyntheticCores) {
  auto prepared = core::Core::prepare(make_synthetic_core("ci", GetParam(), {}));
  prepared.set_scan_vectors(static_cast<unsigned>(GetParam() % 97 + 1));
  const auto text = core::serialize_interface(prepared);
  auto restored = core::Core::from_interface(core::parse_interface(text));
  EXPECT_EQ(core::serialize_interface(restored), text);
  EXPECT_EQ(restored.hscan_vectors(), prepared.hscan_vectors());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace socet
