// Tests for the multi-lane fault-simulation kernels (block_engine.hpp),
// the partitioned simulator (parallel_sim.hpp), the 64-bit scratch
// stamps, and the sequential simulator's pin-fault handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "socet/faultsim/block_engine.hpp"
#include "socet/faultsim/cone.hpp"
#include "socet/faultsim/faults.hpp"
#include "socet/faultsim/parallel_sim.hpp"
#include "socet/faultsim/scan_sim.hpp"
#include "socet/faultsim/seq_sim.hpp"
#include "socet/util/error.hpp"
#include "socet/util/rng.hpp"

namespace socet::faultsim {
namespace {

using gate::Gate;
using gate::GateId;
using gate::GateKind;
using gate::GateNetlist;
using util::BitVector;
using util::Rng;

// ------------------------------------------------------------ generators

/// Random layered DAG with `n_gates` logic gates over `n_inputs` PIs and
/// `n_dffs` flops (each flop's D wired to a random node at the end).
GateNetlist make_random_netlist(Rng& rng, std::size_t n_inputs,
                                std::size_t n_dffs, std::size_t n_gates) {
  GateNetlist n("rand");
  std::vector<GateId> nodes;
  for (std::size_t i = 0; i < n_inputs; ++i) {
    nodes.push_back(n.add_input("i" + std::to_string(i)));
  }
  std::vector<GateId> dffs;
  for (std::size_t i = 0; i < n_dffs; ++i) {
    dffs.push_back(n.add_dff_floating("q" + std::to_string(i)));
    nodes.push_back(dffs.back());
  }
  static const GateKind kKinds[] = {GateKind::kAnd,  GateKind::kOr,
                                    GateKind::kNand, GateKind::kNor,
                                    GateKind::kXor,  GateKind::kXnor,
                                    GateKind::kNot,  GateKind::kBuf};
  for (std::size_t i = 0; i < n_gates; ++i) {
    const GateKind kind = kKinds[rng.next_below(8)];
    const bool unary = kind == GateKind::kNot || kind == GateKind::kBuf;
    std::vector<GateId> fanin{nodes[rng.next_below(nodes.size())]};
    if (!unary) {
      fanin.push_back(nodes[rng.next_below(nodes.size())]);
      if (fanin[0] == fanin[1]) fanin[1] = nodes[0];
    }
    nodes.push_back(n.add_gate(kind, fanin, "g" + std::to_string(i)));
  }
  for (std::size_t i = 0; i < n_dffs; ++i) {
    // Wire D to one of the last few gates so state depends on logic.
    n.set_dff_input(dffs[i], nodes[nodes.size() - 1 - rng.next_below(4)]);
  }
  // Observe a handful of nodes spread over the circuit.
  for (std::size_t i = 0; i < 4; ++i) {
    const GateId g = nodes[nodes.size() - 1 - rng.next_below(n_gates / 2)];
    if (n.gate(g).kind != GateKind::kDff) n.mark_output(g);
  }
  n.mark_output(nodes.back());
  return n;
}

std::vector<ScanPattern> make_random_patterns(const GateNetlist& n,
                                              std::size_t count, Rng& rng) {
  std::vector<ScanPattern> patterns(count);
  for (auto& p : patterns) {
    p.pi = BitVector::random(n.inputs().size(), rng);
    p.ppi = BitVector::random(n.dffs().size(), rng);
  }
  return patterns;
}

// ------------------------------------------------------- reference oracle

/// One-pattern scalar evaluation with optional fault injection — the
/// slow, obviously-correct oracle the lane kernels are diffed against.
std::vector<bool> reference_values(const GateNetlist& n,
                                   const ScanPattern& pattern,
                                   const Fault* fault) {
  std::vector<bool> values(n.gate_count(), false);
  auto faulty = [&](GateId id, bool v) -> bool {
    if (fault != nullptr && id == fault->gate && fault->pin < 0) {
      return fault->stuck_at;
    }
    return v;
  };
  for (std::size_t i = 0; i < n.inputs().size(); ++i) {
    values[n.inputs()[i].index()] =
        faulty(n.inputs()[i], pattern.pi.get(i));
  }
  for (std::size_t i = 0; i < n.dffs().size(); ++i) {
    values[n.dffs()[i].index()] = faulty(n.dffs()[i], pattern.ppi.get(i));
  }
  for (GateId id : n.topo_order()) {
    const Gate& g = n.gate(id);
    if (g.kind == GateKind::kInput || g.kind == GateKind::kDff) continue;
    auto in = [&](std::size_t p) -> bool {
      if (fault != nullptr && id == fault->gate &&
          static_cast<std::int32_t>(p) == fault->pin) {
        return fault->stuck_at;
      }
      return values[g.fanin[p].index()];
    };
    bool v = false;
    switch (g.kind) {
      case GateKind::kConst0: v = false; break;
      case GateKind::kConst1: v = true; break;
      case GateKind::kBuf: v = in(0); break;
      case GateKind::kNot: v = !in(0); break;
      case GateKind::kAnd:
      case GateKind::kNand:
        v = true;
        for (std::size_t p = 0; p < g.fanin.size(); ++p) v = v && in(p);
        if (g.kind == GateKind::kNand) v = !v;
        break;
      case GateKind::kOr:
      case GateKind::kNor:
        v = false;
        for (std::size_t p = 0; p < g.fanin.size(); ++p) v = v || in(p);
        if (g.kind == GateKind::kNor) v = !v;
        break;
      case GateKind::kXor: v = in(0) != in(1); break;
      case GateKind::kXnor: v = in(0) == in(1); break;
      default: break;
    }
    values[id.index()] = faulty(id, v);
  }
  return values;
}

std::vector<FaultStatus> reference_statuses(
    const GateNetlist& n, const std::vector<Fault>& faults,
    const std::vector<ScanPattern>& patterns) {
  std::vector<GateId> observe = n.outputs();
  for (GateId dff : n.dffs()) observe.push_back(n.gate(dff).fanin[0]);
  std::vector<FaultStatus> statuses(faults.size(), FaultStatus::kUndetected);
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    for (const ScanPattern& p : patterns) {
      const auto good = reference_values(n, p, nullptr);
      const auto bad = reference_values(n, p, &faults[fi]);
      for (GateId obs : observe) {
        if (good[obs.index()] != bad[obs.index()]) {
          statuses[fi] = FaultStatus::kDetected;
          break;
        }
      }
      if (statuses[fi] == FaultStatus::kDetected) break;
    }
  }
  return statuses;
}

// ------------------------------------------------------------------ tests

TEST(KernelOracle, AllWidthsAndModesMatchNaiveReference) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    Rng rng(seed);
    const auto n = make_random_netlist(rng, 6, 3, 60);
    const auto faults = enumerate_faults(n);
    const auto patterns = make_random_patterns(n, 150, rng);
    const auto expected = reference_statuses(n, faults, patterns);

    for (unsigned lane_words : {1u, 4u, 8u}) {
      for (bool event_driven : {false, true}) {
        for (bool use_avx2 : {false, true}) {
          ScanSimOptions o;
          o.lane_words = lane_words;
          o.event_driven = event_driven;
          o.use_avx2 = use_avx2;
          ScanFaultSim sim(n, o);
          std::vector<FaultStatus> statuses(faults.size(),
                                            FaultStatus::kUndetected);
          sim.run(faults, patterns, statuses);
          EXPECT_EQ(statuses, expected)
              << "seed=" << seed << " W=" << lane_words
              << " event=" << event_driven << " kernel=" << sim.last_kernel();
          EXPECT_EQ(sim.last_lane_words(), lane_words);
          if (!use_avx2 || lane_words == 1 || !cpu_has_avx2()) {
            EXPECT_STREQ(sim.last_kernel(), "scalar");
          } else {
            EXPECT_STREQ(sim.last_kernel(), "avx2");
          }
        }
      }
    }
  }
}

TEST(KernelOracle, ThreadCountsProduceIdenticalStatuses) {
  Rng rng(7);
  const auto n = make_random_netlist(rng, 8, 4, 120);
  const auto faults = enumerate_faults(n);
  const auto patterns = make_random_patterns(n, 300, rng);

  ScanFaultSim serial(n);
  std::vector<FaultStatus> expected(faults.size(), FaultStatus::kUndetected);
  serial.run(faults, patterns, expected);

  for (unsigned threads : {1u, 2u, 8u}) {
    ParallelSimOptions o;
    o.threads = threads;
    o.min_faults_per_thread = 1;  // force a real partition even when small
    ParallelScanFaultSim sim(n, o);
    std::vector<FaultStatus> statuses(faults.size(),
                                      FaultStatus::kUndetected);
    sim.run(faults, patterns, statuses);
    EXPECT_EQ(statuses, expected) << "threads=" << threads;
    EXPECT_EQ(sim.last_threads(), threads);
  }
}

TEST(KernelOracle, ResponsesIdenticalAcrossEnginesAndThreads) {
  Rng rng(11);
  const auto n = make_random_netlist(rng, 6, 2, 50);
  const auto faults = enumerate_faults(n);
  const auto patterns = make_random_patterns(n, 20, rng);

  ScanFaultSim serial(n);
  ParallelSimOptions o;
  o.threads = 2;
  o.min_faults_per_thread = 1;
  ParallelScanFaultSim parallel(n, o);

  for (const ScanPattern& p : patterns) {
    const BitVector good = serial.good_response(p);
    EXPECT_EQ(parallel.good_response(p).to_string(), good.to_string());
    for (std::size_t fi = 0; fi < faults.size(); fi += 7) {
      const BitVector bad = serial.faulty_response(faults[fi], p);
      EXPECT_EQ(parallel.faulty_response(faults[fi], p).to_string(),
                bad.to_string());
    }
  }
}

TEST(KernelOracle, SharedConeCacheServesAllWorkers) {
  Rng rng(13);
  const auto n = make_random_netlist(rng, 6, 2, 60);
  const auto faults = enumerate_faults(n);
  const auto patterns = make_random_patterns(n, 128, rng);

  // Many concurrent workers over one cache; TSan (CI) watches the races.
  ParallelSimOptions o;
  o.threads = 8;
  o.min_faults_per_thread = 1;
  ParallelScanFaultSim sim(n, o);
  std::vector<FaultStatus> statuses(faults.size(), FaultStatus::kUndetected);
  sim.run(faults, patterns, statuses);
  EXPECT_EQ(statuses, reference_statuses(n, faults, patterns));
}

/// Fanout cone by BFS and a sort on topological position: the ordering
/// ConeCache used before it walked a position bitmap instead.
std::vector<GateId> sorted_bfs_cone(const GateNetlist& n, GateId id) {
  std::vector<std::uint32_t> pos(n.gate_count());
  for (std::size_t i = 0; i < n.topo_order().size(); ++i) {
    pos[n.topo_order()[i].index()] = static_cast<std::uint32_t>(i);
  }
  std::vector<char> seen(n.gate_count(), 0);
  std::vector<GateId> cone{id};
  seen[id.index()] = 1;
  for (std::size_t head = 0; head < cone.size(); ++head) {
    if (n.gate(cone[head]).kind == GateKind::kDff && head != 0) continue;
    for (GateId next : n.fanouts()[cone[head].index()]) {
      if (seen[next.index()] || n.gate(next).kind == GateKind::kDff) continue;
      seen[next.index()] = 1;
      cone.push_back(next);
    }
  }
  std::sort(cone.begin(), cone.end(), [&](GateId a, GateId b) {
    return pos[a.index()] < pos[b.index()];
  });
  return cone;
}

TEST(KernelOracle, ConeCacheMatchesSortedBfsElementForElement) {
  Rng rng(29);
  for (const std::size_t gates : {20u, 150u, 400u}) {
    const auto n = make_random_netlist(rng, 7, 5, gates);
    ConeCache cache(n);
    for (std::size_t g = 0; g < n.gate_count(); ++g) {
      const GateId id(static_cast<GateId::value_type>(g));
      EXPECT_EQ(cache.of(id), sorted_bfs_cone(n, id))
          << gates << " gates, cone of gate " << g;
    }
  }
}

// The seed simulator kept its scratch-epoch counter in a uint32_t.  Once
// the counter wraps to 0 it collides with the never-touched entries of
// the stamp array (all zero-initialized), so lookups return stale
// scratch values instead of good-machine values.  The engines now use
// 64-bit stamps; `initial_stamp` places the counter just below the old
// wrap point to prove the boundary is survived.
TEST(StampWrap, SurvivesThirtyTwoBitBoundary) {
  GateNetlist n("wrap");
  auto a = n.add_input("a");
  auto b = n.add_input("b");
  auto z = n.add_gate(GateKind::kOr, {a, b}, "z");
  n.mark_output(z);

  // a s-a-0 under a=1,b=1 is masked (z stays 1): must stay undetected.
  // A wrapped stamp makes lookup(b) return scratch(0), so the faulty z
  // would read 0 != good 1 — a spurious detection.
  const std::vector<Fault> faults{Fault{a, -1, false}};
  std::vector<ScanPattern> patterns(1);
  patterns[0].pi = BitVector(2);
  patterns[0].pi.set(0, true);
  patterns[0].pi.set(1, true);
  patterns[0].ppi = BitVector(0);

  for (unsigned lane_words : {1u, 4u, 8u}) {
    ScanSimOptions o;
    o.lane_words = lane_words;
    o.initial_stamp = 0xFFFF'FFFFULL;  // next ++ crosses 2^32
    ScanFaultSim sim(n, o);
    std::vector<FaultStatus> statuses{FaultStatus::kUndetected};
    sim.run(faults, patterns, statuses);
    EXPECT_EQ(statuses[0], FaultStatus::kUndetected) << "W=" << lane_words;
  }
}

TEST(StampWrap, ManyReplaysAcrossBoundaryStayCorrect) {
  Rng rng(17);
  const auto n = make_random_netlist(rng, 6, 0, 40);
  const auto faults = enumerate_faults(n);
  const auto patterns = make_random_patterns(n, 100, rng);
  const auto expected = reference_statuses(n, faults, patterns);

  ScanSimOptions o;
  // Every fault replay increments the epoch; starting a few below the
  // boundary guarantees the run crosses it mid-flight.
  o.initial_stamp = 0xFFFF'FFFFULL - 5;
  ScanFaultSim sim(n, o);
  std::vector<FaultStatus> statuses(faults.size(), FaultStatus::kUndetected);
  sim.run(faults, patterns, statuses);
  EXPECT_EQ(statuses, expected);
}

// ------------------------------------------------- sequential pin faults

TEST(SeqSimPinFaults, DffDPinFaultUsesCaptureSemantics) {
  // a -> q (DFF) -> z.  With a held at 0, a D-pin s-a-1 loads the flop
  // with 1 from the second cycle on, which z exposes.  The seed silently
  // forced the faulty machine's Q to 0 every cycle (eval_gate_scalar
  // returned 0 for "default" gates), masking the fault.
  GateNetlist n("dffpin");
  auto a = n.add_input("a");
  auto q = n.add_dff(a, "q");
  auto z = n.add_gate(GateKind::kBuf, {q}, "z");
  n.mark_output(z);

  const std::vector<Fault> faults{Fault{q, 0, true}};
  std::vector<util::BitVector> sequence(3, BitVector(1));  // a = 0 always
  std::vector<FaultStatus> statuses{FaultStatus::kUndetected};
  SequentialFaultSim sim(n);
  sim.run(faults, sequence, statuses);
  EXPECT_EQ(statuses[0], FaultStatus::kDetected);
}

TEST(SeqSimPinFaults, PinFaultOnInputRaises) {
  GateNetlist n("inpin");
  auto a = n.add_input("a");
  auto z = n.add_gate(GateKind::kBuf, {a}, "z");
  n.mark_output(z);

  // Inputs have no input pins; a pin fault there is a malformed list
  // and must fail loudly instead of silently forcing the machine to 0.
  const std::vector<Fault> faults{Fault{a, 0, true}};
  std::vector<util::BitVector> sequence(2, BitVector(1));
  std::vector<FaultStatus> statuses{FaultStatus::kUndetected};
  SequentialFaultSim sim(n);
  EXPECT_THROW(sim.run(faults, sequence, statuses), util::Error);
}

TEST(SeqSimPinFaults, UncollapsedListAgreesWithScanSimOnCombinational) {
  Rng rng(19);
  const auto n = make_random_netlist(rng, 6, 0, 40);
  const auto faults = enumerate_faults(n, /*collapse=*/false);
  const auto patterns = make_random_patterns(n, 60, rng);
  const auto expected = reference_statuses(n, faults, patterns);

  ScanFaultSim sim(n);
  std::vector<FaultStatus> statuses(faults.size(), FaultStatus::kUndetected);
  sim.run(faults, patterns, statuses);
  EXPECT_EQ(statuses, expected);
}

}  // namespace
}  // namespace socet::faultsim
