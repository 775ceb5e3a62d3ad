// Tests for the multi-lane fault-simulation kernels (block_engine.hpp),
// the partitioned simulator (parallel_sim.hpp), the 64-bit scratch
// stamps, and the sequential simulator: its pin-fault handling, list
// validation, and a differential check against the engine it replaced
// (seq_sim_reference.hpp) on random circuits and the flattened chips.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "socet/atpg/atpg.hpp"
#include "socet/faultsim/block_engine.hpp"
#include "socet/faultsim/cone.hpp"
#include "socet/faultsim/faults.hpp"
#include "socet/faultsim/parallel_sim.hpp"
#include "socet/faultsim/scan_sim.hpp"
#include "socet/faultsim/seq_sim.hpp"
#include "socet/obs/metrics.hpp"
#include "socet/synth/elaborate.hpp"
#include "socet/systems/systems.hpp"
#include "socet/util/error.hpp"
#include "socet/util/rng.hpp"
#include "common.hpp"
#include "seq_sim_reference.hpp"

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

/// Index of the first pattern that detects each fault, or
/// patterns.size() for a fault no pattern detects.
std::vector<std::size_t> reference_first_detect(
    const GateNetlist& n, const std::vector<Fault>& faults,
    const std::vector<ScanPattern>& patterns) {
  std::vector<GateId> observe = n.outputs();
  for (GateId dff : n.dffs()) observe.push_back(n.gate(dff).fanin[0]);
  std::vector<std::size_t> first(faults.size(), patterns.size());
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    for (std::size_t p = 0; p < patterns.size() && first[fi] == patterns.size();
         ++p) {
      const auto good = reference_values(n, patterns[p], nullptr);
      const auto bad = reference_values(n, patterns[p], &faults[fi]);
      for (GateId obs : observe) {
        if (good[obs.index()] != bad[obs.index()]) {
          first[fi] = p;
          break;
        }
      }
    }
  }
  return first;
}

std::vector<FaultStatus> reference_statuses(
    const GateNetlist& n, const std::vector<Fault>& faults,
    const std::vector<ScanPattern>& patterns) {
  std::vector<FaultStatus> statuses;
  for (std::size_t first : reference_first_detect(n, faults, patterns)) {
    statuses.push_back(first < patterns.size() ? FaultStatus::kDetected
                                               : FaultStatus::kUndetected);
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

/// Fanout cone by BFS and a sort on topological position: how ConeCache
/// built cones before it composed them from fanout-free regions.
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
      std::vector<GateId> cone{id};
      cache.for_each_in_cone(id, [&cone](GateId next) {
        cone.push_back(next);
        return true;
      });
      EXPECT_EQ(cone, sorted_bfs_cone(n, id))
          << gates << " gates, cone of gate " << g;
    }
  }
}

// ------------------------------------------------- fanout-free regions

/// Random logic built to have long single-fanout chains, plus one of each
/// shape the region walk must get right: an XOR/XNOR chain, gates that
/// read one net on both pins, observed gates that also fan out, a chain
/// that ends in a DFF's D pin, and dangling gates.
GateNetlist make_chain_netlist(Rng& rng, std::size_t n_inputs,
                               std::size_t n_dffs, std::size_t n_gates) {
  GateNetlist n("chains");
  std::vector<GateId> nodes;
  std::vector<GateId> unread;  // nodes nothing reads yet: chain tails
  for (std::size_t i = 0; i < n_inputs; ++i) {
    nodes.push_back(n.add_input("i" + std::to_string(i)));
  }
  std::vector<GateId> dffs;
  for (std::size_t i = 0; i < n_dffs; ++i) {
    dffs.push_back(n.add_dff_floating("q" + std::to_string(i)));
    nodes.push_back(dffs.back());
  }
  unread = nodes;
  std::size_t serial = 0;
  const auto add = [&](GateKind kind, std::vector<GateId> fanin) {
    for (GateId f : fanin) {
      unread.erase(std::remove(unread.begin(), unread.end(), f), unread.end());
    }
    const GateId g = n.add_gate(kind, std::move(fanin),
                                "g" + std::to_string(serial++));
    nodes.push_back(g);
    unread.push_back(g);
    return g;
  };
  // Mostly extend a chain (read a node nothing reads yet), sometimes
  // branch off any node.
  const auto pick = [&]() {
    if (!unread.empty() && rng.next_below(4) != 0) {
      return unread[rng.next_below(unread.size())];
    }
    return nodes[rng.next_below(nodes.size())];
  };
  static const GateKind kKinds[] = {GateKind::kAnd,  GateKind::kOr,
                                    GateKind::kNand, GateKind::kNor,
                                    GateKind::kXor,  GateKind::kXnor,
                                    GateKind::kNot,  GateKind::kBuf};
  for (std::size_t i = 0; i < n_gates; ++i) {
    const GateKind kind = kKinds[rng.next_below(8)];
    const GateId a = pick();
    if (kind == GateKind::kNot || kind == GateKind::kBuf) {
      add(kind, {a});
    } else {
      add(kind, {a, rng.next_below(8) == 0 ? a : pick()});
    }
  }
  // An XOR/XNOR chain, and a gate reading one chain gate on both pins.
  GateId x = pick();
  for (int i = 0; i < 6; ++i) {
    x = add(i % 2 == 0 ? GateKind::kXor : GateKind::kXnor, {x, pick()});
  }
  x = add(GateKind::kAnd, {x, x});
  // An observed gate that also fans out.
  const GateId seen = add(GateKind::kOr, {x, pick()});
  n.mark_output(seen);
  add(GateKind::kNand, {seen, pick()});
  // Chains into every DFF's D pin.
  for (GateId dff : dffs) {
    GateId d = pick();
    for (int i = 0; i < 3; ++i) d = add(GateKind::kNot, {d});
    n.set_dff_input(dff, d);
  }
  // Observe a few chain tails, then add a dangling chain nothing reads.
  for (std::size_t i = 0; i < 3 && !unread.empty(); ++i) {
    const GateId tail = unread[rng.next_below(unread.size())];
    if (n.gate(tail).kind != GateKind::kDff) n.mark_output(tail);
  }
  add(GateKind::kNor, {add(GateKind::kBuf, {pick()}), pick()});
  return n;
}

TEST(RegionOracle, ChainNetlistsHaveEveryShapeUnderTest) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const auto n = make_chain_netlist(rng, 5, 3, 80);
    const ConeCache cones(n);
    std::size_t chain = 0, xor_chain = 0, double_read = 0, observed_fanout = 0,
                into_dff = 0, dangling = 0;
    for (std::size_t i = 0; i < n.gate_count(); ++i) {
      const GateId id(static_cast<GateId::value_type>(i));
      const Gate& g = n.gate(id);
      const auto& out = n.fanouts()[i];
      const bool xor_kind =
          g.kind == GateKind::kXor || g.kind == GateKind::kXnor;
      if (cones.region_root(id) != id) {
        ++chain;
        const GateKind next = n.gate(out[0]).kind;
        if (xor_kind && (next == GateKind::kXor || next == GateKind::kXnor)) {
          ++xor_chain;
        }
      }
      if (g.fanin.size() == 2 && g.fanin[0] == g.fanin[1]) ++double_read;
      if (cones.observed(id) && !out.empty()) ++observed_fanout;
      if (out.empty() && !cones.observed(id)) ++dangling;
      if (g.kind == GateKind::kDff &&
          cones.region_root(n.gate(g.fanin[0]).fanin[0]) == g.fanin[0]) {
        ++into_dff;
      }
    }
    EXPECT_GT(chain, n.gate_count() / 4) << "seed " << seed;
    EXPECT_GT(xor_chain, 0u) << "seed " << seed;
    EXPECT_GT(double_read, 0u) << "seed " << seed;
    EXPECT_GT(observed_fanout, 0u) << "seed " << seed;
    EXPECT_GT(into_dff, 0u) << "seed " << seed;
    EXPECT_GT(dangling, 0u) << "seed " << seed;
  }
}

// Walking each fault up its region and replaying the region's root once
// is exact: statuses and first-detecting patterns equal the one-pattern
// scalar reference and the seed kernel's whole-cone replay, at every
// width, with either kernel family, and at any thread count.
TEST(RegionOracle, StatusesMatchReferenceAndSeedKernel) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const auto n = make_chain_netlist(rng, 5, 3, 80);
    const auto faults = enumerate_faults(n);
    // 150 patterns: several one-word blocks and a partial wide block.
    const auto patterns = make_random_patterns(n, 150, rng);
    const auto first = reference_first_detect(n, faults, patterns);
    const auto expected = reference_statuses(n, faults, patterns);

    for (unsigned lane_words : {1u, 4u, 8u}) {
      for (bool use_avx2 : {false, true}) {
        for (bool suppression : {false, true}) {
          ScanSimOptions o;
          o.lane_words = lane_words;
          o.use_avx2 = use_avx2;
          o.replay_suppression = suppression;
          ScanFaultSim sim(n, o);
          std::vector<FaultStatus> statuses(faults.size(),
                                            FaultStatus::kUndetected);
          std::vector<std::size_t> found;
          sim.run(faults, patterns, statuses, &found);
          const std::string what =
              "seed=" + std::to_string(seed) + " W=" +
              std::to_string(lane_words) + " kernel=" + sim.last_kernel() +
              " suppression=" + std::to_string(suppression);
          EXPECT_EQ(statuses, expected) << what;
          for (std::size_t fi = 0; fi < faults.size(); ++fi) {
            if (statuses[fi] == FaultStatus::kDetected) {
              EXPECT_EQ(found[fi], first[fi]) << what << " fault " << fi;
            }
          }
        }
      }
    }
    for (unsigned threads : {1u, 2u, 8u}) {
      for (bool suppression : {false, true}) {
        ParallelSimOptions o;
        o.threads = threads;
        o.min_faults_per_thread = 1;
        o.sim.replay_suppression = suppression;
        ParallelScanFaultSim sim(n, o);
        std::vector<FaultStatus> statuses(faults.size(),
                                          FaultStatus::kUndetected);
        sim.run(faults, patterns, statuses);
        EXPECT_EQ(statuses, expected)
            << "seed=" << seed << " threads=" << threads
            << " suppression=" << suppression;
      }
    }
  }
}

/// Reverse-order compaction as one one-pattern run per pattern: the loop
/// compact_patterns replaced, kept here as its oracle.
std::vector<ScanPattern> compact_one_pattern_at_a_time(
    const GateNetlist& n, const std::vector<ScanPattern>& patterns) {
  const auto faults = enumerate_faults(n);
  std::vector<FaultStatus> statuses(faults.size(), FaultStatus::kUndetected);
  ScanSimOptions o;
  o.replay_suppression = false;
  ScanFaultSim sim(n, o);
  std::vector<ScanPattern> kept;
  for (auto it = patterns.rbegin(); it != patterns.rend(); ++it) {
    const auto before = summarize(statuses).detected;
    sim.run(faults, {*it}, statuses);
    if (summarize(statuses).detected > before) kept.push_back(*it);
  }
  std::reverse(kept.begin(), kept.end());
  return kept;
}

bool same_patterns(const std::vector<ScanPattern>& a,
                   const std::vector<ScanPattern>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].pi == b[i].pi) || !(a[i].ppi == b[i].ppi)) return false;
  }
  return true;
}

TEST(CompactionOracle, OnePassKeepsTheOnePatternLoopsPatterns) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const auto n = seed % 2 == 0 ? make_chain_netlist(rng, 6, 3, 90)
                                 : make_random_netlist(rng, 6, 3, 90);
    // Few patterns keep a one-word block; many span several wide ones.
    for (std::size_t count : {20u, 300u, 700u}) {
      const auto patterns = make_random_patterns(n, count, rng);
      const auto kept = atpg::compact_patterns(n, patterns);
      EXPECT_TRUE(same_patterns(kept, compact_one_pattern_at_a_time(n, patterns)))
          << "seed " << seed << ", " << count << " patterns";
    }
  }
}

/// FNV-1a 64 over the pattern bits, PI bits then PPI bits, one byte each.
std::uint64_t pattern_digest(const std::vector<ScanPattern>& patterns) {
  std::uint64_t h = 14695981039346656037ull;
  const auto feed = [&h](const BitVector& bits) {
    for (std::size_t i = 0; i < bits.width(); ++i) {
      h ^= bits.get(i) ? 1u : 0u;
      h *= 1099511628211ull;
    }
  };
  for (const auto& p : patterns) {
    feed(p.pi);
    feed(p.ppi);
  }
  return h;
}

TEST(CompactionOracle, System1CoresKeepGoldenPatterns) {
  // Kept sets of the one-pattern-at-a-time loop, recorded before
  // compaction became one pass.
  struct Golden {
    const char* core;
    std::uint64_t seed;
    std::uint64_t digest;
    std::size_t kept;
  };
  static constexpr Golden kGoldens[] = {
      {"CPU", 1, 0x8f4e364fca6681efull, 119},
      {"CPU", 2, 0xa7dec78b1276cc1eull, 118},
      {"CPU", 3, 0xe8c0c1e7cd5fdf46ull, 121},
      {"PREPROCESSOR", 1, 0x4a8ff05ebccf61e4ull, 67},
      {"PREPROCESSOR", 2, 0xb433c24ce5696d9eull, 66},
      {"PREPROCESSOR", 3, 0x22def0d4e783f487ull, 70},
      {"DISPLAY", 1, 0x66a9f02831044a98ull, 59},
      {"DISPLAY", 2, 0x8db03fbc6d67c52full, 61},
      {"DISPLAY", 3, 0x8753da84f2e10f1dull, 63},
  };
  auto system = systems::make_barcode_system();
  for (const Golden& golden : kGoldens) {
    const auto elab = synth::elaborate(system.core_named(golden.core).netlist());
    const auto tests = atpg::generate_tests(elab.gates, {.seed = golden.seed});
    const auto kept = atpg::compact_patterns(elab.gates, tests.patterns);
    EXPECT_EQ(kept.size(), golden.kept) << golden.core << " seed " << golden.seed;
    EXPECT_EQ(pattern_digest(kept), golden.digest)
        << golden.core << " seed " << golden.seed;
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

TEST(SeqSimPinFaults, MalformedListRaisesBeforeAnyStatusIsWritten) {
  // 70 inverters: 142 stem faults, every one detected within two cycles,
  // so a simulator that validated lazily would already have written
  // kDetected for them when it reached the malformed entry at the end.
  GateNetlist n("chain");
  auto a = n.add_input("a");
  auto zero = n.add_gate(GateKind::kConst0, {}, "zero");
  GateId prev = a;
  for (int i = 0; i < 70; ++i) {
    prev = n.add_gate(GateKind::kNot, {prev}, "n" + std::to_string(i));
  }
  n.mark_output(prev);
  const auto good = enumerate_faults(n);
  ASSERT_GT(good.size(), 100u);
  const std::vector<BitVector> sequence{BitVector(1, 0), BitVector(1, 1)};
  SequentialFaultSim sim(n);
  {
    std::vector<FaultStatus> statuses(good.size(), FaultStatus::kUndetected);
    sim.run(good, sequence, statuses);
    ASSERT_DOUBLE_EQ(summarize(statuses).fault_coverage(), 100.0);
  }

  const std::vector<Fault> malformed{
      Fault{a, 0, true},      // pin fault on an input
      Fault{zero, 0, false},  // pin fault on a constant
      Fault{prev, 1, true},   // pin the inverter does not have
      Fault{GateId(static_cast<GateId::value_type>(n.gate_count())), -1,
            false},           // gate outside the netlist
  };
  for (std::size_t k = 0; k < malformed.size(); ++k) {
    auto faults = good;
    faults.push_back(malformed[k]);
    for (const auto& applied : {sequence, std::vector<BitVector>{}}) {
      std::vector<FaultStatus> statuses(faults.size(),
                                        FaultStatus::kUndetected);
      EXPECT_THROW(sim.run(faults, applied, statuses), util::Error)
          << "malformed entry " << k << ", " << applied.size() << " cycles";
      EXPECT_EQ(statuses, std::vector<FaultStatus>(
                              faults.size(), FaultStatus::kUndetected));
    }
  }

  // A vector narrower than the inputs, after the cycles that detect all.
  std::vector<BitVector> narrow = sequence;
  narrow.push_back(BitVector(0));
  std::vector<FaultStatus> statuses(good.size(), FaultStatus::kUndetected);
  EXPECT_THROW(sim.run(good, narrow, statuses), util::Error);
  EXPECT_EQ(statuses,
            std::vector<FaultStatus>(good.size(), FaultStatus::kUndetected));
}

// ------------------------------------------- sequential differential oracle

/// Random sequential circuit: constants, 1–4-input gates (XOR/XNOR take
/// two), and flops whose D comes from anywhere in the logic, so state
/// feeds back through later cycles.  Besides `n_outputs` gate taps, a
/// flop and an input are primary outputs too.
GateNetlist make_random_sequential_netlist(Rng& rng, std::size_t n_inputs,
                                           std::size_t n_dffs,
                                           std::size_t n_gates,
                                           std::size_t n_outputs) {
  GateNetlist n("seqrand");
  std::vector<GateId> nodes;
  for (std::size_t i = 0; i < n_inputs; ++i) {
    nodes.push_back(n.add_input("i" + std::to_string(i)));
  }
  nodes.push_back(n.add_gate(GateKind::kConst0, {}, "zero"));
  nodes.push_back(n.add_gate(GateKind::kConst1, {}, "one"));
  std::vector<GateId> dffs;
  for (std::size_t i = 0; i < n_dffs; ++i) {
    dffs.push_back(n.add_dff_floating("q" + std::to_string(i)));
    nodes.push_back(dffs.back());
  }
  const std::size_t first_gate = nodes.size();
  static const GateKind kKinds[] = {
      GateKind::kAnd, GateKind::kOr,  GateKind::kNand, GateKind::kNor,
      GateKind::kXor, GateKind::kXnor, GateKind::kNot, GateKind::kBuf};
  for (std::size_t i = 0; i < n_gates; ++i) {
    const GateKind kind = kKinds[rng.next_below(8)];
    std::size_t arity = 2 + rng.next_below(3);
    if (kind == GateKind::kNot || kind == GateKind::kBuf) arity = 1;
    if (kind == GateKind::kXor || kind == GateKind::kXnor) arity = 2;
    std::vector<GateId> fanin;
    for (std::size_t p = 0; p < arity; ++p) {
      fanin.push_back(nodes[rng.next_below(nodes.size())]);
    }
    nodes.push_back(n.add_gate(kind, fanin, "g" + std::to_string(i)));
  }
  for (GateId dff : dffs) {
    n.set_dff_input(dff, nodes[first_gate + rng.next_below(n_gates)]);
  }
  for (std::size_t i = 0; i < n_outputs; ++i) {
    n.mark_output(nodes[first_gate + rng.next_below(n_gates)]);
  }
  n.mark_output(dffs.front());
  n.mark_output(nodes.front());
  return n;
}

std::vector<BitVector> make_random_sequence(const GateNetlist& n,
                                            std::size_t cycles, Rng& rng) {
  std::vector<BitVector> sequence;
  for (std::size_t c = 0; c < cycles; ++c) {
    sequence.push_back(BitVector::random(n.inputs().size(), rng));
  }
  return sequence;
}

/// Both engines start from `initial`; returns the reference's statuses.
std::vector<FaultStatus> expect_matches_reference(
    const GateNetlist& n, const std::vector<Fault>& faults,
    const std::vector<BitVector>& sequence,
    const std::vector<FaultStatus>& initial, const std::string& what) {
  std::vector<FaultStatus> expected = initial;
  reference::SequentialFaultSim(n).run(faults, sequence, expected);
  std::vector<FaultStatus> statuses = initial;
  SequentialFaultSim(n).run(faults, sequence, statuses);
  EXPECT_EQ(statuses, expected) << what;
  return expected;
}

TEST(SeqSimOracle, RandomSequentialCircuitsMatchReference) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const auto n = make_random_sequential_netlist(rng, 6, 5, 80, 6);
    for (bool collapse : {true, false}) {
      auto faults = enumerate_faults(n, collapse);
      // Constants carry no listed faults; add their stems by hand.
      for (GateId id : n.topo_order()) {
        const GateKind kind = n.gate(id).kind;
        if (kind == GateKind::kConst0 || kind == GateKind::kConst1) {
          faults.push_back(Fault{id, -1, kind == GateKind::kConst0});
        }
      }
      const bool has_d_pin = std::any_of(
          faults.begin(), faults.end(), [&](const Fault& f) {
            return f.pin >= 0 && n.gate(f.gate).kind == GateKind::kDff;
          });
      EXPECT_EQ(has_d_pin, !collapse);

      // Pre-set entries must be skipped and left as they are.
      std::vector<FaultStatus> initial(faults.size(),
                                       FaultStatus::kUndetected);
      for (std::size_t i = 0; i < initial.size(); ++i) {
        if (i % 5 == 0) initial[i] = FaultStatus::kDetected;
        if (i % 7 == 0) initial[i] = FaultStatus::kUntestable;
        if (i % 11 == 0) initial[i] = FaultStatus::kAborted;
      }
      for (std::size_t cycles : {0u, 1u, 2u, 96u}) {
        const auto sequence = make_random_sequence(n, cycles, rng);
        const auto expected = expect_matches_reference(
            n, faults, sequence, initial,
            "seed=" + std::to_string(seed) + " collapse=" +
                std::to_string(collapse) + " cycles=" +
                std::to_string(cycles));
        if (cycles == 96) {
          EXPECT_GT(summarize(expected).detected, summarize(initial).detected)
              << "seed=" << seed;
        }
      }
    }
  }
}

TEST(SeqSimOracle, GroupBoundariesAndMidSequenceRepacks) {
  constexpr std::size_t kMachines = 511;  // faulty machines per group
  Rng rng(41);
  const auto n = make_random_sequential_netlist(rng, 10, 16, 600, 60);
  const auto all = enumerate_faults(n, /*collapse=*/false);
  ASSERT_GT(all.size(), 2 * kMachines + 1);
  const auto sequence = make_random_sequence(n, 96, rng);

  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::Counter& repacks = obs::counter("faultsim/seq_repacks");
  obs::Counter& group_cycles = obs::counter("faultsim/seq_group_cycles");
  for (std::size_t count : {63u, 64u, 511u, 512u, 1022u, 1023u, 1100u, 0u}) {
    if (count == 0) count = all.size();
    const std::vector<Fault> faults(all.begin(), all.begin() + count);
    const std::uint64_t repacks_before = repacks.value();
    const std::uint64_t cycles_before = group_cycles.value();
    const auto expected = expect_matches_reference(
        n, faults, sequence,
        std::vector<FaultStatus>(count, FaultStatus::kUndetected),
        std::to_string(count) + " faults");

    // Live faults only shrink and are checked after every cycle, so the
    // survivors at the end decide whether a repack happened.
    const std::size_t groups = (count + kMachines - 1) / kMachines;
    const std::size_t survivors = count - summarize(expected).detected;
    const bool repacked =
        survivors > 0 && survivors <= kMachines * (groups - 1);
    EXPECT_EQ(repacks.value() > repacks_before, repacked)
        << count << " faults, " << survivors << " survivors";
    // A repack leaves fewer groups to sweep in the cycles after it;
    // without one (and with faults left) every group sweeps every cycle.
    const std::uint64_t swept = group_cycles.value() - cycles_before;
    if (repacked) {
      EXPECT_LT(swept, groups * sequence.size()) << count << " faults";
    } else if (survivors > 0) {
      EXPECT_EQ(swept, groups * sequence.size()) << count << " faults";
    }
    if (count > kMachines) {
      EXPECT_TRUE(repacked) << count << " faults";
    }
  }
  obs::set_metrics_enabled(was_enabled);
}

struct ChipCase {
  const char* name;
  systems::System (*make)(const core::CoreCostModels&);
  bench::ChipMode mode;
};

class SeqSimChipOracle : public ::testing::TestWithParam<ChipCase> {};

TEST_P(SeqSimChipOracle, FlattenedChipMatchesReference) {
  const systems::System system = GetParam().make({});
  const auto input = bench::chip_sequential_input(system, GetParam().mode, 24);
  const auto faults = enumerate_faults(input.elab.gates);
  expect_matches_reference(
      input.elab.gates, faults, input.sequence,
      std::vector<FaultStatus>(faults.size(), FaultStatus::kUndetected),
      GetParam().name);
}

INSTANTIATE_TEST_SUITE_P(
    System1And2, SeqSimChipOracle,
    ::testing::Values(
        ChipCase{"system1_no_dft", &systems::make_barcode_system,
                 bench::ChipMode::kNoDft},
        ChipCase{"system1_hscan_unreachable", &systems::make_barcode_system,
                 bench::ChipMode::kHscanUnreachable},
        ChipCase{"system1_hscan_test_pin", &systems::make_barcode_system,
                 bench::ChipMode::kHscanWithTestPin},
        ChipCase{"system2_no_dft", &systems::make_system2,
                 bench::ChipMode::kNoDft},
        ChipCase{"system2_hscan_unreachable", &systems::make_system2,
                 bench::ChipMode::kHscanUnreachable},
        ChipCase{"system2_hscan_test_pin", &systems::make_system2,
                 bench::ChipMode::kHscanWithTestPin}),
    [](const ::testing::TestParamInfo<ChipCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace socet::faultsim
