#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "podem_reference.hpp"
#include "socet/atpg/atpg.hpp"
#include "socet/atpg/miter.hpp"
#include "socet/atpg/podem.hpp"
#include "socet/atpg/sat.hpp"
#include "socet/atpg/sequential.hpp"
#include "socet/obs/metrics.hpp"
#include "socet/obs/trace.hpp"
#include "socet/rtl/netlist.hpp"
#include "socet/synth/elaborate.hpp"
#include "socet/systems/systems.hpp"
#include "socet/util/rng.hpp"

namespace socet::atpg {
namespace {

using faultsim::Fault;
using faultsim::FaultStatus;
using gate::GateId;
using gate::GateKind;
using gate::GateNetlist;

// ------------------------------------------------------------------ PODEM

TEST(Podem, GeneratesTestForAndOutputFault) {
  GateNetlist n("and2");
  auto a = n.add_input("a");
  auto b = n.add_input("b");
  auto z = n.add_gate(GateKind::kAnd, {a, b}, "z");
  n.mark_output(z);

  auto r = podem(n, Fault{z, -1, false});
  ASSERT_EQ(r.outcome, PodemResult::Outcome::kFound);
  // s-a-0 at an AND output needs both inputs at 1.
  EXPECT_TRUE(r.pattern.pi.get(0));
  EXPECT_TRUE(r.pattern.pi.get(1));
}

TEST(Podem, GeneratesTestThroughReconvergence) {
  // z = (a AND b) OR (a AND c): test b-path fault with c blocking.
  GateNetlist n("rc");
  auto a = n.add_input("a");
  auto b = n.add_input("b");
  auto c = n.add_input("c");
  auto g1 = n.add_gate(GateKind::kAnd, {a, b}, "g1");
  auto g2 = n.add_gate(GateKind::kAnd, {a, c}, "g2");
  auto z = n.add_gate(GateKind::kOr, {g1, g2}, "z");
  n.mark_output(z);

  auto r = podem(n, Fault{g1, -1, false});
  ASSERT_EQ(r.outcome, PodemResult::Outcome::kFound);
  // Needs a=b=1 (activate) and c=0 (propagate past g2).
  EXPECT_TRUE(r.pattern.pi.get(0));
  EXPECT_TRUE(r.pattern.pi.get(1));
  EXPECT_FALSE(r.pattern.pi.get(2));
}

TEST(Podem, ProvesRedundantFaultUntestable) {
  // z = a OR (a AND b): AND output s-a-0 is redundant.
  GateNetlist n("red");
  auto a = n.add_input("a");
  auto b = n.add_input("b");
  auto g1 = n.add_gate(GateKind::kAnd, {a, b}, "g1");
  auto z = n.add_gate(GateKind::kOr, {a, g1}, "z");
  n.mark_output(z);

  auto r = podem(n, Fault{g1, -1, false});
  EXPECT_EQ(r.outcome, PodemResult::Outcome::kUntestable);
}

TEST(Podem, InputPinFault) {
  GateNetlist n("pin");
  auto a = n.add_input("a");
  auto b = n.add_input("b");
  auto z = n.add_gate(GateKind::kXor, {a, b}, "z");
  n.mark_output(z);

  auto r = podem(n, Fault{z, 0, true});  // pin a of XOR stuck at 1
  ASSERT_EQ(r.outcome, PodemResult::Outcome::kFound);
  EXPECT_FALSE(r.pattern.pi.get(0));  // a must be 0 to excite
}

TEST(Podem, UsesScanStateAsPseudoInputs) {
  // Output only depends on flip-flop contents: PODEM must assign the PPI.
  GateNetlist n("ff");
  auto d = n.add_dff_floating("q");
  auto a = n.add_input("a");
  auto z = n.add_gate(GateKind::kAnd, {a, d}, "z");
  n.set_dff_input(d, z);
  n.mark_output(z);

  auto r = podem(n, Fault{z, -1, false});
  ASSERT_EQ(r.outcome, PodemResult::Outcome::kFound);
  EXPECT_TRUE(r.pattern.pi.get(0));
  EXPECT_TRUE(r.pattern.ppi.get(0));
}

TEST(Podem, ObservesAtFlipFlopDPin) {
  // Fault cone ends at a DFF only (no PO): must still be testable.
  GateNetlist n("ppo");
  auto a = n.add_input("a");
  auto b = n.add_input("b");
  auto g = n.add_gate(GateKind::kOr, {a, b}, "g");
  auto d = n.add_dff_floating("q");
  n.set_dff_input(d, g);

  auto r = podem(n, Fault{g, -1, true});
  ASSERT_EQ(r.outcome, PodemResult::Outcome::kFound);
  EXPECT_FALSE(r.pattern.pi.get(0));
  EXPECT_FALSE(r.pattern.pi.get(1));
}

TEST(Podem, XorChainParityCircuit) {
  GateNetlist n("parity");
  std::vector<GateId> ins;
  for (int i = 0; i < 6; ++i) ins.push_back(n.add_input("i"));
  GateId acc = ins[0];
  for (int i = 1; i < 6; ++i) {
    acc = n.add_gate(GateKind::kXor, {acc, ins[i]}, "x");
  }
  n.mark_output(acc);

  for (const Fault f : {Fault{acc, -1, false}, Fault{ins[3], -1, true}}) {
    auto r = podem(n, f);
    EXPECT_EQ(r.outcome, PodemResult::Outcome::kFound)
        << describe_fault(n, f);
  }
}

// --------------------------------------- differential oracle (full sweep)

/// Both engines must reach the same verdict by the same search: same
/// outcome, pattern bits, don't-care vectors and backtrack count.
void expect_same_search(const PodemResult& got, const PodemResult& want,
                        const std::string& what) {
  EXPECT_EQ(got.outcome, want.outcome) << what;
  EXPECT_EQ(got.backtracks, want.backtracks) << what;
  EXPECT_EQ(got.pattern.pi, want.pattern.pi) << what;
  EXPECT_EQ(got.pattern.ppi, want.pattern.ppi) << what;
  EXPECT_EQ(got.pi_dont_care, want.pi_dont_care) << what;
  EXPECT_EQ(got.ppi_dont_care, want.ppi_dont_care) << what;
}

/// Compares both engines on every fault of `n`; returns how many calls
/// ended in each outcome.
std::array<unsigned, 3> expect_same_search_on_every_fault(
    const GateNetlist& n, const PodemOptions& options,
    const std::string& label) {
  std::array<unsigned, 3> outcomes{};
  for (const Fault& f : faultsim::enumerate_faults(n)) {
    const PodemResult got = podem(n, f, options);
    expect_same_search(got, reference::podem(n, f, options),
                       label + " " + describe_fault(n, f));
    ++outcomes[static_cast<std::size_t>(got.outcome)];
  }
  return outcomes;
}

/// Random combinational logic over PIs and flip-flop outputs (PPIs):
/// every gate kind, 1- to 4-input AND/OR families, constants, and DFF D
/// pins driven from the logic so some faults are observed only there.
GateNetlist make_random_logic(std::uint64_t seed, unsigned inputs,
                              unsigned dffs, unsigned gates) {
  util::Rng rng(seed);
  GateNetlist n("rand");
  std::vector<GateId> pool;
  for (unsigned i = 0; i < inputs; ++i) pool.push_back(n.add_input("i"));
  std::vector<GateId> flops;
  for (unsigned i = 0; i < dffs; ++i) {
    flops.push_back(n.add_dff_floating("q"));
    pool.push_back(flops.back());
  }
  pool.push_back(n.add_gate(GateKind::kConst1, {}, "one"));
  static constexpr GateKind kinds[] = {
      GateKind::kAnd, GateKind::kOr,  GateKind::kNand, GateKind::kNor,
      GateKind::kXor, GateKind::kXnor, GateKind::kNot, GateKind::kBuf};
  for (unsigned g = 0; g < gates; ++g) {
    const GateKind kind = kinds[rng.next_below(8)];
    std::size_t arity = 2;
    if (kind == GateKind::kNot || kind == GateKind::kBuf) {
      arity = 1;
    } else if (kind != GateKind::kXor && kind != GateKind::kXnor) {
      arity = 2 + rng.next_below(3);
    }
    std::vector<GateId> fanin;
    while (fanin.size() < arity) {
      const GateId pick = pool[rng.next_below(pool.size())];
      if (std::find(fanin.begin(), fanin.end(), pick) == fanin.end()) {
        fanin.push_back(pick);
      } else if (arity > pool.size()) {
        break;
      }
    }
    if (fanin.size() < arity) continue;
    pool.push_back(n.add_gate(kind, std::move(fanin)));
  }
  for (GateId q : flops) {
    n.set_dff_input(q, pool[pool.size() - 1 - rng.next_below(gates / 2)]);
  }
  for (unsigned o = 0; o < 3; ++o) n.mark_output(pool[pool.size() - 1 - o]);
  return n;
}

TEST(PodemOracle, RandomCircuitsMatchFullSweepOnEveryFault) {
  std::array<unsigned, 3> outcomes{};
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto n = make_random_logic(seed, 6 + seed % 4, seed % 3, 50);
    for (const unsigned limit : {4u, 512u}) {
      const auto counts = expect_same_search_on_every_fault(
          n, {.backtrack_limit = limit},
          "seed " + std::to_string(seed) + " limit " + std::to_string(limit));
      for (std::size_t k = 0; k < 3; ++k) outcomes[k] += counts[k];
    }
  }
  // The family exercises found, untestable and aborted searches alike.
  EXPECT_GT(outcomes[0], 0u);
  EXPECT_GT(outcomes[1], 0u);
  EXPECT_GT(outcomes[2], 0u);
}

TEST(PodemOracle, HandBuiltCircuitsMatchFullSweepOnEveryFault) {
  // The circuits of the Podem.* tests above.
  std::vector<GateNetlist> circuits;
  {
    GateNetlist n("and2");
    auto a = n.add_input("a");
    auto b = n.add_input("b");
    n.mark_output(n.add_gate(GateKind::kAnd, {a, b}, "z"));
    circuits.push_back(std::move(n));
  }
  {
    GateNetlist n("rc");
    auto a = n.add_input("a");
    auto b = n.add_input("b");
    auto c = n.add_input("c");
    auto g1 = n.add_gate(GateKind::kAnd, {a, b}, "g1");
    auto g2 = n.add_gate(GateKind::kAnd, {a, c}, "g2");
    n.mark_output(n.add_gate(GateKind::kOr, {g1, g2}, "z"));
    circuits.push_back(std::move(n));
  }
  {
    GateNetlist n("red");
    auto a = n.add_input("a");
    auto b = n.add_input("b");
    auto g1 = n.add_gate(GateKind::kAnd, {a, b}, "g1");
    n.mark_output(n.add_gate(GateKind::kOr, {a, g1}, "z"));
    circuits.push_back(std::move(n));
  }
  {
    GateNetlist n("pin");
    auto a = n.add_input("a");
    auto b = n.add_input("b");
    n.mark_output(n.add_gate(GateKind::kXor, {a, b}, "z"));
    circuits.push_back(std::move(n));
  }
  {
    GateNetlist n("ff");
    auto d = n.add_dff_floating("q");
    auto a = n.add_input("a");
    auto z = n.add_gate(GateKind::kAnd, {a, d}, "z");
    n.set_dff_input(d, z);
    n.mark_output(z);
    circuits.push_back(std::move(n));
  }
  {
    GateNetlist n("ppo");
    auto a = n.add_input("a");
    auto b = n.add_input("b");
    auto g = n.add_gate(GateKind::kOr, {a, b}, "g");
    n.set_dff_input(n.add_dff_floating("q"), g);
    circuits.push_back(std::move(n));
  }
  {
    GateNetlist n("parity");
    GateId acc = n.add_input("i");
    for (int i = 1; i < 6; ++i) {
      acc = n.add_gate(GateKind::kXor, {acc, n.add_input("i")}, "x");
    }
    n.mark_output(acc);
    circuits.push_back(std::move(n));
  }
  for (const GateNetlist& n : circuits) {
    expect_same_search_on_every_fault(n, {}, n.name());
  }
}

TEST(PodemOracle, PendingPinSiteWinsFrontierTie) {
  // a=1 excites both sites: a D on stem a reaches g1 and g2, and g2's
  // own pin fault is pending.  g1 and g2 tie on distance to observation
  // and g1 is topologically first, but pending pin sites lead the
  // frontier, so the objective drives g2's side input y, not x.
  GateNetlist n("tie");
  auto a = n.add_input("a");
  auto x = n.add_input("x");
  auto y = n.add_input("y");
  auto g2 = n.add_gate(GateKind::kAnd, {a, y}, "g2");
  auto g1 = n.add_gate(GateKind::kAnd, {a, x}, "g1");
  n.mark_output(g1);
  n.mark_output(g2);
  const auto& order = n.topo_order();
  ASSERT_LT(std::find(order.begin(), order.end(), g1),
            std::find(order.begin(), order.end(), g2));
  const std::vector<Fault> sites{Fault{a, -1, false}, Fault{g2, 0, false}};
  const auto r = podem_multi(n, sites);
  expect_same_search(r, reference::podem_multi(n, sites), "tie");
  ASSERT_EQ(r.outcome, PodemResult::Outcome::kFound);
  EXPECT_TRUE(r.pattern.pi.get(2));
  EXPECT_TRUE(r.pi_dont_care[1]);
}

TEST(PodemOracle, UnrolledGcdMultiSiteMatchesFullSweep) {
  const auto elab = synth::elaborate(systems::make_gcd_rtl());
  const UnrolledCircuit unrolled = unroll(elab.gates, 3);
  const auto faults = faultsim::enumerate_faults(elab.gates);
  const PodemOptions options{.backtrack_limit = 64};
  unsigned compared = 0;
  for (std::size_t fi = 0; fi < faults.size(); fi += 23) {
    const auto sites = map_fault(unrolled, faults[fi]);
    if (sites.empty()) continue;
    expect_same_search(podem_multi(unrolled.netlist, sites, options),
                       reference::podem_multi(unrolled.netlist, sites, options),
                       describe_fault(elab.gates, faults[fi]));
    ++compared;
  }
  EXPECT_GT(compared, 20u);
}

TEST(PodemCounters, ImplicationIsEventDrivenOnSystem1Core) {
  // The first implication of a call evaluates every gate; an event-driven
  // engine re-evaluates only the fanout of what changed afterwards, so a
  // call averages fewer than gate_count evaluations per implication.
  auto system = systems::make_barcode_system();
  const auto elab = synth::elaborate(system.core_named("DISPLAY").netlist());
  const std::uint64_t gates = elab.gates.gate_count();
  const auto faults = faultsim::enumerate_faults(elab.gates);
  std::uint64_t implications = 0;
  std::uint64_t gate_evals = 0;
  for (std::size_t fi = 0; fi < faults.size(); fi += 97) {
    const PodemResult r = podem(elab.gates, faults[fi]);
    EXPECT_GE(r.implications, 1u);
    EXPECT_GE(r.gate_evals, gates);  // the all-X pass visits every gate
    implications += r.implications;
    gate_evals += r.gate_evals;
  }
  EXPECT_GT(implications, faults.size() / 97 + 1);
  EXPECT_LT(gate_evals, implications * gates);
}

// ------------------------------------------------------------ SAT solver

using sat::Lit;

/// A CNF over `vars` variables as clause lists.
struct Cnf {
  unsigned vars = 0;
  std::vector<std::vector<Lit>> clauses;
};

/// Brute force: does some assignment of the variables satisfy every
/// clause?
bool brute_force_sat(const Cnf& cnf) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> masks;  // pos, neg
  for (const auto& clause : cnf.clauses) {
    std::uint32_t pos = 0, neg = 0;
    for (const Lit l : clause) (l.negated() ? neg : pos) |= 1u << l.var();
    masks.emplace_back(pos, neg);
  }
  for (std::uint32_t a = 0; a < (1u << cnf.vars); ++a) {
    bool all = true;
    for (const auto& [pos, neg] : masks) {
      if ((a & pos) == 0 && (~a & neg) == 0) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

sat::Result solve_cnf(sat::Solver& solver, const Cnf& cnf,
                      std::uint64_t conflict_limit) {
  solver.clear();
  for (unsigned v = 0; v < cnf.vars; ++v) solver.new_var(v % 3 == 0);
  for (const auto& clause : cnf.clauses) solver.add_clause(clause);
  return solver.solve(conflict_limit);
}

bool model_satisfies(const sat::Solver& solver, const Cnf& cnf) {
  for (const auto& clause : cnf.clauses) {
    bool any = false;
    for (const Lit l : clause) {
      any |= solver.model_value(l.var()) != l.negated();
    }
    if (!any) return false;
  }
  return true;
}

/// Pigeonhole: `holes + 1` pigeons in `holes` holes, unsatisfiable and
/// hard for resolution.
Cnf pigeonhole(unsigned holes) {
  Cnf cnf;
  const unsigned pigeons = holes + 1;
  cnf.vars = pigeons * holes;
  auto var = [holes](unsigned p, unsigned h) { return p * holes + h; };
  for (unsigned p = 0; p < pigeons; ++p) {
    std::vector<Lit> somewhere;
    for (unsigned h = 0; h < holes; ++h) {
      somewhere.push_back(Lit::pos(var(p, h)));
    }
    cnf.clauses.push_back(somewhere);
  }
  for (unsigned h = 0; h < holes; ++h) {
    for (unsigned p = 0; p < pigeons; ++p) {
      for (unsigned q = p + 1; q < pigeons; ++q) {
        cnf.clauses.push_back({Lit::neg(var(p, h)), Lit::neg(var(q, h))});
      }
    }
  }
  return cnf;
}

TEST(Sat, MatchesBruteForceOnRandomCnfs) {
  util::Rng rng(2024);
  sat::Solver solver;  // one solver, cleared between formulas
  unsigned sat_count = 0, unsat_count = 0, limited = 0;
  for (unsigned instance = 0; instance < 12000; ++instance) {
    Cnf cnf;
    cnf.vars = 1 + static_cast<unsigned>(rng.next_below(14));
    const auto clauses = 1 + rng.next_below(5 * cnf.vars + 2);
    for (std::uint64_t c = 0; c < clauses; ++c) {
      std::vector<Lit> clause;
      const auto width = 1 + rng.next_below(rng.next_below(8) == 0 ? 2 : 4);
      for (std::uint64_t k = 0; k < width; ++k) {
        const auto v = static_cast<std::uint32_t>(rng.next_below(cnf.vars));
        clause.push_back(rng.next_bool() ? Lit::neg(v) : Lit::pos(v));
      }
      cnf.clauses.push_back(clause);
    }
    const bool want = brute_force_sat(cnf);
    const sat::Result got = solve_cnf(solver, cnf, 1u << 20);
    ASSERT_EQ(got, want ? sat::Result::kSat : sat::Result::kUnsat)
        << "instance " << instance;
    if (want) {
      ASSERT_TRUE(model_satisfies(solver, cnf)) << "instance " << instance;
      ++sat_count;
    } else {
      ++unsat_count;
    }
    // Under a one-conflict limit the answer is right or unknown.
    const sat::Result capped = solve_cnf(solver, cnf, 1);
    if (capped == sat::Result::kUnknown) {
      ++limited;
      EXPECT_EQ(solver.conflicts(), 1u);
    } else {
      ASSERT_EQ(capped, got) << "instance " << instance;
    }
  }
  EXPECT_GT(sat_count, 2000u);
  EXPECT_GT(unsat_count, 2000u);
  EXPECT_GT(limited, 20u);
}

TEST(Sat, ConflictLimitReturnsUnknown) {
  const Cnf cnf = pigeonhole(3);  // 12 variables
  ASSERT_LE(cnf.vars, 14u);
  ASSERT_FALSE(brute_force_sat(cnf));
  sat::Solver solver;
  EXPECT_EQ(solve_cnf(solver, cnf, 2), sat::Result::kUnknown);
  EXPECT_EQ(solver.conflicts(), 2u);
  EXPECT_EQ(solve_cnf(solver, cnf, 1u << 20), sat::Result::kUnsat);
  EXPECT_GT(solver.conflicts(), 2u);
}

TEST(Sat, EmptyAndUnitClauses) {
  sat::Solver solver;
  const auto x = solver.new_var();
  const auto y = solver.new_var();
  solver.add_clause({Lit::pos(x)});
  solver.add_clause({Lit::neg(x), Lit::pos(y)});
  solver.add_clause({Lit::pos(y), Lit::neg(y)});  // tautology, dropped
  ASSERT_EQ(solver.solve(10), sat::Result::kSat);
  EXPECT_TRUE(solver.model_value(x));
  EXPECT_TRUE(solver.model_value(y));
  solver.add_clause({Lit::neg(y)});
  EXPECT_EQ(solver.solve(10), sat::Result::kUnsat);
  EXPECT_EQ(solver.conflicts(), 0u);
  solver.clear();
  solver.new_var();
  solver.add_clause(std::span<const Lit>{});
  EXPECT_EQ(solver.solve(10), sat::Result::kUnsat);
}

// ------------------------------------------------------ redundancy proofs

/// Every scan pattern of a circuit with at most 16 PIs + PPIs.
std::vector<faultsim::ScanPattern> every_pattern(const GateNetlist& n) {
  const std::size_t pis = n.inputs().size();
  const std::size_t width = pis + n.dffs().size();
  std::vector<faultsim::ScanPattern> patterns;
  for (std::uint32_t a = 0; a < (1u << width); ++a) {
    faultsim::ScanPattern p;
    p.pi = util::BitVector(pis);
    p.ppi = util::BitVector(n.dffs().size());
    for (std::size_t b = 0; b < width; ++b) {
      const bool bit = ((a >> b) & 1u) != 0;
      if (b < pis) {
        p.pi.set(b, bit);
      } else {
        p.ppi.set(b - pis, bit);
      }
    }
    patterns.push_back(std::move(p));
  }
  return patterns;
}

bool pattern_detects(faultsim::ScanFaultSim& sim, const Fault& fault,
                     const faultsim::ScanPattern& pattern) {
  return sim.good_response(pattern) != sim.faulty_response(fault, pattern);
}

TEST(Miter, VerdictsMatchExhaustiveSimulationOnRandomLogic) {
  unsigned redundant = 0, testable = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const unsigned inputs = 4 + static_cast<unsigned>(seed % 9);
    const unsigned dffs = static_cast<unsigned>(seed % 4);
    const auto n = make_random_logic(seed, inputs, dffs, 40 + 4 * seed);
    ASSERT_LE(n.inputs().size() + n.dffs().size(), 16u);
    const auto faults = faultsim::enumerate_faults(n);
    std::vector<FaultStatus> statuses(faults.size(), FaultStatus::kUndetected);
    faultsim::ScanFaultSim sim(n);
    sim.run(faults, every_pattern(n), statuses);

    MiterScratch scratch(n);
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      const std::string what =
          "seed " + std::to_string(seed) + " " + describe_fault(n, faults[fi]);
      const ProofResult proof =
          prove_untestable(n, faults[fi], scratch, 1u << 20);
      ASSERT_NE(proof.result, sat::Result::kUnknown) << what;
      if (proof.result == sat::Result::kUnsat) {
        EXPECT_EQ(statuses[fi], FaultStatus::kUndetected) << what;
        ++redundant;
      } else {
        EXPECT_EQ(statuses[fi], FaultStatus::kDetected) << what;
        EXPECT_TRUE(pattern_detects(sim, faults[fi], scratch.model_pattern()))
            << what;
        ++testable;
      }
    }
  }
  EXPECT_GT(redundant, 20u);
  EXPECT_GT(testable, 1000u);
}

TEST(Miter, ActivePathSurvivesCancellingReconvergence) {
  // a fans out to n1 = NOT(a) and to d = AND(n1, a): d is 0 in both
  // machines whatever a is, so a difference on n1 never reaches d.
  // a s-a-0 is still tested at z = AND(a, b) by a = b = 1.  Requiring
  // every differing unobserved gate (n1) to have a differing fanout
  // would forbid that test and call the fault redundant; the
  // sensitized-path variables only follow the path a -> z.
  GateNetlist n("cancel");
  auto a = n.add_input("a");
  auto b = n.add_input("b");
  auto n1 = n.add_gate(GateKind::kNot, {a}, "n1");
  auto d = n.add_gate(GateKind::kAnd, {n1, a}, "d");
  auto z = n.add_gate(GateKind::kAnd, {a, b}, "z");
  n.mark_output(d);
  n.mark_output(z);

  MiterScratch scratch(n);
  const Fault fault{a, -1, false};
  const ProofResult proof = prove_untestable(n, fault, scratch, 100);
  ASSERT_EQ(proof.result, sat::Result::kSat);
  faultsim::ScanFaultSim sim(n);
  const auto pattern = scratch.model_pattern();
  EXPECT_TRUE(pattern.pi.get(0));
  EXPECT_TRUE(pattern.pi.get(1));
  EXPECT_TRUE(pattern_detects(sim, fault, pattern));
  // The same structure also carries a truly redundant fault: d's output
  // is constant 0, so d s-a-0 cannot be tested.
  EXPECT_EQ(prove_untestable(n, Fault{d, -1, false}, scratch, 100).result,
            sat::Result::kUnsat);
}

TEST(Miter, UnobservableConeIsRedundantWithoutSearch) {
  GateNetlist n("dangling");
  auto a = n.add_input("a");
  auto b = n.add_input("b");
  auto dead = n.add_gate(GateKind::kOr, {a, b}, "dead");  // drives nothing
  n.mark_output(n.add_gate(GateKind::kXor, {a, b}, "z"));
  MiterScratch scratch(n);
  const ProofResult proof =
      prove_untestable(n, Fault{dead, -1, true}, scratch, 100);
  EXPECT_EQ(proof.result, sat::Result::kUnsat);
  EXPECT_EQ(proof.conflicts, 0u);
  GateNetlist other("other");
  other.mark_output(other.add_input("a"));
  EXPECT_THROW(prove_untestable(other, Fault{GateId(0), -1, true}, scratch, 1),
               util::Error);
  EXPECT_THROW(prove_untestable(n, Fault{dead, 2, false}, scratch, 1),
               util::Error);
}

// ------------------------------------------------------------- ATPG driver

TEST(Atpg, FullCoverageOnIrredundantCircuit) {
  GateNetlist n("c");
  auto a = n.add_input("a");
  auto b = n.add_input("b");
  auto c = n.add_input("c");
  auto g1 = n.add_gate(GateKind::kNand, {a, b}, "g1");
  auto g2 = n.add_gate(GateKind::kNor, {b, c}, "g2");
  auto z = n.add_gate(GateKind::kXor, {g1, g2}, "z");
  n.mark_output(z);

  auto result = generate_tests(n, {.random_patterns = 8, .seed = 3});
  auto cov = result.coverage();
  EXPECT_DOUBLE_EQ(cov.fault_coverage(), 100.0);
  EXPECT_DOUBLE_EQ(cov.test_efficiency(), 100.0);
  EXPECT_GT(result.vector_count(), 0u);
}

TEST(Atpg, RedundantFaultRaisesEfficiencyNotCoverage) {
  GateNetlist n("red");
  auto a = n.add_input("a");
  auto b = n.add_input("b");
  auto g1 = n.add_gate(GateKind::kAnd, {a, b}, "g1");
  auto z = n.add_gate(GateKind::kOr, {a, g1}, "z");
  n.mark_output(z);

  auto result = generate_tests(n, {.random_patterns = 8, .seed = 3});
  auto cov = result.coverage();
  EXPECT_LT(cov.fault_coverage(), 100.0);
  EXPECT_DOUBLE_EQ(cov.test_efficiency(), 100.0);
  EXPECT_GT(cov.untestable, 0u);
}

TEST(Atpg, GradePatternsMatchesGeneratedCoverage) {
  GateNetlist n("c");
  auto a = n.add_input("a");
  auto b = n.add_input("b");
  auto z = n.add_gate(GateKind::kXor, {a, b}, "z");
  n.mark_output(z);

  auto result = generate_tests(n, {.random_patterns = 4, .seed = 9});
  auto graded = grade_patterns(n, result.patterns);
  EXPECT_EQ(graded.detected, result.coverage().detected);
}

TEST(Atpg, ElaboratedRtlCoreReachesHighCoverage) {
  // A small datapath core: register + adder + mux, full-scan view.
  rtl::Netlist core("mini");
  auto in = core.add_input("IN", 4);
  auto out = core.add_output("OUT", 4);
  auto acc = core.add_register("ACC", 4);
  auto ld = core.add_input("LD", 1, rtl::PortKind::kControl);
  auto add = core.add_fu("ADD", rtl::FuKind::kAdd, 4, 2);
  auto m = core.add_mux("M", 4, 2);
  auto sel = core.add_input("SEL", 1, rtl::PortKind::kControl);
  core.connect(core.pin(in), core.fu_in(add, 0));
  core.connect(core.reg_q(acc), core.fu_in(add, 1));
  core.connect(core.fu_out(add), core.mux_in(m, 0));
  core.connect(core.pin(in), core.mux_in(m, 1));
  core.connect(core.pin(sel), core.mux_select(m));
  core.connect(core.mux_out(m), core.reg_d(acc));
  core.connect(core.pin(ld), core.reg_load(acc));
  core.connect(core.reg_q(acc), core.pin(out));
  core.validate();

  auto elab = synth::elaborate(core);
  auto result = generate_tests(elab.gates, {.random_patterns = 32, .seed = 1});
  auto cov = result.coverage();
  EXPECT_GT(cov.fault_coverage(), 95.0);
  EXPECT_GT(cov.test_efficiency(), 99.0);
}

TEST(Atpg, DeterministicAcrossRuns) {
  GateNetlist n("c");
  auto a = n.add_input("a");
  auto b = n.add_input("b");
  auto z = n.add_gate(GateKind::kNand, {a, b}, "z");
  n.mark_output(z);
  auto r1 = generate_tests(n, {.seed = 5});
  auto r2 = generate_tests(n, {.seed = 5});
  EXPECT_EQ(r1.vector_count(), r2.vector_count());
  for (std::size_t i = 0; i < r1.patterns.size(); ++i) {
    EXPECT_EQ(r1.patterns[i].pi, r2.patterns[i].pi);
  }
}

// --------------------------------------------------- sequential baselines

TEST(Atpg, SequentialCoverageIsLowWithoutDft) {
  // Deep counter: random functional vectors reach little of the state
  // space, so coverage stays far below scan-based testing.
  rtl::Netlist core("ctr");
  auto en = core.add_input("EN", 1, rtl::PortKind::kControl);
  auto out = core.add_output("OUT", 1);
  auto cnt = core.add_register("CNT", 12);
  auto inc = core.add_fu("INC", rtl::FuKind::kIncrement, 12, 1);
  auto top = core.add_fu("TOP", rtl::FuKind::kEqual, 12, 2);
  auto k = core.add_constant("KMAX", util::BitVector(12, 0xFFF));
  core.connect(core.reg_q(cnt), core.fu_in(inc, 0));
  core.connect(core.fu_out(inc), core.reg_d(cnt));
  core.connect(core.pin(en), core.reg_load(cnt));
  core.connect(core.reg_q(cnt), core.fu_in(top, 0));
  core.connect(core.const_out(k), core.fu_in(top, 1));
  core.connect(core.fu_out(top), core.pin(out));

  auto elab = synth::elaborate(core);
  auto seq = sequential_coverage(elab.gates, 64, 7);
  auto scan = generate_tests(elab.gates, {.random_patterns = 32}).coverage();
  EXPECT_LT(seq.fault_coverage(), scan.fault_coverage());
  EXPECT_LT(seq.fault_coverage(), 60.0);
}

TEST(Atpg, RandomSequenceShapeAndDeterminism) {
  GateNetlist n("c");
  n.add_input("a");
  n.add_input("b");
  auto s1 = random_sequence(n, 10, 3);
  auto s2 = random_sequence(n, 10, 3);
  ASSERT_EQ(s1.size(), 10u);
  EXPECT_EQ(s1[0].width(), 2u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(s1[i], s2[i]);
}


// ----------------------------------------------------- System 1 goldens

/// FNV-1a 64 over the pattern bits, PI bits then PPI bits, one byte each.
std::uint64_t pattern_digest(
    const std::vector<faultsim::ScanPattern>& patterns) {
  std::uint64_t h = 14695981039346656037ull;
  auto feed = [&h](const util::BitVector& bits) {
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

TEST(AtpgGolden, System1CoresKeepPatternsAndProveAbortsRedundant) {
  // Derived before redundancy proofs existed, when these cores ended
  // with 13-15 (CPU), 48 (PREPROCESSOR) and 133-135 (DISPLAY) aborted
  // faults.  The proofs may only turn aborted faults into untestable
  // ones: patterns and detections stay exactly as they were.
  struct Golden {
    const char* core;
    std::uint64_t seed;
    std::uint64_t digest;
    std::size_t patterns;
    std::size_t detected;
    std::size_t untestable_or_aborted;
  };
  static constexpr Golden kGoldens[] = {
      {"CPU", 1, 0x709e995d61e509c1ull, 168, 15482, 96 + 13},
      {"CPU", 2, 0x883528321d91413bull, 166, 15480, 96 + 15},
      {"CPU", 3, 0x9a1bd4dd55dc0033ull, 168, 15481, 96 + 14},
      {"PREPROCESSOR", 1, 0x7f3adcbdedafece7ull, 81, 12354, 106 + 48},
      {"PREPROCESSOR", 2, 0xc19f525857cad0bcull, 79, 12354, 106 + 48},
      {"PREPROCESSOR", 3, 0x462ab414caf8a40eull, 79, 12354, 106 + 48},
      {"DISPLAY", 1, 0x7b5fe567db944ba1ull, 82, 8259, 33 + 135},
      {"DISPLAY", 2, 0x8893c7407135e8afull, 83, 8260, 33 + 134},
      {"DISPLAY", 3, 0x910979d927200d15ull, 81, 8261, 33 + 133},
  };
  auto system = systems::make_barcode_system();
  for (const char* name : {"CPU", "PREPROCESSOR", "DISPLAY"}) {
    const auto elab = synth::elaborate(system.core_named(name).netlist());
    for (const Golden& golden : kGoldens) {
      if (std::string(golden.core) != name) continue;
      const std::string what =
          std::string(name) + " seed " + std::to_string(golden.seed);
      const auto result = generate_tests(elab.gates, {.seed = golden.seed});
      const auto coverage = result.coverage();
      EXPECT_EQ(pattern_digest(result.patterns), golden.digest) << what;
      EXPECT_EQ(result.patterns.size(), golden.patterns) << what;
      EXPECT_EQ(coverage.detected, golden.detected) << what;
      EXPECT_EQ(coverage.untestable + coverage.aborted,
                golden.untestable_or_aborted)
          << what;
      EXPECT_LE(coverage.aborted, 5u) << what;
    }
  }
}

TEST(AtpgTrace, GenerateTestsNamesItsPhases) {
  GateNetlist n("red");
  auto a = n.add_input("a");
  auto b = n.add_input("b");
  auto g1 = n.add_gate(GateKind::kAnd, {a, b}, "g1");
  n.mark_output(n.add_gate(GateKind::kOr, {a, g1}, "z"));

  obs::reset_trace();
  obs::set_trace_enabled(true);
  generate_tests(n, {.random_patterns = 8, .seed = 3});
  obs::set_trace_enabled(false);
  const auto spans = obs::recorded_spans();
  obs::reset_trace();
  std::uint64_t root = 0;
  for (const auto& span : spans) {
    if (span.name == "atpg/generate_tests") root = span.id;
  }
  ASSERT_NE(root, 0u);
  std::vector<std::string> children;
  for (const auto& span : spans) {
    if (span.parent == root) children.push_back(span.name);
  }
  const std::vector<std::string> want = {
      "atpg/random", "atpg/podem_pass1", "atpg/prove_redundant",
      "atpg/podem_pass2", "atpg/regrade"};
  EXPECT_EQ(children, want);
}

TEST(AtpgTrace, ProofCountersAddUp) {
  auto system = systems::make_barcode_system();
  const auto elab = synth::elaborate(system.core_named("DISPLAY").netlist());
  obs::set_metrics_enabled(true);
  auto& checks = obs::counter("atpg/sat_checks");
  auto& untestable = obs::counter("atpg/sat_untestable");
  auto& conflicts = obs::counter("atpg/sat_conflicts");
  const auto checks0 = checks.value();
  const auto untestable0 = untestable.value();
  const auto conflicts0 = conflicts.value();
  const auto result = generate_tests(elab.gates, {.seed = 1});
  obs::set_metrics_enabled(false);
  // Without the proofs DISPLAY ended with 135 aborted faults, every one
  // of them a pass-1 abort; nearly all are redundant.
  EXPECT_GE(checks.value() - checks0, 135u);
  EXPECT_GE(untestable.value() - untestable0, 130u);
  EXPECT_LE(untestable.value() - untestable0, checks.value() - checks0);
  EXPECT_GT(conflicts.value() - conflicts0, 0u);
  EXPECT_LE(result.coverage().aborted, 5u);
}

}  // namespace
}  // namespace socet::atpg
