#include "socet/atpg/atpg.hpp"

#include <algorithm>
#include <optional>

#include "socet/atpg/miter.hpp"

#include "socet/obs/metrics.hpp"
#include "socet/obs/resource.hpp"
#include "socet/obs/trace.hpp"

namespace socet::atpg {

namespace {

using faultsim::Fault;
using faultsim::FaultStatus;
using faultsim::ParallelScanFaultSim;
using faultsim::ParallelSimOptions;
using faultsim::ScanFaultSim;
using faultsim::ScanPattern;

ParallelSimOptions sim_options(unsigned threads) {
  ParallelSimOptions o;
  o.threads = threads;  // 0 keeps the simulator's hardware-concurrency pick
  return o;
}

/// Pass 1's backtrack budget.
constexpr unsigned kPass1Backtracks = 24;
/// Conflicts one redundancy proof may spend before its fault goes to
/// pass 2.  Every redundant fault that pass 1 can abort on in System 1's
/// cores is proved within 68.
constexpr std::uint64_t kProofConflicts = 100;
/// Random patterns simulated against pass 1's aborts before any proof,
/// and their generator's seed offset.
constexpr unsigned kScreenPatterns = 256;
constexpr std::uint64_t kScreenSeed = 0x5C4EE7;

ScanPattern random_pattern(const gate::GateNetlist& netlist, util::Rng& rng) {
  ScanPattern p;
  p.pi = util::BitVector::random(netlist.inputs().size(), rng);
  p.ppi = util::BitVector::random(netlist.dffs().size(), rng);
  return p;
}

}  // namespace

AtpgResult generate_tests(const gate::GateNetlist& netlist,
                          const AtpgOptions& options) {
  SOCET_SPAN("atpg/generate_tests");
  SOCET_RESOURCE_SCOPE("atpg/generate_tests");
  AtpgResult result;
  result.faults = faultsim::enumerate_faults(netlist);
  result.statuses.assign(result.faults.size(), FaultStatus::kUndetected);

  util::Rng rng(options.seed);
  ParallelScanFaultSim sim(netlist, sim_options(options.sim_threads));

  // Phase 1: random patterns, kept only if they detect something new.
  {
    SOCET_SPAN("atpg/random");
    std::vector<ScanPattern> batch;
    for (unsigned i = 0; i < options.random_patterns; i += 16) {
      batch.clear();
      for (unsigned k = 0; k < 16 && i + k < options.random_patterns; ++k) {
        batch.push_back(random_pattern(netlist, rng));
      }
      auto before = faultsim::summarize(result.statuses).detected;
      sim.run(result.faults, batch, result.statuses);
      auto after = faultsim::summarize(result.statuses).detected;
      if (after > before) {
        SOCET_COUNT_N("atpg/random_patterns_kept", batch.size());
        result.patterns.insert(result.patterns.end(), batch.begin(),
                               batch.end());
      }
    }
  }

  // Phase 2: deterministic PODEM on every fault in `status`, with a
  // backtrack budget of `limit`.
  auto podem_pass = [&](FaultStatus status, unsigned limit) {
    PodemOptions podem_options;
    podem_options.backtrack_limit = limit;
    for (std::size_t fi = 0; fi < result.faults.size(); ++fi) {
      if (result.statuses[fi] != status) continue;
      PodemResult pr = podem(netlist, result.faults[fi], podem_options);
      SOCET_COUNT("atpg/podem_calls");
      SOCET_COUNT_N("atpg/backtracks", pr.backtracks);
      SOCET_COUNT_N("atpg/implications", pr.implications);
      SOCET_COUNT_N("atpg/imply_gate_evals", pr.gate_evals);
      switch (pr.outcome) {
        case PodemResult::Outcome::kUntestable:
          result.statuses[fi] = FaultStatus::kUntestable;
          break;
        case PodemResult::Outcome::kAborted:
          result.statuses[fi] = FaultStatus::kAborted;
          break;
        case PodemResult::Outcome::kFound: {
          result.statuses[fi] = FaultStatus::kUndetected;  // for the sim
          // Random-fill the don't-cares for incidental detection.
          for (std::size_t b = 0; b < pr.pi_dont_care.size(); ++b) {
            if (pr.pi_dont_care[b]) pr.pattern.pi.set(b, rng.next_bool());
          }
          for (std::size_t b = 0; b < pr.ppi_dont_care.size(); ++b) {
            if (pr.ppi_dont_care[b]) pr.pattern.ppi.set(b, rng.next_bool());
          }
          sim.run(result.faults, {pr.pattern}, result.statuses);
          SOCET_ASSERT(result.statuses[fi] == FaultStatus::kDetected,
                       "PODEM pattern failed to detect its target fault");
          result.patterns.push_back(std::move(pr.pattern));
          break;
        }
      }
    }
  };

  // A fail-fast pass first: most faults are easy, and fault dropping
  // thins the list.
  {
    SOCET_SPAN("atpg/podem_pass1");
    podem_pass(FaultStatus::kUndetected,
               std::min(options.backtrack_limit, kPass1Backtracks));
  }

  // Most faults pass 1 gives up on are redundant, which PODEM can prove
  // only by exhausting its decision tree.  A conflict-limited SAT miter
  // proves them in a few dozen conflicts.  A redundant fault can never be
  // detected and its pass-2 search would neither find a pattern nor draw
  // from the RNG, so skipping it leaves every pattern unchanged.
  {
    SOCET_SPAN("atpg/prove_redundant");
    // A fault some pattern detects is testable and needs no proof.
    // Random patterns from a generator of their own (the test set's RNG
    // stream is untouched) detect nearly every testable abort, so only
    // the likely redundant ones reach the solver.
    std::vector<FaultStatus> screen(result.statuses.size(),
                                    FaultStatus::kDetected);
    bool any = false;
    for (std::size_t fi = 0; fi < result.faults.size(); ++fi) {
      if (result.statuses[fi] == FaultStatus::kAborted) {
        screen[fi] = FaultStatus::kUndetected;
        any = true;
      }
    }
    if (any) {
      util::Rng screen_rng(options.seed ^ kScreenSeed);
      std::vector<ScanPattern> probes(kScreenPatterns);
      for (ScanPattern& p : probes) p = random_pattern(netlist, screen_rng);
      sim.run(result.faults, probes, screen);
    }
    std::optional<MiterScratch> scratch;
    for (std::size_t fi = 0; fi < result.faults.size(); ++fi) {
      if (screen[fi] != FaultStatus::kUndetected) continue;
      if (!scratch) scratch.emplace(netlist);
      const ProofResult proof = prove_untestable(
          netlist, result.faults[fi], *scratch, kProofConflicts);
      SOCET_COUNT("atpg/sat_checks");
      SOCET_COUNT_N("atpg/sat_conflicts", proof.conflicts);
      if (proof.result == sat::Result::kUnsat) {
        SOCET_COUNT("atpg/sat_untestable");
        result.statuses[fi] = FaultStatus::kUntestable;
      }
    }
  }

  // The patient pass on what is left.
  {
    SOCET_SPAN("atpg/podem_pass2");
    podem_pass(FaultStatus::kAborted, options.backtrack_limit);
  }

  // Final regrade: a fault that aborted early may still be detected
  // incidentally by patterns generated later (dropping skipped it once it
  // was marked).  One full-set simulation settles it.
  SOCET_SPAN("atpg/regrade");
  std::vector<std::size_t> aborted;
  for (std::size_t fi = 0; fi < result.faults.size(); ++fi) {
    if (result.statuses[fi] == FaultStatus::kAborted) {
      aborted.push_back(fi);
      result.statuses[fi] = FaultStatus::kUndetected;
    }
  }
  if (!aborted.empty()) {
    sim.run(result.faults, result.patterns, result.statuses);
    for (std::size_t fi : aborted) {
      if (result.statuses[fi] == FaultStatus::kUndetected) {
        result.statuses[fi] = FaultStatus::kAborted;
      }
    }
  }
  std::size_t aborted_final = 0;
  for (const FaultStatus status : result.statuses) {
    if (status == FaultStatus::kAborted) ++aborted_final;
  }
  SOCET_COUNT_N("atpg/aborted_faults", aborted_final);
  return result;
}

faultsim::CoverageSummary grade_patterns(
    const gate::GateNetlist& netlist,
    const std::vector<ScanPattern>& patterns, unsigned sim_threads) {
  SOCET_SPAN("atpg/grade");
  auto faults = faultsim::enumerate_faults(netlist);
  std::vector<FaultStatus> statuses(faults.size(), FaultStatus::kUndetected);
  ParallelScanFaultSim sim(netlist, sim_options(sim_threads));
  sim.run(faults, patterns, statuses);
  return faultsim::summarize(statuses);
}

std::vector<ScanPattern> compact_patterns(
    const gate::GateNetlist& netlist,
    const std::vector<ScanPattern>& patterns) {
  SOCET_SPAN("atpg/compact");
  // Reverse-order compaction with fault dropping keeps a pattern exactly
  // when it is some fault's first detection in reverse order.  So one
  // run over the reversed list, recording each fault's first detecting
  // pattern, finds every kept pattern at once.
  auto faults = faultsim::enumerate_faults(netlist);
  std::vector<FaultStatus> statuses(faults.size(), FaultStatus::kUndetected);
  const std::vector<ScanPattern> reversed(patterns.rbegin(), patterns.rend());
  std::vector<std::size_t> first_detect;
  ScanFaultSim sim(netlist);
  sim.run(faults, reversed, statuses, &first_detect);

  std::vector<bool> keep(patterns.size(), false);
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    if (statuses[fi] == FaultStatus::kDetected) {
      keep[patterns.size() - 1 - first_detect[fi]] = true;
    }
  }
  std::vector<ScanPattern> kept;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    if (keep[i]) kept.push_back(patterns[i]);
  }
  return kept;
}

std::vector<util::BitVector> random_sequence(const gate::GateNetlist& netlist,
                                             std::size_t cycles,
                                             std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<util::BitVector> sequence;
  sequence.reserve(cycles);
  for (std::size_t c = 0; c < cycles; ++c) {
    sequence.push_back(
        util::BitVector::random(netlist.inputs().size(), rng));
  }
  return sequence;
}

faultsim::CoverageSummary sequential_coverage(const gate::GateNetlist& netlist,
                                              std::size_t cycles,
                                              std::uint64_t seed) {
  auto faults = faultsim::enumerate_faults(netlist);
  std::vector<FaultStatus> statuses(faults.size(), FaultStatus::kUndetected);
  faultsim::SequentialFaultSim sim(netlist);
  sim.run(faults, random_sequence(netlist, cycles, seed), statuses);
  return faultsim::summarize(statuses);
}

}  // namespace socet::atpg
