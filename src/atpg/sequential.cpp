#include "socet/atpg/sequential.hpp"

#include <algorithm>

#include "socet/obs/metrics.hpp"

namespace socet::atpg {

namespace {

using faultsim::Fault;
using faultsim::FaultStatus;
using gate::GateId;
using gate::GateKind;

}  // namespace

UnrolledCircuit unroll(const gate::GateNetlist& sequential, unsigned frames) {
  util::require(frames >= 1, "unroll: need at least one frame");
  UnrolledCircuit out;
  out.netlist = gate::GateNetlist(sequential.name() + ".x" +
                                  std::to_string(frames));
  out.frames = frames;
  out.frame_map.assign(frames, std::vector<GateId>(sequential.gate_count()));
  out.pi_map.assign(frames, {});

  GateId const0;
  bool have_const0 = false;
  auto zero = [&]() {
    if (!have_const0) {
      const0 = out.netlist.add_gate(GateKind::kConst0, {}, "reset0");
      have_const0 = true;
    }
    return const0;
  };

  const auto& order = sequential.topo_order();
  for (unsigned f = 0; f < frames; ++f) {
    auto& map = out.frame_map[f];
    for (GateId id : order) {
      const auto& g = sequential.gate(id);
      switch (g.kind) {
        case GateKind::kInput: {
          map[id.index()] =
              out.netlist.add_input(g.name + "@" + std::to_string(f));
          break;
        }
        case GateKind::kDff: {
          // Frame 0 reads the reset state; later frames read the previous
          // frame's D value.  An explicit BUF keeps the flip-flop's output
          // a distinct line so its stem faults map onto exactly one site
          // per frame (aliasing the driver would corrupt the previous
          // frame's own readers of that driver).
          const GateId src =
              f == 0 ? zero() : out.frame_map[f - 1][g.fanin[0].index()];
          map[id.index()] =
              out.netlist.add_gate(GateKind::kBuf, {src}, g.name);
          break;
        }
        default: {
          std::vector<GateId> fanin;
          fanin.reserve(g.fanin.size());
          for (GateId src : g.fanin) fanin.push_back(map[src.index()]);
          map[id.index()] =
              out.netlist.add_gate(g.kind, std::move(fanin), g.name);
          break;
        }
      }
    }
    for (GateId po : sequential.outputs()) {
      out.netlist.mark_output(map[po.index()]);
    }
    // pi_map is indexed by the *original* input position (topo order may
    // visit sources in any order, so record the correspondence explicitly).
    for (GateId original : sequential.inputs()) {
      out.pi_map[f].push_back(map[original.index()]);
    }
  }
  return out;
}

std::vector<Fault> map_fault(const UnrolledCircuit& unrolled,
                             const Fault& fault) {
  std::vector<Fault> sites;
  for (unsigned f = 0; f < unrolled.frames; ++f) {
    const GateId mapped = unrolled.frame_map[f][fault.gate.index()];
    // DFF sites alias an earlier frame's gate (or the reset constant) —
    // a stem fault there is a stem fault on the aliased gate, which an
    // earlier frame's site already covers; skip duplicates and constants.
    const auto kind = unrolled.netlist.gate(mapped).kind;
    if (kind == GateKind::kConst0 || kind == GateKind::kConst1) continue;
    bool duplicate = false;
    for (const Fault& existing : sites) duplicate |= existing.gate == mapped;
    if (duplicate) continue;
    sites.push_back(Fault{mapped, fault.pin, fault.stuck_at});
  }
  return sites;
}

SeqAtpgResult sequential_atpg(const gate::GateNetlist& netlist,
                              const SeqAtpgOptions& options) {
  SeqAtpgResult result;
  result.faults = faultsim::enumerate_faults(netlist);
  result.statuses.assign(result.faults.size(), FaultStatus::kUndetected);

  faultsim::SequentialFaultSim sim(netlist);

  // Phase 1: one random sequence from reset (kept if useful).
  util::Rng rng(options.seed);
  if (options.random_cycles > 0) {
    std::vector<util::BitVector> sequence;
    for (unsigned c = 0; c < options.random_cycles; ++c) {
      sequence.push_back(
          util::BitVector::random(netlist.inputs().size(), rng));
    }
    const auto before = faultsim::summarize(result.statuses).detected;
    sim.run(result.faults, sequence, result.statuses);
    if (faultsim::summarize(result.statuses).detected > before) {
      result.sequences.push_back(std::move(sequence));
    }
  }

  // Phase 2: time-frame PODEM with growing horizons.
  std::vector<unsigned> horizons;
  for (unsigned k = 1; k <= options.max_frames; k *= 2) horizons.push_back(k);
  if (horizons.empty() || horizons.back() != options.max_frames) {
    horizons.push_back(options.max_frames);
  }

  for (unsigned k : horizons) {
    const UnrolledCircuit unrolled = unroll(netlist, k);
    PodemOptions podem_options;
    podem_options.backtrack_limit = options.backtrack_limit;

    // Pattern bits are indexed by the unrolled circuit's inputs() order;
    // map each unrolled input gate back to its bit position.
    std::vector<std::size_t> bit_of(unrolled.netlist.gate_count(), 0);
    for (std::size_t p = 0; p < unrolled.netlist.inputs().size(); ++p) {
      bit_of[unrolled.netlist.inputs()[p].index()] = p;
    }

    for (std::size_t fi = 0; fi < result.faults.size(); ++fi) {
      if (result.statuses[fi] != FaultStatus::kUndetected) continue;
      const auto sites = map_fault(unrolled, result.faults[fi]);
      if (sites.empty()) continue;  // fault site vanished (reset constant)
      PodemResult pr = podem_multi(unrolled.netlist, sites, podem_options);
      SOCET_COUNT_N("atpg/implications", pr.implications);
      SOCET_COUNT_N("atpg/imply_gate_evals", pr.gate_evals);
      if (pr.outcome != PodemResult::Outcome::kFound) continue;

      // Decode the per-frame input assignment into a cycle sequence.
      std::vector<util::BitVector> sequence(
          k, util::BitVector(netlist.inputs().size()));
      for (unsigned f = 0; f < k; ++f) {
        for (std::size_t i = 0; i < unrolled.pi_map[f].size(); ++i) {
          sequence[f].set(
              i, pr.pattern.pi.get(bit_of[unrolled.pi_map[f][i].index()]));
        }
      }
      // Independent verification + dropping through the sequential
      // simulator; only verified sequences are kept.
      const auto before = result.statuses[fi];
      sim.run(result.faults, sequence, result.statuses);
      if (result.statuses[fi] == FaultStatus::kDetected) {
        result.sequences.push_back(std::move(sequence));
      } else {
        result.statuses[fi] = before;  // defensive; should not happen
      }
    }
  }

  // Bounded horizons cannot prove redundancy: leftovers are aborted.
  for (auto& status : result.statuses) {
    if (status == FaultStatus::kUndetected) status = FaultStatus::kAborted;
  }
  return result;
}

}  // namespace socet::atpg
