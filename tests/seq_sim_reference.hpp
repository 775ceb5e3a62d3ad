// The sequential fault simulator that src/faultsim/seq_sim.cpp replaced,
// kept verbatim as a differential oracle: 63 faulty machines plus the
// good machine per 64-bit word, one fault group at a time, every gate
// re-evaluated through its `Gate::fanin` vector on every cycle, and no
// fault dropping before the sequence ends.  Two-valued simulation from
// reset is exact, so the production engine must produce the same
// statuses whatever its packing order or group count.
#pragma once

#include <algorithm>
#include <vector>

#include "socet/faultsim/faults.hpp"
#include "socet/util/bitvector.hpp"
#include "socet/util/error.hpp"

namespace socet::faultsim::reference {

using gate::Gate;
using gate::GateId;
using gate::GateKind;

/// Faults injected on one gate for the current pass.
struct SiteFaults {
  /// Machine mask and forced value for output-stem faults.
  std::uint64_t stem_mask = 0;
  std::uint64_t stem_value = 0;
  /// Input-pin faults need per-machine scalar fix-up.
  struct PinFault {
    std::uint64_t machine_bit;
    std::int32_t pin;
    bool stuck_at;
  };
  std::vector<PinFault> pins;
};

inline std::uint64_t eval_gate_scalar(const Gate& g, std::uint64_t machine_bit,
                                      const std::vector<std::uint64_t>& values,
                                      std::int32_t forced_pin,
                                      bool forced_value) {
  auto in = [&](std::size_t p) -> bool {
    if (static_cast<std::int32_t>(p) == forced_pin) return forced_value;
    return (values[g.fanin[p].index()] & machine_bit) != 0;
  };
  bool v = false;
  switch (g.kind) {
    case GateKind::kBuf:
      v = in(0);
      break;
    case GateKind::kNot:
      v = !in(0);
      break;
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
    case GateKind::kXor:
      v = in(0) != in(1);
      break;
    case GateKind::kXnor:
      v = in(0) == in(1);
      break;
    default:
      // Inputs and constants have no input pins, and DFF D-pin faults
      // are applied at capture, never here.  Returning a value would
      // silently force the faulty machine to 0 (the seed did exactly
      // that); fail loudly instead.
      util::raise(
          "eval_gate_scalar: pin fault on a gate without evaluable input "
          "pins (input/constant)");
  }
  return v ? machine_bit : 0;
}

class SequentialFaultSim {
 public:
  explicit SequentialFaultSim(const gate::GateNetlist& netlist)
      : netlist_(netlist) {}

  void run(const std::vector<Fault>& faults,
           const std::vector<util::BitVector>& sequence,
           std::vector<FaultStatus>& statuses);

 private:
  const gate::GateNetlist& netlist_;
};

inline void SequentialFaultSim::run(
    const std::vector<Fault>& faults,
    const std::vector<util::BitVector>& sequence,
    std::vector<FaultStatus>& statuses) {
  util::require(statuses.size() == faults.size(),
                "SequentialFaultSim::run: status vector size mismatch");
  const auto& inputs = netlist_.inputs();
  const auto& dffs = netlist_.dffs();
  const auto& order = netlist_.topo_order();
  const std::size_t n = netlist_.gate_count();

  // Scratch shared by every group pass (hoisted: allocating gate_count
  // sized vectors per 63-fault group dominated small-circuit runs).
  std::vector<SiteFaults> site(n);
  std::vector<char> has_fault(n, 0);
  std::vector<std::uint64_t> values(n, 0);
  std::vector<std::uint64_t> state(dffs.size(), 0);
  std::vector<std::size_t> faulted_gates;  ///< site/has_fault reset list

  // Process faults in groups of up to 63 (bit 0 = good machine).
  std::vector<std::size_t> group;
  std::size_t next_fault = 0;
  while (next_fault < faults.size() || !group.empty()) {
    group.clear();
    while (next_fault < faults.size() && group.size() < 63) {
      if (statuses[next_fault] == FaultStatus::kUndetected) {
        group.push_back(next_fault);
      }
      ++next_fault;
    }
    if (group.empty()) break;

    // Per-gate fault tables for this pass (clearing only last pass's
    // entries instead of reallocating the whole table).
    for (std::size_t idx : faulted_gates) {
      site[idx].stem_mask = 0;
      site[idx].stem_value = 0;
      site[idx].pins.clear();
      has_fault[idx] = 0;
    }
    faulted_gates.clear();
    for (std::size_t m = 0; m < group.size(); ++m) {
      const Fault& f = faults[group[m]];
      const std::uint64_t machine_bit = 1ULL << (m + 1);
      auto& s = site[f.gate.index()];
      if (!has_fault[f.gate.index()]) {
        has_fault[f.gate.index()] = 1;
        faulted_gates.push_back(f.gate.index());
      }
      if (f.pin < 0) {
        s.stem_mask |= machine_bit;
        if (f.stuck_at) s.stem_value |= machine_bit;
      } else {
        s.pins.push_back(SiteFaults::PinFault{machine_bit, f.pin, f.stuck_at});
      }
    }

    std::fill(state.begin(), state.end(), 0);
    std::uint64_t detected = 0;

    auto apply_site = [&](GateId id, std::uint64_t v) -> std::uint64_t {
      const SiteFaults& s = site[id.index()];
      v = (v & ~s.stem_mask) | (s.stem_value & s.stem_mask);
      const Gate& g = netlist_.gate(id);
      if (g.kind == GateKind::kDff) {
        // A DFF D-pin fault (uncollapsed lists only) changes what the
        // flop *captures*, handled in the capture loop below; the Q
        // value this cycle is the stored state, untouched by the pin.
        return v;
      }
      for (const auto& pf : s.pins) {
        v = (v & ~pf.machine_bit) |
            eval_gate_scalar(g, pf.machine_bit, values, pf.pin, pf.stuck_at);
      }
      return v;
    };

    for (const auto& vector : sequence) {
      // Drive PIs (same pattern for all machines) and DFF state.
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        std::uint64_t v = vector.get(i) ? ~0ULL : 0;
        if (has_fault[inputs[i].index()]) v = apply_site(inputs[i], v);
        values[inputs[i].index()] = v;
      }
      for (std::size_t i = 0; i < dffs.size(); ++i) {
        std::uint64_t v = state[i];
        if (has_fault[dffs[i].index()]) v = apply_site(dffs[i], v);
        values[dffs[i].index()] = v;
      }

      // Topological evaluation with in-line fault injection.
      for (GateId id : order) {
        const Gate& g = netlist_.gate(id);
        std::uint64_t v;
        switch (g.kind) {
          case GateKind::kInput:
          case GateKind::kDff:
            continue;  // already loaded
          case GateKind::kConst0:
            v = 0;
            break;
          case GateKind::kConst1:
            v = ~0ULL;
            break;
          case GateKind::kBuf:
            v = values[g.fanin[0].index()];
            break;
          case GateKind::kNot:
            v = ~values[g.fanin[0].index()];
            break;
          case GateKind::kAnd:
          case GateKind::kNand:
            v = ~0ULL;
            for (GateId f : g.fanin) v &= values[f.index()];
            if (g.kind == GateKind::kNand) v = ~v;
            break;
          case GateKind::kOr:
          case GateKind::kNor:
            v = 0;
            for (GateId f : g.fanin) v |= values[f.index()];
            if (g.kind == GateKind::kNor) v = ~v;
            break;
          case GateKind::kXor:
            v = values[g.fanin[0].index()] ^ values[g.fanin[1].index()];
            break;
          case GateKind::kXnor:
            v = ~(values[g.fanin[0].index()] ^ values[g.fanin[1].index()]);
            break;
          default:
            v = 0;
        }
        if (has_fault[id.index()]) v = apply_site(id, v);
        values[id.index()] = v;
      }

      // Observe primary outputs.
      for (GateId po : netlist_.outputs()) {
        const std::uint64_t word = values[po.index()];
        const std::uint64_t good = (word & 1) ? ~0ULL : 0;
        detected |= word ^ good;
      }

      // Capture next state.  DFF input-pin faults (present only in
      // uncollapsed fault lists) force the captured bit directly.
      for (std::size_t i = 0; i < dffs.size(); ++i) {
        std::uint64_t v = values[netlist_.gate(dffs[i]).fanin[0].index()];
        for (const auto& pf : site[dffs[i].index()].pins) {
          v = (v & ~pf.machine_bit) | (pf.stuck_at ? pf.machine_bit : 0);
        }
        state[i] = v;
      }
    }

    for (std::size_t m = 0; m < group.size(); ++m) {
      if (detected & (1ULL << (m + 1))) {
        statuses[group[m]] = FaultStatus::kDetected;
      }
    }
  }
}

}  // namespace socet::faultsim::reference
