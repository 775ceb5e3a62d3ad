#include "socet/faultsim/seq_sim.hpp"

#include <algorithm>
#include <bit>

#include "socet/obs/metrics.hpp"
#include "socet/obs/trace.hpp"
#include "socet/util/error.hpp"

namespace socet::faultsim {

namespace {

using gate::GateId;
using gate::GateKind;

/// Faulty machines per group: every bit of a word but the good machine's.
constexpr unsigned kMachines = Lane<8>::kPatterns - 1;

/// Calls `f(machine)` for every set bit of `mask`, in ascending order.
template <typename F>
void for_each_machine(const Lane<8>& mask, F&& f) {
  for (unsigned w = 0; w < Lane<8>::kWords; ++w) {
    for (std::uint64_t bits = mask.w[w]; bits != 0; bits &= bits - 1) {
      f(64 * w + static_cast<unsigned>(std::countr_zero(bits)));
    }
  }
}

/// The lowest faulty-machine bit clear in `live`, or 0 if there is none.
unsigned free_machine(const Lane<8>& live) {
  for (unsigned w = 0; w < Lane<8>::kWords; ++w) {
    std::uint64_t free = ~live.w[w];
    if (w == 0) free &= ~1ULL;  // the good machine
    if (free != 0) {
      return 64 * w + static_cast<unsigned>(std::countr_zero(free));
    }
  }
  return 0;
}

unsigned count(const Lane<8>& mask) {
  unsigned n = 0;
  for (std::uint64_t word : mask.w) {
    n += static_cast<unsigned>(std::popcount(word));
  }
  return n;
}

}  // namespace

/// Up to kMachines faults simulated together.  The combinational values
/// are recomputed every cycle, so a group owns only its flip-flop state.
struct SequentialFaultSim::Group {
  /// A stem fault, or a pin fault on a combinational gate.
  struct Site {
    std::uint32_t pos;
    std::int32_t pin;
    std::uint16_t machine;
    bool stuck_at;
  };
  /// A DFF D-pin fault: it forces what the flop captures.
  struct DPin {
    std::uint32_t slot;
    std::uint16_t machine;
    bool stuck_at;
  };

  std::vector<std::uint32_t> fault;  ///< fault[m]: machine m's fault
  std::vector<Site> sites;           ///< ascending position
  std::vector<DPin> d_pins;
  std::vector<Word> state;           ///< one word per state slot
  Word live = Word::zero();          ///< machines not yet detected
  bool reindex = false;              ///< sites lag behind `live`
};

SequentialFaultSim::SequentialFaultSim(const gate::GateNetlist& netlist) {
  const auto& order = netlist.topo_order();
  const std::size_t n = order.size();
  pos_of_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos_of_[order[i].index()] = static_cast<std::uint32_t>(i);
  }
  kind_.resize(n);
  fanin_begin_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const gate::Gate& g = netlist.gate(order[i]);
    kind_[i] = g.kind;
    for (GateId f : g.fanin) fanin_.push_back(pos_of_[f.index()]);
    fanin_begin_[i + 1] = static_cast<std::uint32_t>(fanin_.size());
  }
  for (GateId id : netlist.inputs()) input_pos_.push_back(pos_of_[id.index()]);
  for (GateId id : netlist.dffs()) dff_pos_.push_back(pos_of_[id.index()]);
  std::sort(dff_pos_.begin(), dff_pos_.end());
  for (std::uint32_t pos : dff_pos_) {
    d_pos_.push_back(fanin_[fanin_begin_[pos]]);
  }
  for (GateId id : netlist.outputs()) po_pos_.push_back(pos_of_[id.index()]);
  values_.assign(n, Word::zero());
  pi_.assign(input_pos_.size(), Word::zero());
}

void SequentialFaultSim::validate(
    const std::vector<Fault>& faults,
    const std::vector<util::BitVector>& sequence) const {
  for (const Fault& f : faults) {
    util::require(f.gate.index() < pos_of_.size(),
                  "SequentialFaultSim::run: fault on a gate outside the "
                  "netlist");
    if (f.pin < 0) continue;
    const std::uint32_t pos = pos_of_[f.gate.index()];
    // Inputs and constants have no input pins; forcing such a machine to
    // some value would silently invent a fault, so fail loudly instead.
    if (kind_[pos] == GateKind::kInput || kind_[pos] == GateKind::kConst0 ||
        kind_[pos] == GateKind::kConst1) {
      util::raise(
          "SequentialFaultSim::run: pin fault on a gate without evaluable "
          "input pins (input/constant)");
    }
    const std::uint32_t arity = fanin_begin_[pos + 1] - fanin_begin_[pos];
    util::require(
        static_cast<std::uint32_t>(f.pin) < arity,
        "SequentialFaultSim::run: pin fault on a pin the gate does not have");
  }
  for (const auto& vector : sequence) {
    util::require(vector.width() >= input_pos_.size(),
                  "SequentialFaultSim::run: vector narrower than the "
                  "primary inputs");
  }
}

void SequentialFaultSim::index_sites(Group& group,
                                     const std::vector<Fault>& faults) const {
  group.sites.clear();
  group.d_pins.clear();
  for_each_machine(group.live, [&](unsigned m) {
    const Fault& f = faults[group.fault[m]];
    const std::uint32_t pos = pos_of_[f.gate.index()];
    const auto machine = static_cast<std::uint16_t>(m);
    if (f.pin >= 0 && kind_[pos] == GateKind::kDff) {
      const auto slot = static_cast<std::uint32_t>(
          std::lower_bound(dff_pos_.begin(), dff_pos_.end(), pos) -
          dff_pos_.begin());
      group.d_pins.push_back({slot, machine, f.stuck_at});
    } else {
      group.sites.push_back({pos, f.pin, machine, f.stuck_at});
    }
  });
  std::sort(group.sites.begin(), group.sites.end(),
            [](const Group::Site& a, const Group::Site& b) {
              return a.pos < b.pos;
            });
}

bool SequentialFaultSim::eval_pin_fault(std::uint32_t pos, unsigned machine,
                                        std::int32_t pin,
                                        bool stuck_at) const {
  const std::uint32_t* fanin = fanin_.data() + fanin_begin_[pos];
  const std::uint32_t arity = fanin_begin_[pos + 1] - fanin_begin_[pos];
  auto in = [&](std::uint32_t p) -> bool {
    if (static_cast<std::int32_t>(p) == pin) return stuck_at;
    return values_[fanin[p]].bit(machine);
  };
  bool v = false;
  switch (kind_[pos]) {
    case GateKind::kBuf:
      return in(0);
    case GateKind::kNot:
      return !in(0);
    case GateKind::kAnd:
    case GateKind::kNand:
      v = true;
      for (std::uint32_t p = 0; p < arity; ++p) v = v && in(p);
      return kind_[pos] == GateKind::kNand ? !v : v;
    case GateKind::kOr:
    case GateKind::kNor:
      for (std::uint32_t p = 0; p < arity; ++p) v = v || in(p);
      return kind_[pos] == GateKind::kNor ? !v : v;
    case GateKind::kXor:
      return in(0) != in(1);
    case GateKind::kXnor:
      return in(0) == in(1);
    default:
      // validate() admits pin faults on combinational gates and DFFs
      // only, and DFF D-pin faults are applied at capture.
      util::raise("SequentialFaultSim: pin fault on a non-combinational gate");
  }
}

SequentialFaultSim::Word SequentialFaultSim::step(Group& group) {
  Word* v = values_.data();
  for (std::size_t i = 0; i < input_pos_.size(); ++i) v[input_pos_[i]] = pi_[i];
  for (std::size_t s = 0; s < dff_pos_.size(); ++s) {
    v[dff_pos_[s]] = group.state[s];
  }

  // Levelized sweep over positions [from, to); sources are loaded above.
  auto settle = [&](std::uint32_t from, std::uint32_t to) {
    for (std::uint32_t i = from; i < to; ++i) {
      const std::uint32_t* f = fanin_.data() + fanin_begin_[i];
      const std::uint32_t* end = fanin_.data() + fanin_begin_[i + 1];
      Word r = Word::zero();
      switch (kind_[i]) {
        case GateKind::kInput:
        case GateKind::kDff:
          continue;
        case GateKind::kConst0:
          r = Word::zero();
          break;
        case GateKind::kConst1:
          r = Word::ones();
          break;
        case GateKind::kBuf:
          r = v[f[0]];
          break;
        case GateKind::kNot:
          r = ~v[f[0]];
          break;
        case GateKind::kAnd:
        case GateKind::kNand:
          r = v[*f];
          while (++f != end) r &= v[*f];
          if (kind_[i] == GateKind::kNand) r = ~r;
          break;
        case GateKind::kOr:
        case GateKind::kNor:
          r = v[*f];
          while (++f != end) r |= v[*f];
          if (kind_[i] == GateKind::kNor) r = ~r;
          break;
        case GateKind::kXor:
          r = v[f[0]] ^ v[f[1]];
          break;
        case GateKind::kXnor:
          r = ~(v[f[0]] ^ v[f[1]]);
          break;
      }
      v[i] = r;
    }
  };

  // Settle up to each fault site, then force its machines' bits.  A
  // machine carries exactly one fault, so the sites on one gate never
  // interfere.
  std::uint32_t next = 0;
  for (std::size_t k = 0; k < group.sites.size();) {
    const std::uint32_t pos = group.sites[k].pos;
    settle(next, pos + 1);
    next = pos + 1;
    for (; k < group.sites.size() && group.sites[k].pos == pos; ++k) {
      const Group::Site& site = group.sites[k];
      const bool value = site.pin < 0 ? site.stuck_at
                                      : eval_pin_fault(pos, site.machine,
                                                       site.pin, site.stuck_at);
      std::uint64_t& word = v[pos].w[site.machine / 64];
      const std::uint64_t bit = 1ULL << (site.machine % 64);
      word = value ? word | bit : word & ~bit;
    }
  }
  settle(next, static_cast<std::uint32_t>(kind_.size()));

  Word diff = Word::zero();
  for (std::uint32_t po : po_pos_) diff |= v[po] ^ Word::fill(v[po].w[0] & 1);

  for (std::size_t s = 0; s < d_pos_.size(); ++s) group.state[s] = v[d_pos_[s]];
  for (const Group::DPin& pin : group.d_pins) {
    std::uint64_t& word = group.state[pin.slot].w[pin.machine / 64];
    const std::uint64_t bit = 1ULL << (pin.machine % 64);
    word = pin.stuck_at ? word | bit : word & ~bit;
  }
  return diff;
}

void SequentialFaultSim::run(const std::vector<Fault>& faults,
                             const std::vector<util::BitVector>& sequence,
                             std::vector<FaultStatus>& statuses) {
  SOCET_SPAN("faultsim/seq_run");
  util::require(statuses.size() == faults.size(),
                "SequentialFaultSim::run: status vector size mismatch");
  validate(faults, sequence);

  // Pack the undetected faults kMachines to a group, from reset.
  const std::size_t slots = dff_pos_.size();
  std::vector<Group> groups;
  std::size_t live = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (statuses[i] != FaultStatus::kUndetected) continue;
    const auto machine = static_cast<unsigned>(live % kMachines + 1);
    if (machine == 1) {
      groups.emplace_back();
      groups.back().fault.assign(kMachines + 1, 0);
      groups.back().state.assign(slots, Word::zero());
    }
    groups.back().fault[machine] = static_cast<std::uint32_t>(i);
    groups.back().live.set_bit(machine);
    ++live;
  }
  for (Group& group : groups) index_sites(group, faults);

  std::uint64_t group_cycles = 0;
  std::uint64_t repacks = 0;
  for (const auto& vector : sequence) {
    if (live == 0) break;
    for (std::size_t i = 0; i < pi_.size(); ++i) {
      pi_[i] = Word::fill(vector.get(i));
    }
    for (Group& group : groups) {
      const Word detected = step(group) & group.live;
      group.live &= ~detected;
      for_each_machine(detected, [&](unsigned machine) {
        statuses[group.fault[machine]] = FaultStatus::kDetected;
        --live;
      });
    }
    group_cycles += groups.size();

    // Once the survivors fit in one group fewer, empty the group with the
    // fewest survivors into the other groups' free machine bits (a
    // detected machine's bit is free).  A machine's whole state is its
    // column of flop bits; the good machine (bit 0) is the same in every
    // group, so it stays where it is.
    if (live == 0 || live > kMachines * (groups.size() - 1)) continue;
    ++repacks;
    do {
      const auto emptiest = std::min_element(
          groups.begin(), groups.end(), [](const Group& a, const Group& b) {
            return count(a.live) < count(b.live);
          });
      const Group donor = std::move(*emptiest);
      groups.erase(emptiest);
      std::size_t g = 0;
      for_each_machine(donor.live, [&](unsigned from) {
        unsigned to;
        while ((to = free_machine(groups[g].live)) == 0) ++g;
        Group& group = groups[g];
        group.fault[to] = donor.fault[from];
        group.live.set_bit(to);
        group.reindex = true;
        for (std::size_t s = 0; s < slots; ++s) {
          std::uint64_t& word = group.state[s].w[to / 64];
          const std::uint64_t bit = donor.state[s].bit(from);
          word = (word & ~(1ULL << (to % 64))) | (bit << (to % 64));
        }
      });
    } while (live <= kMachines * (groups.size() - 1));
    for (Group& group : groups) {
      if (!group.reindex) continue;
      index_sites(group, faults);
      group.reindex = false;
    }
  }
  SOCET_COUNT_N("faultsim/seq_group_cycles", group_cycles);
  SOCET_COUNT_N("faultsim/seq_repacks", repacks);
}

}  // namespace socet::faultsim
