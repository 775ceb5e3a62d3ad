#include "socet/atpg/miter.hpp"

#include <algorithm>
#include <map>
#include <utility>

namespace socet::atpg {

namespace {

using gate::GateKind;
using sat::Lit;

constexpr std::uint32_t kEnd = ~std::uint32_t{0};

constexpr std::uint32_t code(std::uint32_t slot, bool negated) {
  return 2 * slot + (negated ? 1u : 0u);
}

/// Append the Tseitin clauses of one gate kind over slots (0 = output,
/// k + 1 = fanin k).
void append_template(GateKind kind, std::uint32_t fanins,
                     std::vector<std::uint32_t>& out) {
  auto clause = [&out](std::initializer_list<std::uint32_t> codes) {
    out.insert(out.end(), codes);
    out.push_back(kEnd);
  };
  switch (kind) {
    case GateKind::kConst0:
      clause({code(0, true)});
      break;
    case GateKind::kConst1:
      clause({code(0, false)});
      break;
    case GateKind::kBuf:
    case GateKind::kNot: {
      const bool inv = kind == GateKind::kNot;
      clause({code(0, true), code(1, inv)});
      clause({code(0, false), code(1, !inv)});
      break;
    }
    case GateKind::kAnd:
    case GateKind::kNand:
    case GateKind::kOr:
    case GateKind::kNor: {
      // AND: z -> a_k for every k, and (all a_k) -> z.  OR is its dual;
      // the inverting kinds negate z.
      const bool is_and = kind == GateKind::kAnd || kind == GateKind::kNand;
      const bool inv = kind == GateKind::kNand || kind == GateKind::kNor;
      const bool z_negated = is_and != inv;  // in the per-pin clauses
      for (std::uint32_t k = 0; k < fanins; ++k) {
        clause({code(0, z_negated), code(k + 1, !is_and)});
      }
      out.push_back(code(0, !z_negated));
      for (std::uint32_t k = 0; k < fanins; ++k) {
        out.push_back(code(k + 1, is_and));
      }
      out.push_back(kEnd);
      break;
    }
    case GateKind::kXor:
    case GateKind::kXnor: {
      const bool inv = kind == GateKind::kXnor;
      clause({code(0, !inv), code(1, false), code(2, false)});
      clause({code(0, !inv), code(1, true), code(2, true)});
      clause({code(0, inv), code(1, true), code(2, false)});
      clause({code(0, inv), code(1, false), code(2, true)});
      break;
    }
    case GateKind::kInput:
    case GateKind::kDff:
      break;  // free variables: the scan pattern sets them
  }
}

}  // namespace

MiterScratch::MiterScratch(const gate::GateNetlist& netlist)
    : netlist_(&netlist) {
  const std::size_t n = netlist.gate_count();
  kind_.resize(n);
  fanin_begin_.assign(n + 1, 0);
  fanout_begin_.assign(n + 1, 0);
  tmpl_of_.resize(n);
  std::map<std::pair<GateKind, std::uint32_t>, std::uint32_t> shapes;
  for (std::size_t g = 0; g < n; ++g) {
    const gate::Gate& gate = netlist.gates()[g];
    kind_[g] = gate.kind;
    const auto fanins = static_cast<std::uint32_t>(gate.fanin.size());
    SOCET_ASSERT(
        (gate.kind != GateKind::kXor && gate.kind != GateKind::kXnor) ||
            fanins == 2,
        "miter: XOR/XNOR gates take two inputs");
    fanin_begin_[g + 1] = fanin_begin_[g] + fanins;
    for (gate::GateId f : gate.fanin) fanin_.push_back(f.index());
    if (!is_source(static_cast<std::uint32_t>(g))) {
      for (gate::GateId f : gate.fanin) ++fanout_begin_[f.index() + 1];
    }
    const auto [shape, fresh] = shapes.try_emplace(
        {gate.kind, fanins}, static_cast<std::uint32_t>(tmpl_.size()));
    if (fresh) {
      const std::uint32_t at = shape->second;
      tmpl_.insert(tmpl_.end(), {0, 0});
      append_template(gate.kind, fanins, tmpl_);
      const auto codes = static_cast<std::uint32_t>(tmpl_.size() - at - 2);
      tmpl_[at] = static_cast<std::uint32_t>(
          std::count(tmpl_.begin() + at + 2, tmpl_.end(), kEnd));
      tmpl_[at + 1] = codes - tmpl_[at];
    }
    tmpl_of_[g] = shape->second;
  }
  for (std::size_t g = 0; g < n; ++g) fanout_begin_[g + 1] += fanout_begin_[g];
  fanout_.resize(fanout_begin_[n]);
  std::vector<std::uint32_t> fill(fanout_begin_.begin(),
                                  fanout_begin_.end() - 1);
  for (std::uint32_t g = 0; g < n; ++g) {
    if (is_source(g)) continue;
    for (std::uint32_t p = fanin_begin_[g]; p < fanin_begin_[g + 1]; ++p) {
      fanout_[fill[fanin_[p]]++] = g;
    }
  }

  topo_pos_.assign(n, 0);
  const auto& order = netlist.topo_order();
  for (std::size_t i = 0; i < order.size(); ++i) {
    topo_pos_[order[i].index()] = static_cast<std::uint32_t>(i);
  }
  observable_.assign(n, 0);
  for (gate::GateId id : netlist.outputs()) observable_[id.index()] = 1;
  for (gate::GateId dff : netlist.dffs()) {
    observable_[fanin_[fanin_begin_[dff.index()]]] = 1;
  }

  in_cone_.assign(n, 0);
  live_.assign(n, 0);
  in_region_.assign(n, 0);
  good_.resize(n);
  faulty_.resize(n);
  active_.resize(n);
}

void MiterScratch::emit_gate(std::uint32_t g, Lit out, const Lit* in) {
  clause_.clear();
  const std::uint32_t at = tmpl_of_[g];
  const std::uint32_t end = at + 2 + tmpl_[at] + tmpl_[at + 1];
  for (std::uint32_t p = at + 2; p < end; ++p) {
    const std::uint32_t c = tmpl_[p];
    if (c == kEnd) {
      solver_.add_clause(clause_);
      clause_.clear();
      continue;
    }
    const std::uint32_t slot = c >> 1;
    clause_.push_back((slot == 0 ? out : in[slot - 1]) ^ ((c & 1u) != 0));
  }
}

faultsim::ScanPattern MiterScratch::model_pattern() const {
  faultsim::ScanPattern pattern;
  auto read = [this](const std::vector<gate::GateId>& lines,
                     util::BitVector& bits) {
    bits = util::BitVector(lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::uint32_t g = lines[i].index();
      if (in_region_[g] == stamp_) {
        bits.set(i, solver_.model_value(good_[g].var()));
      }
    }
  };
  read(netlist_->inputs(), pattern.pi);
  read(netlist_->dffs(), pattern.ppi);
  return pattern;
}

ProofResult prove_untestable(const gate::GateNetlist& netlist,
                             const faultsim::Fault& fault,
                             MiterScratch& scratch,
                             std::uint64_t conflict_limit) {
  util::require(&netlist == scratch.netlist_,
                "prove_untestable: scratch built for another netlist");
  MiterScratch& s = scratch;
  const std::uint32_t site = fault.gate.index();
  const bool stem = fault.pin < 0;
  util::require(site < s.kind_.size() &&
                    (stem || static_cast<std::uint32_t>(fault.pin) <
                                 s.fanin_begin_[site + 1] -
                                     s.fanin_begin_[site]),
                "prove_untestable: fault site not in the netlist");
  // A pin fault on a flip-flop's D pin sits outside the combinational
  // view; leave it to PODEM.
  if (!stem && s.is_source(site)) return {};

  const std::uint64_t stamp = ++s.stamp_;
  // The site's fanout cone, in topological order.
  s.cone_.assign(1, site);
  s.in_cone_[site] = stamp;
  for (std::size_t head = 0; head < s.cone_.size(); ++head) {
    const std::uint32_t g = s.cone_[head];
    for (std::uint32_t k = s.fanout_begin_[g]; k < s.fanout_begin_[g + 1];
         ++k) {
      const std::uint32_t h = s.fanout_[k];
      if (s.in_cone_[h] == stamp) continue;
      s.in_cone_[h] = stamp;
      s.cone_.push_back(h);
    }
  }
  std::sort(s.cone_.begin(), s.cone_.end(),
            [&s](std::uint32_t a, std::uint32_t b) {
              return s.topo_pos_[a] < s.topo_pos_[b];
            });
  // Cut it to the gates from which an observation point is reachable
  // (every fanout of a cone gate is in the cone).
  for (auto it = s.cone_.rbegin(); it != s.cone_.rend(); ++it) {
    const std::uint32_t g = *it;
    bool live = s.observable_[g] != 0;
    for (std::uint32_t k = s.fanout_begin_[g];
         !live && k < s.fanout_begin_[g + 1]; ++k) {
      live = s.live_[s.fanout_[k]] == stamp;
    }
    if (live) s.live_[g] = stamp;
  }
  if (s.live_[site] != stamp) return {sat::Result::kUnsat, 0};
  std::erase_if(s.cone_,
                [&s, stamp](std::uint32_t g) { return s.live_[g] != stamp; });

  // The good machine: the transitive fan-in of the cut cone.
  s.region_.assign(s.cone_.begin(), s.cone_.end());
  for (const std::uint32_t g : s.region_) s.in_region_[g] = stamp;
  for (std::size_t head = 0; head < s.region_.size(); ++head) {
    const std::uint32_t g = s.region_[head];
    if (s.is_source(g)) continue;
    for (std::uint32_t p = s.fanin_begin_[g]; p < s.fanin_begin_[g + 1]; ++p) {
      const std::uint32_t f = s.fanin_[p];
      if (s.in_region_[f] == stamp) continue;
      s.in_region_[f] = stamp;
      s.region_.push_back(f);
    }
  }

  // Size the solver for the whole miter before building it.
  std::size_t clauses = 0;
  std::size_t literals = 0;
  auto count = [&s, &clauses, &literals](std::uint32_t g) {
    clauses += s.tmpl_[s.tmpl_of_[g]];
    literals += s.tmpl_[s.tmpl_of_[g] + 1];
  };
  for (const std::uint32_t g : s.region_) count(g);
  for (const std::uint32_t g : s.cone_) {
    if (!stem || g != site) count(g);
    clauses += 3;  // the sensitized-path clauses
    literals += 7 + s.fanout_begin_[g + 1] - s.fanout_begin_[g];
  }
  sat::Solver& solver = s.solver_;
  solver.clear();
  solver.reserve(1 + s.region_.size() + 2 * s.cone_.size(), clauses,
                 literals);
  const Lit truth = Lit::pos(solver.new_var());
  solver.add_clause({truth});
  const Lit stuck = truth ^ !fault.stuck_at;
  // Inputs are preferred decisions: once they are set, propagation
  // settles both machines, as in PODEM's input-only search space.
  for (const std::uint32_t g : s.region_) {
    s.good_[g] = Lit::pos(solver.new_var(s.is_source(g)));
  }
  for (const std::uint32_t g : s.cone_) {
    s.faulty_[g] = stem && g == site ? stuck : Lit::pos(solver.new_var());
    s.active_[g] = solver.new_var();
  }

  for (const std::uint32_t g : s.region_) {
    if (s.is_source(g)) continue;
    s.pins_.clear();
    for (std::uint32_t p = s.fanin_begin_[g]; p < s.fanin_begin_[g + 1]; ++p) {
      s.pins_.push_back(s.good_[s.fanin_[p]]);
    }
    s.emit_gate(g, s.good_[g], s.pins_.data());
  }
  for (const std::uint32_t g : s.cone_) {
    if (stem && g == site) continue;  // the stuck value, no gate function
    s.pins_.clear();
    for (std::uint32_t p = s.fanin_begin_[g]; p < s.fanin_begin_[g + 1]; ++p) {
      const std::uint32_t f = s.fanin_[p];
      s.pins_.push_back(s.live_[f] == stamp ? s.faulty_[f] : s.good_[f]);
    }
    if (g == site) s.pins_[static_cast<std::size_t>(fault.pin)] = stuck;
    s.emit_gate(g, s.faulty_[g], s.pins_.data());
  }

  // Sensitized paths.
  for (const std::uint32_t g : s.cone_) {
    const Lit active = Lit::pos(s.active_[g]);
    solver.add_clause({~active, s.good_[g], s.faulty_[g]});
    solver.add_clause({~active, ~s.good_[g], ~s.faulty_[g]});
    if (s.observable_[g]) continue;
    s.clause_.assign(1, ~active);
    for (std::uint32_t k = s.fanout_begin_[g]; k < s.fanout_begin_[g + 1];
         ++k) {
      const std::uint32_t h = s.fanout_[k];
      if (s.live_[h] == stamp) s.clause_.push_back(Lit::pos(s.active_[h]));
    }
    solver.add_clause(s.clause_);
  }
  solver.add_clause({Lit::pos(s.active_[site])});

  const sat::Result result = solver.solve(conflict_limit);
  return {result, solver.conflicts()};
}

}  // namespace socet::atpg
