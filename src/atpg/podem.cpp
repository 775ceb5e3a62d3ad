#include "socet/atpg/podem.hpp"

#include <algorithm>

namespace socet::atpg {

namespace {

using faultsim::Fault;
using gate::GateId;
using gate::GateKind;

// One line's (good, faulty) value pair in four bits: bits 0 / 1 mean "the
// good machine is 0 / 1", bits 2 / 3 the same for the faulty machine, and
// a machine with neither bit set is X.  AND-ing the "is 1" bits and
// OR-ing the "is 0" bits over a gate's fanins evaluates an AND for both
// machines at once; NOT swaps each machine's two bits.
using Pair = std::uint8_t;
constexpr Pair kIsZero = 0b0101;
constexpr Pair kIsOne = 0b1010;
constexpr Pair kGoodBits = 0b0011;
constexpr Pair kAllBits = 0b1111;

constexpr Pair invert(Pair v) {
  return static_cast<Pair>(((v & kIsZero) << 1) | ((v & kIsOne) >> 1));
}

/// XOR on both machines: a machine's output is known only where both of
/// its inputs are.
constexpr Pair exclusive_or(Pair a, Pair b) {
  const Pair known = (a | a >> 1) & (b | b >> 1) & kIsZero;
  const Pair one = ((a ^ b) >> 1) & known;
  return static_cast<Pair>((one << 1) | (known & ~one));
}

/// Both machines carry an assigned input value.
constexpr Pair pair_of(V3 v) {
  return v == V3::k0 ? kIsZero : v == V3::k1 ? kIsOne : Pair{0};
}

/// The faulty-machine bits of a line stuck at `value`.
constexpr Pair stuck_bits(bool value) { return value ? 0b1000 : 0b0100; }

constexpr V3 good_of(Pair v) {
  return (v & 1) ? V3::k0 : (v & 2) ? V3::k1 : V3::kX;
}

/// Either machine is still X: the line can still be assigned or can
/// still pass a fault effect.  (Inside the fault cone the two sides
/// diverge: a line can be known good but X faulty — e.g. AND(fault-site,
/// unassigned) — and the objective machinery must still drive the
/// unassigned support.)
constexpr bool either_x(Pair v) { return !(v & kGoodBits) || !(v >> 2); }

constexpr bool is_d(Pair v) {
  return !either_x(v) && (v & kGoodBits) != (v >> 2);
}

class Podem {
 public:
  Podem(const gate::GateNetlist& netlist, std::vector<Fault> faults,
        const PodemOptions& options)
      : faults_(std::move(faults)), options_(options) {
    util::require(!faults_.empty(), "podem: need at least one fault site");
    const std::size_t n = netlist.gate_count();

    // Flat view: gate kinds, CSR fanins, and CSR fanouts restricted to the
    // combinational sinks implication re-evaluates (an Input or DFF sink
    // takes its value from the assignment, not from its fanin).
    kind_.resize(n);
    fanin_begin_.assign(n + 1, 0);
    fanout_begin_.assign(n + 1, 0);
    for (std::size_t g = 0; g < n; ++g) {
      const gate::Gate& gate = netlist.gates()[g];
      kind_[g] = gate.kind;
      fanin_begin_[g + 1] =
          fanin_begin_[g] + static_cast<std::uint32_t>(gate.fanin.size());
      for (GateId f : gate.fanin) fanin_.push_back(f.index());
      if (!is_source(g)) {
        for (GateId f : gate.fanin) ++fanout_begin_[f.index() + 1];
      }
    }
    for (std::size_t g = 0; g < n; ++g) fanout_begin_[g + 1] += fanout_begin_[g];
    fanout_.resize(fanout_begin_[n]);
    {
      std::vector<std::uint32_t> fill(fanout_begin_.begin(),
                                      fanout_begin_.end() - 1);
      for (std::uint32_t g = 0; g < n; ++g) {
        if (is_source(g)) continue;
        for (std::uint32_t p = fanin_begin_[g]; p < fanin_begin_[g + 1]; ++p) {
          fanout_[fill[fanin_[p]]++] = g;
        }
      }
    }

    // Per-gate fault lookup (at most one site per gate).
    site_pin_.assign(n, kNoFault);
    site_force_.assign(n, 0);
    for (const Fault& f : faults_) {
      util::require(site_pin_[f.gate.index()] == kNoFault,
                    "podem: two fault sites on one gate");
      site_pin_[f.gate.index()] = f.pin;
      site_force_[f.gate.index()] = stuck_bits(f.stuck_at);
    }
    // Decision variables: PIs then PPIs.
    for (GateId id : netlist.inputs()) lines_.push_back(id.index());
    for (GateId id : netlist.dffs()) lines_.push_back(id.index());
    line_pos_.assign(n, -1);
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      line_pos_[lines_[i]] = static_cast<std::int32_t>(i);
    }
    assign_.assign(lines_.size(), V3::kX);
    n_pi_ = netlist.inputs().size();

    observable_.assign(n, 0);
    for (GateId id : netlist.outputs()) observable_[id.index()] = 1;
    for (GateId dff : netlist.dffs()) observable_[fanin_of(dff.index(), 0)] = 1;

    // Static guidance: distance-to-observation for D-frontier selection
    // and logic depth for backtrace input choice (a SCOAP-lite).  The
    // depth is also the level event-driven implication runs in.
    obs_dist_.assign(n, kFarAway);
    for (std::uint32_t g = 0; g < n; ++g) {
      if (observable_[g]) obs_dist_[g] = 0;
    }
    const auto& order = netlist.topo_order();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const std::uint32_t g = it->index();
      const unsigned here = obs_dist_[g];
      if (here == kFarAway) continue;
      for (std::uint32_t p = fanin_begin_[g]; p < fanin_begin_[g + 1]; ++p) {
        obs_dist_[fanin_[p]] = std::min(obs_dist_[fanin_[p]], here + 1);
      }
    }
    depth_.assign(n, 0);
    topo_pos_.assign(n, 0);
    unsigned max_depth = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
      const std::uint32_t g = order[i].index();
      topo_pos_[g] = static_cast<std::uint32_t>(i);
      if (is_source(g)) continue;
      unsigned d = 0;
      for (std::uint32_t p = fanin_begin_[g]; p < fanin_begin_[g + 1]; ++p) {
        d = std::max(d, depth_[fanin_[p]] + 1);
      }
      depth_[g] = d;
      max_depth = std::max(max_depth, d);
    }

    // Each level's queue is a fixed slice of one array, sized by the number
    // of gates on that level.
    level_begin_.assign(max_depth + 2, 0);
    for (std::uint32_t g = 0; g < n; ++g) ++level_begin_[depth_[g] + 1];
    for (unsigned d = 0; d <= max_depth; ++d) {
      level_begin_[d + 1] += level_begin_[d];
    }
    level_size_.assign(max_depth + 1, 0);
    level_slots_.resize(n);

    val_.assign(n, 0);
    queued_.assign(n, 0);
    d_slot_.assign(n, kNotD);
    seen_.assign(n, 0);
    // The first implication evaluates every gate from the all-X state.
    for (std::uint32_t g = 0; g < n; ++g) schedule(g);
  }

  static constexpr unsigned kFarAway = 1u << 30;

  PodemResult run() {
    struct Decision {
      std::size_t pos;
      bool flipped;
      std::size_t mark;  ///< trail size before this decision was implied
    };
    std::vector<Decision> stack;

    imply();
    trail_.clear();  // the all-X pass is never undone
    while (true) {
      if (!conflict() && detected()) {
        PodemResult result = finish(PodemResult::Outcome::kFound);
        fill_pattern(result);
        return result;
      }

      std::int32_t obj_pos = -1;
      bool obj_value = false;
      const bool progress =
          !conflict() && x_path_exists() && next_objective(obj_pos, obj_value);

      if (progress) {
        stack.push_back(
            Decision{static_cast<std::size_t>(obj_pos), false, trail_.size()});
        decide(obj_pos, obj_value ? V3::k1 : V3::k0);
        imply();
        continue;
      }

      // Backtrack: the trail restores the values from before the top
      // decision, so popping needs no implication and a flip implies only
      // its own line.
      ++backtracks_;
      if (backtracks_ > options_.backtrack_limit) {
        return finish(PodemResult::Outcome::kAborted);
      }
      bool resumed = false;
      while (!stack.empty()) {
        Decision& top = stack.back();
        undo_to(top.mark);
        if (!top.flipped) {
          top.flipped = true;
          decide(top.pos, assign_[top.pos] == V3::k0 ? V3::k1 : V3::k0);
          imply();
          resumed = true;
          break;
        }
        assign_[top.pos] = V3::kX;
        stack.pop_back();
      }
      if (!resumed) return finish(PodemResult::Outcome::kUntestable);
    }
  }

 private:
  bool is_source(std::uint32_t g) const {
    return kind_[g] == GateKind::kInput || kind_[g] == GateKind::kDff;
  }

  std::uint32_t fanin_of(std::uint32_t g, std::uint32_t pin) const {
    return fanin_[fanin_begin_[g] + pin];
  }

  /// Set decision variable `pos` and queue its line for implication.
  void decide(std::size_t pos, V3 value) {
    assign_[pos] = value;
    schedule(lines_[pos]);
  }

  void schedule(std::uint32_t g) {
    if (queued_[g]) return;
    queued_[g] = 1;
    const unsigned level = depth_[g];
    level_slots_[level_begin_[level] + level_size_[level]++] = g;
    top_level_ = std::max(top_level_, level);
  }

  /// Levelized event-driven implication: evaluate the queued gates level
  /// by level and queue the fanouts of every gate whose pair changed.
  /// Every fanout sits on a deeper level, so each gate is evaluated at
  /// most once per call, after all of its changed fanins.
  void imply() {
    ++implications_;
    for (unsigned level = 0; level <= top_level_; ++level) {
      const std::uint32_t* queue = level_slots_.data() + level_begin_[level];
      const std::uint32_t queued = level_size_[level];
      for (std::uint32_t i = 0; i < queued; ++i) {
        const std::uint32_t g = queue[i];
        queued_[g] = 0;
        const Pair next = evaluate(g);
        const Pair prev = val_[g];
        if (next == prev) continue;
        val_[g] = next;
        trail_.push_back({g, prev});
        if (is_d(next) != is_d(prev)) track_d(g, is_d(next));
        for (std::uint32_t k = fanout_begin_[g]; k < fanout_begin_[g + 1];
             ++k) {
          schedule(fanout_[k]);
        }
      }
      gate_evals_ += queued;
      level_size_[level] = 0;
    }
    top_level_ = 0;
  }

  /// Restore every value changed since the trail held `mark` entries.
  void undo_to(std::size_t mark) {
    while (trail_.size() > mark) {
      const auto [g, prev] = trail_.back();
      trail_.pop_back();
      if (is_d(val_[g]) != is_d(prev)) track_d(g, is_d(prev));
      val_[g] = prev;
    }
  }

  Pair evaluate(std::uint32_t g) const {
    const std::int32_t site = site_pin_[g];
    Pair v;
    if (is_source(g)) {
      v = pair_of(assign_[line_pos_[g]]);
    } else {
      v = site >= 0 ? combine<true>(g) : combine<false>(g);
    }
    if (site == kStem) v = static_cast<Pair>((v & kGoodBits) | site_force_[g]);
    return v;
  }

  /// The pair on pin `p` of gate `g`.  At an input-pin fault site the
  /// faulted pin's faulty side reads the stuck value.
  template <bool kPinSite>
  Pair pin_value(std::uint32_t g, std::uint32_t p) const {
    const Pair v = val_[fanin_of(g, p)];
    if constexpr (kPinSite) {
      if (static_cast<std::int32_t>(p) == site_pin_[g]) {
        return static_cast<Pair>((v & kGoodBits) | site_force_[g]);
      }
    }
    return v;
  }

  template <bool kPinSite>
  Pair combine(std::uint32_t g) const {
    const GateKind kind = kind_[g];
    switch (kind) {
      case GateKind::kConst0:
        return kIsZero;
      case GateKind::kConst1:
        return kIsOne;
      case GateKind::kBuf:
        return pin_value<kPinSite>(g, 0);
      case GateKind::kNot:
        return invert(pin_value<kPinSite>(g, 0));
      case GateKind::kXor:
        return exclusive_or(pin_value<kPinSite>(g, 0),
                            pin_value<kPinSite>(g, 1));
      case GateKind::kXnor:
        return invert(exclusive_or(pin_value<kPinSite>(g, 0),
                                   pin_value<kPinSite>(g, 1)));
      case GateKind::kAnd:
      case GateKind::kNand:
      case GateKind::kOr:
      case GateKind::kNor: {
        Pair all = kAllBits;
        Pair any = 0;
        const std::uint32_t n = fanin_begin_[g + 1] - fanin_begin_[g];
        for (std::uint32_t p = 0; p < n; ++p) {
          const Pair v = pin_value<kPinSite>(g, p);
          all &= v;
          any |= v;
        }
        const bool is_and = kind == GateKind::kAnd || kind == GateKind::kNand;
        const Pair out = is_and ? (all & kIsOne) | (any & kIsZero)
                                : (any & kIsOne) | (all & kIsZero);
        return kind == GateKind::kNand || kind == GateKind::kNor ? invert(out)
                                                                 : out;
      }
      default:
        return 0;
    }
  }

  /// Keep d_gates_ equal to the set of lines carrying a D.
  void track_d(std::uint32_t g, bool now_d) {
    if (now_d) {
      d_slot_[g] = static_cast<std::int32_t>(d_gates_.size());
      d_gates_.push_back(g);
    } else {
      const std::uint32_t last = d_gates_.back();
      d_gates_[d_slot_[g]] = last;
      d_slot_[last] = d_slot_[g];
      d_gates_.pop_back();
      d_slot_[g] = kNotD;
    }
    if (observable_[g]) observed_d_ = now_d ? observed_d_ + 1 : observed_d_ - 1;
  }

  /// The good-side value a site's line must take to excite that site.
  static V3 required_site_value(const Fault& f) {
    return f.stuck_at ? V3::k0 : V3::k1;
  }

  /// The good-circuit line whose value excites a site: the gate itself
  /// for stem faults, the driving gate for pin faults.
  std::uint32_t excitation_line(const Fault& f) const {
    if (f.pin < 0) return f.gate.index();
    return fanin_of(f.gate.index(), static_cast<std::uint32_t>(f.pin));
  }

  V3 good(std::uint32_t g) const { return good_of(val_[g]); }
  bool is_x(std::uint32_t g) const { return either_x(val_[g]); }

  /// Some site is excited (the fault effect originates somewhere).
  bool excited() const {
    for (const Fault& f : faults_) {
      if (good(excitation_line(f)) == required_site_value(f)) return true;
    }
    return false;
  }

  /// Every site's excitation line settled to the stuck value: no test
  /// exists down this branch.
  bool conflict() const {
    for (const Fault& f : faults_) {
      const V3 stuck = f.stuck_at ? V3::k1 : V3::k0;
      if (good(excitation_line(f)) != stuck) return false;
    }
    return true;
  }

  bool detected() const { return observed_d_ > 0; }

  /// An excited input-pin fault puts the D on the pin itself rather than on
  /// any circuit line, so the fault gate must join the D-frontier directly.
  bool pending_pin_site(const Fault& f) const {
    return f.pin >= 0 &&
           good(excitation_line(f)) == required_site_value(f) &&
           is_x(f.gate.index());
  }

  /// The D-frontier gate the objective advances: the frontier is the
  /// pending pin sites in fault order followed by the gates, in
  /// topological order, that are X on either side and read a D; the
  /// first gate with the smallest distance to observation wins.
  /// Returns false on an empty frontier.
  bool frontier_choice(std::uint32_t& chosen) const {
    bool found = false;
    bool chosen_pending = false;
    for (const Fault& f : faults_) {
      if (!pending_pin_site(f)) continue;
      const std::uint32_t g = f.gate.index();
      if (!found || obs_dist_[g] < obs_dist_[chosen]) {
        chosen = g;
        found = true;
        chosen_pending = true;
      }
    }
    for (const std::uint32_t d : d_gates_) {
      for (std::uint32_t k = fanout_begin_[d]; k < fanout_begin_[d + 1]; ++k) {
        const std::uint32_t g = fanout_[k];
        if (!is_x(g)) continue;
        if (!found || obs_dist_[g] < obs_dist_[chosen] ||
            (obs_dist_[g] == obs_dist_[chosen] && !chosen_pending &&
             topo_pos_[g] < topo_pos_[chosen])) {
          chosen = g;
          found = true;
          chosen_pending = false;
        }
      }
    }
    return found;
  }

  /// Does any D still have a potential sensitized path to an observe point
  /// through X gates?
  bool x_path_exists() {
    if (!excited()) return true;  // excitation itself is still pending
    if (detected()) return true;
    ++stamp_;
    queue_.clear();
    auto enqueue = [this](std::uint32_t g) {
      if (seen_[g] == stamp_) return;
      seen_[g] = stamp_;
      queue_.push_back(g);
    };
    for (const Fault& f : faults_) {
      if (pending_pin_site(f)) enqueue(f.gate.index());
    }
    for (const std::uint32_t d : d_gates_) enqueue(d);
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      const std::uint32_t g = queue_[head];
      if (observable_[g]) return true;
      for (std::uint32_t k = fanout_begin_[g]; k < fanout_begin_[g + 1]; ++k) {
        // A gate can still pass the effect only if its output is X on some
        // side (otherwise it is already decided).
        if (is_x(fanout_[k])) enqueue(fanout_[k]);
      }
    }
    return false;
  }

  /// Pick the next objective (line, value).  Returns false when stuck.
  bool next_objective(std::int32_t& out_pos, bool& out_value) const {
    std::uint32_t line = 0;
    bool value = false;
    if (!excited()) {
      bool found = false;
      for (const Fault& f : faults_) {
        const std::uint32_t candidate = excitation_line(f);
        if (good(candidate) == V3::kX) {
          line = candidate;
          value = required_site_value(f) == V3::k1;
          found = true;
          break;
        }
      }
      if (!found) return false;
    } else {
      std::uint32_t chosen = 0;
      if (!frontier_choice(chosen)) return false;
      std::int32_t x_pin = -1;
      for (std::uint32_t p = fanin_begin_[chosen]; p < fanin_begin_[chosen + 1];
           ++p) {
        if (is_x(fanin_[p])) {
          x_pin = static_cast<std::int32_t>(p - fanin_begin_[chosen]);
          break;
        }
      }
      if (x_pin < 0) return false;
      line = fanin_of(chosen, static_cast<std::uint32_t>(x_pin));
      switch (kind_[chosen]) {
        case GateKind::kAnd:
        case GateKind::kNand:
          value = true;  // non-controlling
          break;
        case GateKind::kOr:
        case GateKind::kNor:
          value = false;
          break;
        default:
          value = false;  // XOR/XNOR propagate either way
          break;
      }
    }
    return backtrace(line, value, out_pos, out_value);
  }

  /// Walk the objective back to an unassigned input line.
  bool backtrace(std::uint32_t line, bool value, std::int32_t& out_pos,
                 bool& out_value) const {
    for (std::size_t guard = 0; guard < kind_.size() + 1; ++guard) {
      const std::int32_t pos = line_pos_[line];
      if (pos >= 0) {
        if (assign_[pos] != V3::kX) return false;  // already decided
        out_pos = pos;
        out_value = value;
        return true;
      }
      std::uint32_t next = 0;
      bool found = false;
      for (std::uint32_t p = fanin_begin_[line]; p < fanin_begin_[line + 1];
           ++p) {
        const std::uint32_t f = fanin_[p];
        if (!is_x(f)) continue;
        if (!found || depth_[f] < depth_[next]) {
          next = f;
          found = true;
        }
      }
      if (!found) return false;
      switch (kind_[line]) {
        case GateKind::kNot:
        case GateKind::kNand:
        case GateKind::kNor:
        case GateKind::kXnor:
          value = !value;
          break;
        default:
          break;  // AND/OR/BUF/XOR keep parity
      }
      line = next;
    }
    return false;
  }

  PodemResult finish(PodemResult::Outcome outcome) const {
    PodemResult result;
    result.outcome = outcome;
    result.backtracks = backtracks_;
    result.implications = implications_;
    result.gate_evals = gate_evals_;
    return result;
  }

  void fill_pattern(PodemResult& result) const {
    const std::size_t n_ppi = lines_.size() - n_pi_;
    result.pattern.pi = util::BitVector(n_pi_);
    result.pattern.ppi = util::BitVector(n_ppi);
    result.pi_dont_care.assign(n_pi_, false);
    result.ppi_dont_care.assign(n_ppi, false);
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      const bool is_pi = i < n_pi_;
      const std::size_t k = is_pi ? i : i - n_pi_;
      if (assign_[i] == V3::kX) {
        (is_pi ? result.pi_dont_care : result.ppi_dont_care)[k] = true;
      } else if (assign_[i] == V3::k1) {
        (is_pi ? result.pattern.pi : result.pattern.ppi).set(k, true);
      }
    }
  }

  static constexpr std::int32_t kStem = -1;
  static constexpr std::int32_t kNoFault = -2;
  static constexpr std::int32_t kNotD = -1;

  const std::vector<Fault> faults_;
  const PodemOptions options_;

  // Flat netlist view.
  std::vector<GateKind> kind_;
  std::vector<std::uint32_t> fanin_begin_;
  std::vector<std::uint32_t> fanin_;
  std::vector<std::uint32_t> fanout_begin_;
  std::vector<std::uint32_t> fanout_;  ///< combinational sinks only
  std::vector<std::uint32_t> topo_pos_;
  std::vector<std::uint8_t> observable_;  ///< PO or DFF D driver
  std::vector<unsigned> obs_dist_;
  std::vector<unsigned> depth_;

  std::vector<std::int32_t> site_pin_;  ///< kNoFault / kStem / pin index
  std::vector<Pair> site_force_;        ///< faulty bits of the stuck value

  std::vector<std::uint32_t> lines_;  ///< decision lines: PIs then PPIs
  std::vector<std::int32_t> line_pos_;
  std::size_t n_pi_ = 0;
  std::vector<V3> assign_;
  std::vector<Pair> val_;

  // Implication queue: one slice of level_slots_ per level, each gate
  // queued at most once.
  std::vector<std::uint32_t> level_begin_;
  std::vector<std::uint32_t> level_size_;
  std::vector<std::uint32_t> level_slots_;
  std::vector<std::uint8_t> queued_;
  unsigned top_level_ = 0;

  // Every value change since the all-X pass, as (line, previous pair).
  struct Change {
    std::uint32_t line;
    Pair prev;
  };
  std::vector<Change> trail_;

  // The lines carrying a D, with each one's slot in d_gates_.
  std::vector<std::uint32_t> d_gates_;
  std::vector<std::int32_t> d_slot_;
  std::size_t observed_d_ = 0;

  // Stamped X-path scratch: seen_[g] == stamp_ marks g visited (64-bit,
  // so the stamp never wraps onto a stale mark).
  std::vector<std::uint64_t> seen_;
  std::uint64_t stamp_ = 0;
  std::vector<std::uint32_t> queue_;

  unsigned backtracks_ = 0;
  unsigned implications_ = 0;
  std::uint64_t gate_evals_ = 0;
};

}  // namespace

PodemResult podem(const gate::GateNetlist& netlist, const faultsim::Fault& fault,
                  const PodemOptions& options) {
  return Podem(netlist, {fault}, options).run();
}

PodemResult podem_multi(const gate::GateNetlist& netlist,
                        const std::vector<faultsim::Fault>& sites,
                        const PodemOptions& options) {
  return Podem(netlist, sites, options).run();
}

}  // namespace socet::atpg
