// A small conflict-driven clause-learning (CDCL) SAT solver.
//
// Built for the fault miters of miter.hpp: formulas of a few thousand
// variables, solved once each under a conflict limit.  It has two watched
// literals per clause (with a blocker literal per watch), first-UIP
// learning with local clause minimization, VSIDS branching on a binary
// heap, phase saving and Luby restarts.  A variable may be marked
// preferred: the heap orders preferred variables before all others (by
// activity within each tier), so a caller can make the solver branch on
// a circuit's inputs first, as PODEM does.
//
// Learned clauses are never deleted: every call is bounded by its
// conflict limit, and `clear()` drops them with the formula.  Buffers
// keep their capacity across `clear()`, so one solver serves a stream of
// formulas without reallocating.  Each literal's watch list is a chain
// through one pool of watch nodes rather than a vector of its own, so
// the solver's memory follows the largest formula it has held, not the
// longest list each literal index has ever had.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

namespace socet::atpg::sat {

/// A literal: its variable times two, plus one when negated.
struct Lit {
  std::uint32_t code = 0;

  static Lit pos(std::uint32_t var) { return Lit{var << 1}; }
  static Lit neg(std::uint32_t var) { return Lit{(var << 1) | 1u}; }
  [[nodiscard]] std::uint32_t var() const { return code >> 1; }
  [[nodiscard]] bool negated() const { return (code & 1u) != 0; }
  Lit operator~() const { return Lit{code ^ 1u}; }
  /// This literal, negated when `flip` holds.
  [[nodiscard]] Lit operator^(bool flip) const {
    return Lit{code ^ static_cast<std::uint32_t>(flip)};
  }
  friend bool operator==(Lit, Lit) = default;
};

enum class Result : std::uint8_t {
  kSat,
  kUnsat,
  kUnknown,  ///< the conflict limit was reached first
};

class Solver {
 public:
  /// Drop every variable and clause (buffers keep their capacity).
  void clear();

  /// A fresh variable.  Preferred variables are branched on before all
  /// non-preferred ones.
  std::uint32_t new_var(bool preferred = false);
  [[nodiscard]] std::uint32_t var_count() const {
    return static_cast<std::uint32_t>(assigns_.size());
  }

  /// Make room for a formula of `vars` variables and `clauses` clauses
  /// of `literals` literals in all, plus learned clauses, so building
  /// and solving it does not grow a buffer past what it needs.
  void reserve(std::size_t vars, std::size_t clauses, std::size_t literals);

  /// Add a clause over existing variables, before `solve`.  Duplicate
  /// literals are merged, tautologies and clauses already satisfied by
  /// the unit clauses dropped; an empty clause makes the formula unsat.
  void add_clause(std::span<const Lit> lits);
  void add_clause(std::initializer_list<Lit> lits) {
    add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }

  /// Decide the formula, giving up after `conflict_limit` conflicts.
  Result solve(std::uint64_t conflict_limit);

  /// The satisfying assignment of the last kSat `solve`.
  [[nodiscard]] bool model_value(std::uint32_t var) const {
    return model_[var] != 0;
  }
  /// Conflicts the last `solve` spent.
  [[nodiscard]] std::uint64_t conflicts() const { return conflicts_; }

 private:
  static constexpr std::uint32_t kNoReason = ~std::uint32_t{0};
  static constexpr std::uint8_t kFalse = 0, kTrue = 1, kUndef = 2;

  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Watch {
    std::uint32_t clause;  ///< offset of the clause's size word in arena_
    Lit blocker;           ///< a literal of the clause; true means skip
    std::uint32_t next;    ///< next node of the same literal's chain
  };

  std::uint8_t value(Lit l) const {
    const std::uint8_t v = assigns_[l.var()];
    return v == kUndef ? kUndef : static_cast<std::uint8_t>(v ^ l.negated());
  }
  Lit* lits_of(std::uint32_t clause) { return &arena_[clause + 1]; }
  std::uint32_t level() const {
    return static_cast<std::uint32_t>(trail_lim_.size());
  }

  std::uint32_t attach(std::span<const Lit> lits);
  void watch(Lit l, std::uint32_t clause, Lit blocker) {
    watch_nodes_.push_back(Watch{clause, blocker, watch_head_[l.code]});
    watch_head_[l.code] = static_cast<std::uint32_t>(watch_nodes_.size() - 1);
  }
  void enqueue(Lit l, std::uint32_t reason);
  std::uint32_t propagate();
  void analyze(std::uint32_t conflict, std::uint32_t& backtrack_level);
  bool redundant_in_learnt(Lit l);
  void cancel_until(std::uint32_t target);
  bool decide();

  void bump(std::uint32_t var);
  bool heap_before(std::uint32_t a, std::uint32_t b) const {
    if (preferred_[a] != preferred_[b]) return preferred_[a] > preferred_[b];
    return activity_[a] > activity_[b];
  }
  void heap_insert(std::uint32_t var);
  void heap_up(std::uint32_t pos);
  void heap_down(std::uint32_t pos);
  std::uint32_t heap_pop();

  bool ok_ = true;  ///< false once the clauses alone are contradictory
  /// Clauses as [size, lit, lit, ...] (the size in a Lit's code); the
  /// first two literals are watched, and a reason clause holds its
  /// implied literal first.
  std::vector<Lit> arena_;
  std::vector<Watch> watch_nodes_;
  std::vector<std::uint32_t> watch_head_;  ///< by literal code; kNil ends

  std::vector<std::uint8_t> assigns_;
  std::vector<std::uint8_t> phase_;  ///< saved polarity
  std::vector<std::uint8_t> preferred_;
  std::vector<std::uint32_t> level_;
  std::vector<std::uint32_t> reason_;
  std::vector<Lit> trail_;
  std::vector<std::uint32_t> trail_lim_;
  std::size_t qhead_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  std::vector<std::uint32_t> heap_;
  std::vector<std::int32_t> heap_pos_;  ///< -1 when not in the heap

  std::vector<std::uint8_t> seen_;
  std::vector<Lit> learnt_;
  std::vector<Lit> scratch_;
  std::vector<std::uint8_t> model_;
  std::uint64_t conflicts_ = 0;
};

}  // namespace socet::atpg::sat
