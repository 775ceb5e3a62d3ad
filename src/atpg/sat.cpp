#include "socet/atpg/sat.hpp"

#include <algorithm>

#include "socet/util/error.hpp"

namespace socet::atpg::sat {

namespace {

/// Conflicts between restarts, scaled by the Luby sequence.
constexpr std::uint64_t kRestartConflicts = 32;
constexpr double kActivityDecay = 0.95;

/// The i-th element (from 0) of the Luby sequence 1 1 2 1 1 2 4 1 1 2 ...
std::uint64_t luby(std::uint64_t i) {
  std::uint64_t size = 1;
  unsigned seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) >> 1;
    --seq;
    i %= size;
  }
  return std::uint64_t{1} << seq;
}

}  // namespace

void Solver::clear() {
  ok_ = true;
  arena_.clear();
  watch_nodes_.clear();
  watch_head_.clear();
  assigns_.clear();
  phase_.clear();
  preferred_.clear();
  level_.clear();
  reason_.clear();
  trail_.clear();
  trail_lim_.clear();
  qhead_ = 0;
  activity_.clear();
  var_inc_ = 1.0;
  heap_.clear();
  heap_pos_.clear();
  seen_.clear();
  model_.clear();
  conflicts_ = 0;
}

void Solver::reserve(std::size_t vars, std::size_t clauses,
                     std::size_t literals) {
  // Headroom for the clauses a conflict-limited search learns.
  const std::size_t learned = literals / 8 + 1024;
  arena_.reserve(clauses + literals + learned);
  watch_nodes_.reserve(2 * clauses + learned);
  watch_head_.reserve(2 * vars);
  assigns_.reserve(vars);
  phase_.reserve(vars);
  preferred_.reserve(vars);
  level_.reserve(vars);
  reason_.reserve(vars);
  trail_.reserve(vars);
  activity_.reserve(vars);
  heap_.reserve(vars);
  heap_pos_.reserve(vars);
  seen_.reserve(vars);
}

std::uint32_t Solver::new_var(bool preferred) {
  const std::uint32_t v = var_count();
  assigns_.push_back(kUndef);
  phase_.push_back(kFalse);
  preferred_.push_back(preferred ? 1 : 0);
  level_.push_back(0);
  reason_.push_back(kNoReason);
  activity_.push_back(0.0);
  heap_pos_.push_back(-1);
  seen_.push_back(0);
  watch_head_.insert(watch_head_.end(), 2, kNil);
  heap_insert(v);
  return v;
}

void Solver::add_clause(std::span<const Lit> lits) {
  SOCET_ASSERT(level() == 0, "sat: clauses are added before solving");
  if (!ok_) return;
  scratch_.assign(lits.begin(), lits.end());
  std::sort(scratch_.begin(), scratch_.end(),
            [](Lit a, Lit b) { return a.code < b.code; });
  std::size_t kept = 0;
  for (const Lit l : scratch_) {
    SOCET_ASSERT(l.var() < var_count(), "sat: literal of an unknown variable");
    // Sorting puts x, x and ~x next to each other.
    if (value(l) == kTrue || (kept > 0 && scratch_[kept - 1] == ~l)) return;
    if (value(l) == kFalse || (kept > 0 && scratch_[kept - 1] == l)) continue;
    scratch_[kept++] = l;
  }
  scratch_.resize(kept);
  if (kept == 0) {
    ok_ = false;
  } else if (kept == 1) {
    enqueue(scratch_[0], kNoReason);
    ok_ = propagate() == kNoReason;
  } else {
    attach(scratch_);
  }
}

std::uint32_t Solver::attach(std::span<const Lit> lits) {
  const auto clause = static_cast<std::uint32_t>(arena_.size());
  arena_.push_back(Lit{static_cast<std::uint32_t>(lits.size())});
  arena_.insert(arena_.end(), lits.begin(), lits.end());
  watch(lits[0], clause, lits[1]);
  watch(lits[1], clause, lits[0]);
  return clause;
}

void Solver::enqueue(Lit l, std::uint32_t reason) {
  const std::uint32_t v = l.var();
  assigns_[v] = l.negated() ? kFalse : kTrue;
  level_[v] = level();
  reason_[v] = reason;
  trail_.push_back(l);
}

std::uint32_t Solver::propagate() {
  while (qhead_ < trail_.size()) {
    const Lit false_lit = ~trail_[qhead_++];
    // `link` is the slot that points at the current node, so a node that
    // moves to another literal's chain is unlinked in place.
    std::uint32_t* link = &watch_head_[false_lit.code];
    while (*link != kNil) {
      const std::uint32_t node = *link;
      Watch& w = watch_nodes_[node];
      if (value(w.blocker) == kTrue) {
        link = &w.next;
        continue;
      }
      Lit* c = lits_of(w.clause);
      const std::uint32_t size = arena_[w.clause].code;
      if (c[0] == false_lit) std::swap(c[0], c[1]);
      const Lit first = c[0];
      w.blocker = first;
      if (value(first) == kTrue) {
        link = &w.next;
        continue;
      }
      std::uint32_t k = 2;
      while (k < size && value(c[k]) == kFalse) ++k;
      if (k < size) {
        std::swap(c[1], c[k]);
        *link = w.next;
        w.next = watch_head_[c[1].code];
        watch_head_[c[1].code] = node;
        continue;
      }
      link = &w.next;
      if (value(first) == kFalse) {
        qhead_ = trail_.size();
        return w.clause;
      }
      enqueue(first, w.clause);
    }
  }
  return kNoReason;
}

void Solver::analyze(std::uint32_t conflict, std::uint32_t& backtrack_level) {
  // First-UIP: resolve the conflict with the reasons of the current
  // level's literals, newest first, until one current-level literal is
  // left.  learnt_[0] is reserved for its negation.
  learnt_.assign(1, Lit{});
  std::uint32_t open = 0;
  std::size_t index = trail_.size();
  std::uint32_t clause = conflict;
  Lit p{};
  bool have_p = false;
  do {
    const Lit* c = lits_of(clause);
    const std::uint32_t size = arena_[clause].code;
    for (std::uint32_t k = have_p ? 1 : 0; k < size; ++k) {
      const std::uint32_t v = c[k].var();
      if (seen_[v] || level_[v] == 0) continue;
      bump(v);
      seen_[v] = 1;
      if (level_[v] >= level()) {
        ++open;
      } else {
        learnt_.push_back(c[k]);
      }
    }
    while (!seen_[trail_[--index].var()]) {
    }
    p = trail_[index];
    have_p = true;
    clause = reason_[p.var()];
    seen_[p.var()] = 0;
    --open;
  } while (open > 0);
  learnt_[0] = ~p;

  // Local minimization: drop a literal whose reason's other literals are
  // all in the clause already (or fixed at level 0).
  scratch_.assign(learnt_.begin(), learnt_.end());
  std::size_t kept = 1;
  for (std::size_t i = 1; i < learnt_.size(); ++i) {
    if (!redundant_in_learnt(learnt_[i])) learnt_[kept++] = learnt_[i];
  }
  learnt_.resize(kept);
  for (const Lit l : scratch_) seen_[l.var()] = 0;

  backtrack_level = 0;
  if (learnt_.size() > 1) {
    std::size_t deepest = 1;
    for (std::size_t i = 2; i < learnt_.size(); ++i) {
      if (level_[learnt_[i].var()] > level_[learnt_[deepest].var()]) {
        deepest = i;
      }
    }
    std::swap(learnt_[1], learnt_[deepest]);
    backtrack_level = level_[learnt_[1].var()];
  }
}

bool Solver::redundant_in_learnt(Lit l) {
  const std::uint32_t reason = reason_[l.var()];
  if (reason == kNoReason) return false;
  const Lit* c = lits_of(reason);
  const std::uint32_t size = arena_[reason].code;
  for (std::uint32_t k = 1; k < size; ++k) {
    const std::uint32_t v = c[k].var();
    if (!seen_[v] && level_[v] > 0) return false;
  }
  return true;
}

void Solver::cancel_until(std::uint32_t target) {
  if (level() <= target) return;
  const std::uint32_t keep = trail_lim_[target];
  for (std::size_t i = trail_.size(); i-- > keep;) {
    const std::uint32_t v = trail_[i].var();
    phase_[v] = assigns_[v];
    assigns_[v] = kUndef;
    reason_[v] = kNoReason;
    if (heap_pos_[v] < 0) heap_insert(v);
  }
  trail_.resize(keep);
  trail_lim_.resize(target);
  qhead_ = trail_.size();
}

bool Solver::decide() {
  while (!heap_.empty()) {
    const std::uint32_t v = heap_pop();
    if (assigns_[v] != kUndef) continue;
    trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
    enqueue(phase_[v] == kTrue ? Lit::pos(v) : Lit::neg(v), kNoReason);
    return true;
  }
  return false;
}

Result Solver::solve(std::uint64_t conflict_limit) {
  conflicts_ = 0;
  if (!ok_) return Result::kUnsat;
  if (propagate() != kNoReason) {
    ok_ = false;
    return Result::kUnsat;
  }
  std::uint64_t restarts = 0;
  std::uint64_t budget = luby(restarts) * kRestartConflicts;
  std::uint64_t since_restart = 0;
  while (true) {
    const std::uint32_t conflict = propagate();
    if (conflict != kNoReason) {
      ++conflicts_;
      ++since_restart;
      if (level() == 0) {
        ok_ = false;
        return Result::kUnsat;
      }
      std::uint32_t backtrack_level = 0;
      analyze(conflict, backtrack_level);
      cancel_until(backtrack_level);
      enqueue(learnt_[0], learnt_.size() == 1 ? kNoReason : attach(learnt_));
      var_inc_ /= kActivityDecay;
      if (conflicts_ >= conflict_limit) {
        cancel_until(0);
        return Result::kUnknown;
      }
      continue;
    }
    if (since_restart >= budget) {
      cancel_until(0);
      since_restart = 0;
      budget = luby(++restarts) * kRestartConflicts;
      continue;
    }
    if (!decide()) {
      model_ = assigns_;
      cancel_until(0);
      return Result::kSat;
    }
  }
}

void Solver::bump(std::uint32_t var) {
  activity_[var] += var_inc_;
  if (activity_[var] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_pos_[var] >= 0) heap_up(static_cast<std::uint32_t>(heap_pos_[var]));
}

void Solver::heap_insert(std::uint32_t var) {
  heap_pos_[var] = static_cast<std::int32_t>(heap_.size());
  heap_.push_back(var);
  heap_up(static_cast<std::uint32_t>(heap_.size() - 1));
}

void Solver::heap_up(std::uint32_t pos) {
  const std::uint32_t var = heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    if (!heap_before(var, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    heap_pos_[heap_[pos]] = static_cast<std::int32_t>(pos);
    pos = parent;
  }
  heap_[pos] = var;
  heap_pos_[var] = static_cast<std::int32_t>(pos);
}

void Solver::heap_down(std::uint32_t pos) {
  const std::uint32_t var = heap_[pos];
  const auto size = static_cast<std::uint32_t>(heap_.size());
  while (true) {
    std::uint32_t child = 2 * pos + 1;
    if (child >= size) break;
    if (child + 1 < size && heap_before(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!heap_before(heap_[child], var)) break;
    heap_[pos] = heap_[child];
    heap_pos_[heap_[pos]] = static_cast<std::int32_t>(pos);
    pos = child;
  }
  heap_[pos] = var;
  heap_pos_[var] = static_cast<std::int32_t>(pos);
}

std::uint32_t Solver::heap_pop() {
  const std::uint32_t top = heap_[0];
  heap_pos_[top] = -1;
  const std::uint32_t last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    heap_pos_[last] = 0;
    heap_down(0);
  }
  return top;
}

}  // namespace socet::atpg::sat
