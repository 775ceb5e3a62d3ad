#include "socet/gate/netlist.hpp"

#include <algorithm>

namespace socet::gate {

namespace {

bool arity_ok(GateKind kind, std::size_t n) {
  switch (kind) {
    case GateKind::kInput:
    case GateKind::kConst0:
    case GateKind::kConst1:
      return n == 0;
    case GateKind::kBuf:
    case GateKind::kNot:
    case GateKind::kDff:
      return n == 1;
    case GateKind::kXor:
    case GateKind::kXnor:
      return n == 2;
    case GateKind::kAnd:
    case GateKind::kOr:
    case GateKind::kNand:
    case GateKind::kNor:
      return n >= 2;
  }
  return false;
}

}  // namespace

GateId GateNetlist::add_input(const std::string& name) {
  gates_.push_back(Gate{GateKind::kInput, {}, name});
  const GateId id(static_cast<std::uint32_t>(gates_.size() - 1));
  inputs_.push_back(id);
  order_valid_ = false;
  return id;
}

GateId GateNetlist::add_gate(GateKind kind, std::vector<GateId> fanin,
                             const std::string& name) {
  util::require(kind != GateKind::kInput, "add_gate: use add_input");
  util::require(kind != GateKind::kDff, "add_gate: use add_dff");
  if (!arity_ok(kind, fanin.size())) {
    util::raise("add_gate: wrong fanin count for gate kind on '" + name + "'");
  }
  for (GateId f : fanin) {
    util::require(f.index() < gates_.size(), "add_gate: dangling fanin");
  }
  gates_.push_back(Gate{kind, std::move(fanin), name});
  order_valid_ = false;
  return GateId(static_cast<std::uint32_t>(gates_.size() - 1));
}

GateId GateNetlist::add_dff(GateId d, const std::string& name) {
  util::require(d.index() < gates_.size(), "add_dff: dangling fanin");
  gates_.push_back(Gate{GateKind::kDff, {d}, name});
  const GateId id(static_cast<std::uint32_t>(gates_.size() - 1));
  dffs_.push_back(id);
  order_valid_ = false;
  return id;
}

GateId GateNetlist::add_dff_floating(const std::string& name) {
  gates_.push_back(Gate{GateKind::kDff, {}, name});
  const GateId id(static_cast<std::uint32_t>(gates_.size() - 1));
  dffs_.push_back(id);
  order_valid_ = false;
  return id;
}

void GateNetlist::set_dff_input(GateId dff, GateId d) {
  util::require(dff.index() < gates_.size(), "set_dff_input: bad dff id");
  Gate& g = gates_[dff.index()];
  util::require(g.kind == GateKind::kDff, "set_dff_input: gate is not a DFF");
  util::require(g.fanin.empty(), "set_dff_input: D already connected");
  util::require(d.index() < gates_.size(), "set_dff_input: dangling fanin");
  g.fanin = {d};
  order_valid_ = false;
}

void GateNetlist::mark_output(GateId gate) {
  util::require(gate.index() < gates_.size(), "mark_output: bad gate id");
  outputs_.push_back(gate);
}

std::size_t GateNetlist::cell_count() const {
  std::size_t n = 0;
  for (const auto& g : gates_) {
    if (g.kind != GateKind::kInput && g.kind != GateKind::kConst0 &&
        g.kind != GateKind::kConst1) {
      ++n;
    }
  }
  return n;
}

double GateNetlist::area(const CellLibrary& lib) const {
  double total = 0.0;
  for (const auto& g : gates_) total += lib.area_of(g.kind);
  return total;
}

const std::vector<GateId>& GateNetlist::topo_order() const {
  if (!order_valid_) build_order();
  return topo_;
}

const std::vector<std::vector<GateId>>& GateNetlist::fanouts() const {
  if (!order_valid_) build_order();
  return fanouts_;
}

void GateNetlist::build_order() const {
  const std::size_t n = gates_.size();
  for (const GateId id : dffs_) {
    if (gates_[id.index()].fanin.size() != 1) {
      util::raise("topo_order: DFF left floating in " + name_);
    }
  }
  fanouts_.assign(n, {});
  std::vector<std::uint32_t> pending(n, 0);

  for (std::size_t i = 0; i < n; ++i) {
    const auto& g = gates_[i];
    if (g.kind == GateKind::kDff) continue;  // DFF is a source in comb. view
    pending[i] = static_cast<std::uint32_t>(g.fanin.size());
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (GateId f : gates_[i].fanin) {
      fanouts_[f.index()].push_back(GateId(static_cast<std::uint32_t>(i)));
    }
  }

  topo_.clear();
  topo_.reserve(n);
  std::vector<GateId> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (pending[i] == 0) ready.push_back(GateId(static_cast<std::uint32_t>(i)));
  }
  while (!ready.empty()) {
    const GateId id = ready.back();
    ready.pop_back();
    topo_.push_back(id);
    for (GateId out : fanouts_[id.index()]) {
      if (gates_[out.index()].kind == GateKind::kDff) continue;
      if (--pending[out.index()] == 0) ready.push_back(out);
    }
  }
  if (topo_.size() != n) {
    util::raise("topo_order: combinational cycle in " + name_);
  }
  order_valid_ = true;
}

}  // namespace socet::gate
