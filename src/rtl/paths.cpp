#include "socet/rtl/paths.hpp"

#include <algorithm>

namespace socet::rtl {

namespace {

/// DFS frame: we are at driver pin `pin`, whose bits [pin_lo, pin_lo+width)
/// currently carry source bits [src_lo, src_lo+width).
struct Frame {
  PinRef pin;
  unsigned pin_lo;
  unsigned src_lo;
  unsigned width;
};

class PathEnumerator {
 public:
  explicit PathEnumerator(const Netlist& netlist) : netlist_(netlist) {
    // Connections sorted by driver pin, each pin's run kept in connection
    // order, so a DFS step finds its fanout by binary search.
    by_from_.reserve(netlist.connections().size());
    for (const Connection& conn : netlist.connections()) {
      by_from_.push_back(&conn);
    }
    std::stable_sort(by_from_.begin(), by_from_.end(),
                     [](const Connection* a, const Connection* b) {
                       return a->from < b->from;
                     });
  }

  std::vector<TransferPath> run() {
    for (PortId id : netlist_.input_ports()) {
      src_ = port_node(netlist_, id);
      const PinRef pin = netlist_.pin(id);
      explore(Frame{pin, 0, 0, netlist_.pin_width(pin)});
    }
    for (std::size_t i = 0; i < netlist_.registers().size(); ++i) {
      const RegisterId id(static_cast<std::uint32_t>(i));
      src_ = register_node(id);
      const PinRef pin = netlist_.reg_q(id);
      explore(Frame{pin, 0, 0, netlist_.pin_width(pin)});
    }
    return std::move(paths_);
  }

 private:
  void explore(const Frame& frame) {
    auto it = std::lower_bound(
        by_from_.begin(), by_from_.end(), frame.pin,
        [](const Connection* conn, const PinRef& pin) {
          return conn->from < pin;
        });
    for (; it != by_from_.end() && (*it)->from == frame.pin; ++it) {
      const Connection* conn = *it;
      // Intersect the carried range with the connection's source slice.
      const unsigned lo = std::max(frame.pin_lo, conn->from_lo);
      const unsigned hi = std::min(frame.pin_lo + frame.width,
                                   conn->from_lo + conn->width);
      if (lo >= hi) continue;
      const unsigned width = hi - lo;
      const unsigned src_lo = frame.src_lo + (lo - frame.pin_lo);
      const unsigned to_lo = conn->to_lo + (lo - conn->from_lo);

      switch (conn->to.role) {
        case PinRole::kRegD: {
          emit(RegisterId(conn->to.comp.index), src_lo, to_lo, width);
          break;
        }
        case PinRole::kPort: {
          emit_port(PortId(conn->to.comp.index), src_lo, to_lo, width);
          break;
        }
        case PinRole::kMuxData: {
          const MuxId mux(conn->to.comp.index);
          if (std::any_of(hops_.begin(), hops_.end(),
                          [&](const MuxHop& h) { return h.mux == mux; })) {
            break;  // combinational mux loop: not a physical data path
          }
          hops_.push_back(MuxHop{mux, conn->to.arg});
          explore(Frame{netlist_.mux_out(mux), to_lo, src_lo, width});
          hops_.pop_back();
          break;
        }
        default:
          // Select, load, FU operand: data is transformed or consumed as
          // control, so no transparency transfer path continues here.
          break;
      }
    }
  }

  void emit(RegisterId reg, unsigned src_lo, unsigned dst_lo, unsigned width) {
    paths_.push_back(
        TransferPath{src_, register_node(reg), src_lo, dst_lo, width, hops_});
  }

  void emit_port(PortId port, unsigned src_lo, unsigned dst_lo,
                 unsigned width) {
    paths_.push_back(TransferPath{src_, port_node(netlist_, port), src_lo,
                                  dst_lo, width, hops_});
  }

  const Netlist& netlist_;
  std::vector<const Connection*> by_from_;
  NodeRef src_;
  std::vector<MuxHop> hops_;
  std::vector<TransferPath> paths_;
};

}  // namespace

std::vector<TransferPath> enumerate_transfer_paths(const Netlist& netlist) {
  return PathEnumerator(netlist).run();
}

unsigned node_width(const Netlist& netlist, const NodeRef& node) {
  switch (node.kind) {
    case NodeKind::kInputPort:
    case NodeKind::kOutputPort:
      return netlist.ports().at(node.index).width;
    case NodeKind::kRegister:
      return netlist.registers().at(node.index).width;
  }
  util::raise("node_width: unknown node kind");
}

std::string node_name(const Netlist& netlist, const NodeRef& node) {
  switch (node.kind) {
    case NodeKind::kInputPort:
    case NodeKind::kOutputPort:
      return netlist.ports().at(node.index).name;
    case NodeKind::kRegister:
      return netlist.registers().at(node.index).name;
  }
  return "?";
}

NodeRef port_node(const Netlist& netlist, PortId id) {
  const auto& port = netlist.port(id);
  return NodeRef{port.dir == PortDir::kInput ? NodeKind::kInputPort
                                             : NodeKind::kOutputPort,
                 id.value()};
}

NodeRef register_node(RegisterId id) {
  return NodeRef{NodeKind::kRegister, id.value()};
}

}  // namespace socet::rtl
