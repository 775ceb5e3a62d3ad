#include "socet/core/core.hpp"

#include "socet/obs/trace.hpp"

namespace socet::core {

Core Core::prepare(rtl::Netlist netlist, const CoreCostModels& cost) {
  SOCET_SPAN("core/prepare");
  netlist.validate();
  Core core;
  core.netlist_ = std::make_shared<const rtl::Netlist>(std::move(netlist));
  core.ff_count_ = core.netlist_->flip_flop_count();
  core.hscan_ = hscan::build_hscan(*core.netlist_, cost.hscan);
  core.fscan_cells_ =
      hscan::fscan_overhead_cells(*core.netlist_, cost.hscan);
  transparency::Rcg rcg(*core.netlist_, &core.hscan_);
  core.versions_ = transparency::standard_versions(rcg, cost.transparency);
  return core;
}

Core Core::from_interface(const CoreInterface& interface) {
  util::require(!interface.name.empty(), "from_interface: missing name");
  util::require(!interface.versions.empty(),
                "from_interface: need at least one version");
  rtl::Netlist stub(interface.name);
  for (const rtl::Port& port : interface.ports) {
    if (port.dir == rtl::PortDir::kInput) {
      stub.add_input(port.name, port.width, port.kind);
    } else {
      stub.add_output(port.name, port.width, port.kind);
    }
  }
  Core core;
  core.netlist_ = std::make_shared<const rtl::Netlist>(std::move(stub));
  core.ff_count_ = interface.flip_flops;
  core.scan_vectors_ = interface.scan_vectors;
  core.fscan_cells_ = interface.fscan_overhead_cells;
  core.hscan_.overhead_cells = interface.hscan_overhead_cells;
  core.hscan_.max_depth = interface.hscan_max_depth;
  core.versions_ = interface.versions;
  // Port ids inside version edges must be valid against the stub netlist.
  for (const auto& version : core.versions_) {
    for (const auto& edge : version.edges) {
      util::require(edge.input.index() < core.netlist_->ports().size() &&
                        edge.output.index() < core.netlist_->ports().size(),
                    "from_interface: version edge references unknown port");
    }
  }
  return core;
}

CoreInterface Core::to_interface() const {
  CoreInterface interface;
  interface.name = name();
  interface.ports = netlist_->ports();
  interface.scan_vectors = scan_vectors_;
  interface.hscan_overhead_cells = hscan_.overhead_cells;
  interface.hscan_max_depth = hscan_.max_depth;
  interface.fscan_overhead_cells = fscan_cells_;
  interface.flip_flops = ff_count_;
  interface.versions = versions_;
  return interface;
}

unsigned Core::total_port_bits() const {
  unsigned bits = 0;
  for (const auto& port : netlist_->ports()) bits += port.width;
  return bits;
}

}  // namespace socet::core
