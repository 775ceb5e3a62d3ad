#include <gtest/gtest.h>

#include "socet/soc/schedule.hpp"
#include "socet/synth/elaborate.hpp"
#include "socet/systems/synthetic.hpp"
#include "socet/systems/systems.hpp"

namespace socet::systems {
namespace {

// ------------------------------------------------------------------- CPU

TEST(Cpu, InterfaceMatchesPaper) {
  auto cpu = make_cpu_rtl();
  EXPECT_EQ(cpu.port(cpu.find_port("Data")).width, 8u);
  EXPECT_EQ(cpu.port(cpu.find_port("AddrLo")).width, 8u);
  EXPECT_EQ(cpu.port(cpu.find_port("AddrHi")).width, 4u);
  EXPECT_NO_THROW(cpu.find_port("Read"));
  EXPECT_NO_THROW(cpu.find_port("Write"));
  EXPECT_NO_THROW(cpu.find_register("IR"));
  EXPECT_NO_THROW(cpu.find_register("ACCUMULATOR"));
  EXPECT_NO_THROW(cpu.find_register("MARpage"));
  EXPECT_NO_THROW(cpu.find_register("MARoff"));
}

TEST(Cpu, VersionMenuTradesLatencyForArea) {
  auto core = core::Core::prepare(make_cpu_rtl());
  ASSERT_EQ(core.version_count(), 3u);
  for (std::size_t v = 1; v < 3; ++v) {
    EXPECT_GT(core.version(v).extra_cells, core.version(v - 1).extra_cells);
  }
  // Version 3 reaches latency 1 on every pair (Figure 5 / Figure 6).
  for (const auto& edge : core.version(2).edges) {
    EXPECT_EQ(edge.latency, 1u);
  }
}

TEST(Cpu, EveryPortTransparentInEveryVersion) {
  auto core = core::Core::prepare(make_cpu_rtl());
  for (const auto& version : core.versions()) {
    // Every output justifiable: appears as some edge's output.
    for (rtl::PortId out : core.netlist().output_ports()) {
      bool covered = false;
      for (const auto& edge : version.edges) covered |= edge.output == out;
      EXPECT_TRUE(covered) << core.netlist().port(out).name << " in "
                           << version.name;
    }
    // Every input propagatable: appears as some edge's input.
    for (rtl::PortId in : core.netlist().input_ports()) {
      bool covered = false;
      for (const auto& edge : version.edges) covered |= edge.input == in;
      EXPECT_TRUE(covered) << core.netlist().port(in).name << " in "
                           << version.name;
    }
  }
}

// ----------------------------------------------------------- PREPROCESSOR

TEST(Preprocessor, MinAreaLatenciesMatchFigure8) {
  auto core = core::Core::prepare(make_preprocessor_rtl());
  const auto num = core.netlist().find_port("NUM");
  const auto db = core.netlist().find_port("DB");
  const auto addr = core.netlist().find_port("Address");

  // Figure 8(a) Version 1: NUM -> DB latency 5, NUM -> Address latency 2.
  auto v1_db = core.version(0).latency(num, db);
  ASSERT_TRUE(v1_db.has_value());
  EXPECT_EQ(*v1_db, 5u);
  auto v1_addr = core.version(0).latency(num, addr);
  ASSERT_TRUE(v1_addr.has_value());
  EXPECT_EQ(*v1_addr, 2u);

  // Version 3: both reach latency 1.
  EXPECT_EQ(core.version(2).latency(num, db).value_or(99), 1u);
  EXPECT_EQ(core.version(2).latency(num, addr).value_or(99), 1u);
}

TEST(Preprocessor, ResetToEocControlChain) {
  auto core = core::Core::prepare(make_preprocessor_rtl());
  const auto reset = core.netlist().find_port("Reset");
  const auto eoc = core.netlist().find_port("Eoc");
  auto latency = core.version(0).latency(reset, eoc);
  ASSERT_TRUE(latency.has_value());
  EXPECT_EQ(*latency, 2u) << "the paper's (Reset, Eoc) latency-2 edge";
}

// ---------------------------------------------------------------- DISPLAY

TEST(Display, FlipFlopAndPortCountsMatchPaper) {
  auto display = make_display_rtl();
  EXPECT_EQ(display.flip_flop_count(), 66u);
  unsigned input_bits = 0;
  for (rtl::PortId id : display.input_ports()) {
    input_bits += display.port(id).width;
  }
  EXPECT_EQ(input_bits, 20u) << "A(12) + D(8) internal inputs";
  EXPECT_EQ(display.output_ports().size(), 6u) << "PO-PORT1..6";
}

TEST(Display, LatencyMenuShape) {
  auto core = core::Core::prepare(make_display_rtl());
  const auto d = core.netlist().find_port("D");
  const auto alo = core.netlist().find_port("ALo");
  // Figure 8(b) shape: D -> OUT faster than A -> OUT in version 1; both
  // reach 1 in version 3.
  unsigned v1_d = 99, v1_a = 99;
  for (const auto& edge : core.version(0).edges) {
    if (edge.input == d) v1_d = std::min(v1_d, edge.latency);
    if (edge.input == alo) v1_a = std::min(v1_a, edge.latency);
  }
  EXPECT_LE(v1_d, v1_a);
  for (const auto& edge : core.version(2).edges) {
    EXPECT_EQ(edge.latency, 1u);
  }
}

// ----------------------------------------------------------- whole system

TEST(System1, BuildsAndPlans) {
  auto system = make_barcode_system();
  auto plan = soc::plan_chip_test(*system.soc, {0, 0, 0});
  EXPECT_EQ(plan.cores.size(), 3u);
  EXPECT_GT(plan.total_tat, 0u);
}

TEST(System1, PreprocessorAddressNeedsSystemMux) {
  // Figure 9: the PREPROCESSOR's Address output is observable only through
  // an added system-level test mux.
  auto system = make_barcode_system();
  auto plan = soc::plan_chip_test(*system.soc, {0, 0, 0});
  const auto pre = system.soc->find_core("PREPROCESSOR");
  const auto addr = system.core_named("PREPROCESSOR").netlist().find_port(
      "Address");
  for (const auto& core_plan : plan.cores) {
    if (core_plan.core != pre) continue;
    bool found = false;
    for (const auto& [port, route] : core_plan.output_routes) {
      if (port == addr) {
        found = true;
        EXPECT_TRUE(route.via_system_mux);
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(System1, DisplayJustifiedThroughPreprocessorAndCpu) {
  // The paper's highlighted Figure 9 path: NUM -> DB -> Data -> Address ->
  // A.  The DISPLAY's address inputs must be routed through at least one
  // other core's transparency (not a system mux).
  auto system = make_barcode_system();
  auto plan = soc::plan_chip_test(*system.soc, {0, 0, 0});
  const auto disp = system.soc->find_core("DISPLAY");
  for (const auto& core_plan : plan.cores) {
    if (core_plan.core != disp) continue;
    for (const auto& [port, route] : core_plan.input_routes) {
      EXPECT_FALSE(route.via_system_mux)
          << "DISPLAY inputs are reachable through existing paths";
      EXPECT_GE(route.steps.size(), 2u);
    }
  }
}

TEST(System1, ChipAreaInPaperBallpark) {
  // Table 2: System 1's original area is 8,014 cells.  The reconstruction
  // targets the same order of magnitude (within 2x).
  auto system = make_barcode_system();
  double area = 0;
  for (const auto& core : system.cores) {
    area += synth::elaborate(core->netlist()).gates.area();
  }
  EXPECT_GT(area, 4000.0);
  EXPECT_LT(area, 16000.0);
}

TEST(System2, BuildsAndPlans) {
  auto system = make_system2();
  EXPECT_EQ(system.cores.size(), 3u);
  auto plan = soc::plan_chip_test(*system.soc, {0, 0, 0});
  EXPECT_EQ(plan.cores.size(), 3u);
  EXPECT_GT(plan.total_tat, 0u);
}

TEST(System2, CoreMenusAreLadders) {
  auto system = make_system2();
  for (const auto& core : system.cores) {
    for (std::size_t v = 1; v < core->version_count(); ++v) {
      EXPECT_GT(core->version(v).extra_cells,
                core->version(v - 1).extra_cells)
          << core->name();
    }
  }
}

TEST(System2, ChipAreaInPaperBallpark) {
  // Table 2: System 2's original area is 5,540 cells (within 2x).
  auto system = make_system2();
  double area = 0;
  for (const auto& core : system.cores) {
    area += synth::elaborate(core->netlist()).gates.area();
  }
  EXPECT_GT(area, 2700.0);
  EXPECT_LT(area, 11000.0);
}

TEST(Systems, AllCoresElaborateAndValidate) {
  for (auto make : {make_cpu_rtl, make_preprocessor_rtl, make_display_rtl,
                    make_graphics_rtl, make_gcd_rtl, make_x25_rtl}) {
    auto netlist = make();
    EXPECT_NO_THROW(netlist.validate());
    auto elab = synth::elaborate(netlist);
    EXPECT_NO_THROW(elab.gates.topo_order()) << netlist.name();
    EXPECT_GT(elab.gates.cell_count(), 100u) << netlist.name();
  }
}

TEST(Systems, SyntheticCoreNetlistsValidate) {
  // The factories leave validation to Core::prepare, so every netlist they
  // return must already be well formed.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SyntheticCoreOptions options;
    options.registers = 2 + static_cast<unsigned>(seed % 5);
    options.with_splits = seed % 2 == 0;
    options.with_cloud = seed % 3 == 0;
    options.inputs = 1 + static_cast<unsigned>(seed % 3);
    options.outputs = 1 + static_cast<unsigned>(seed % 4);
    auto netlist = make_synthetic_core("SYN" + std::to_string(seed), seed,
                                       options);
    EXPECT_NO_THROW(netlist.validate()) << netlist.name();
  }
}

}  // namespace
}  // namespace socet::systems
