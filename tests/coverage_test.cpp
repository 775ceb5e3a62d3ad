// Targeted tests for behaviours the module suites do not reach: the chip
// flattener, CCG naming, cell-library weighting, route bookkeeping, fault
// descriptions, and assorted error paths.
#include <gtest/gtest.h>

#include "socet/faultsim/faults.hpp"
#include "socet/gate/sim.hpp"
#include "socet/soc/flatten.hpp"
#include "socet/soc/schedule.hpp"
#include "socet/synth/elaborate.hpp"
#include "socet/systems/synthetic.hpp"
#include "socet/systems/systems.hpp"

namespace socet {
namespace {

// ---------------------------------------------------------------- flatten

TEST(Flatten, ChipHasAllPinsAndPrefixedInnards) {
  auto system = systems::make_barcode_system();
  auto flat = soc::flatten(*system.soc);
  EXPECT_EQ(flat.chip.input_ports().size(), system.soc->pis().size());
  EXPECT_EQ(flat.chip.output_ports().size(), system.soc->pos().size());
  EXPECT_NO_THROW(flat.chip.find_register("CPU.IR"));
  EXPECT_NO_THROW(flat.chip.find_register("DISPLAY.SEG6"));
  EXPECT_NO_THROW(flat.chip.find_register("PREPROCESSOR.F4"));
  ASSERT_EQ(flat.instances.size(), 3u);
  EXPECT_TRUE(flat.instances[0].port_proxies.count("Data"));
}

TEST(Flatten, FlipFlopCountIsSumOfCores) {
  auto system = systems::make_barcode_system();
  auto flat = soc::flatten(*system.soc);
  unsigned expected = 0;
  for (const auto& core : system.cores) expected += core->flip_flop_count();
  EXPECT_EQ(flat.chip.flip_flop_count(), expected);
}

TEST(Flatten, ElaboratedChipSimulates) {
  // The flattened barcode chip must at least clock without throwing and
  // respond to its reset-ish inputs.
  auto system = systems::make_barcode_system();
  auto flat = soc::flatten(*system.soc);
  auto elab = synth::elaborate(flat.chip);
  gate::SequentialSim sim(elab.gates);
  sim.reset();
  std::vector<std::uint64_t> zeros(elab.gates.inputs().size(), 0);
  for (int i = 0; i < 4; ++i) sim.step(zeros);
  SUCCEED();
}

// ------------------------------------------------------------- CCG naming

TEST(Ccg, NodeNamesReadable) {
  auto system = systems::make_barcode_system();
  soc::Ccg ccg(*system.soc, {0, 0, 0});
  std::set<std::string> names;
  for (std::uint32_t i = 0; i < ccg.nodes().size(); ++i) {
    names.insert(ccg.node_name(*system.soc, i));
  }
  EXPECT_TRUE(names.count("PI:NUM"));
  EXPECT_TRUE(names.count("PO:PO-PORT1"));
  EXPECT_TRUE(names.count("CPU.Data"));
  EXPECT_TRUE(names.count("PREPROCESSOR.DB"));
}

// ------------------------------------------------------------ cell library

TEST(CellLibrary, WeightsChangeArea) {
  auto elab = synth::elaborate(systems::make_gcd_rtl());
  gate::CellLibrary light;
  light.dff_area = 1.0;
  gate::CellLibrary heavy;
  heavy.dff_area = 10.0;
  const double delta = elab.gates.area(heavy) - elab.gates.area(light);
  EXPECT_DOUBLE_EQ(delta, 9.0 * static_cast<double>(elab.gates.dffs().size()));
  EXPECT_DOUBLE_EQ(gate::CellLibrary{}.area_of(gate::GateKind::kInput), 0.0);
  EXPECT_DOUBLE_EQ(gate::CellLibrary{}.area_of(gate::GateKind::kConst1), 0.0);
}

// ---------------------------------------------------------- route details

TEST(Routes, StepsCarryMonotoneTimes) {
  auto system = systems::make_barcode_system();
  auto plan = soc::plan_chip_test(*system.soc, {0, 0, 0});
  for (const auto& core_plan : plan.cores) {
    for (const auto& [port, route] : core_plan.input_routes) {
      unsigned cursor = 0;
      for (const auto& step : route.steps) {
        EXPECT_GE(step.depart, cursor);
        EXPECT_GE(step.arrive, step.depart);
        cursor = step.arrive;
      }
      if (!route.via_system_mux) {
        EXPECT_EQ(route.arrival, cursor);
      }
    }
  }
}

TEST(Routes, RouteHelpersRespectBannedCore) {
  auto system = systems::make_barcode_system();
  soc::Ccg ccg(*system.soc, {0, 0, 0});
  const auto disp = system.soc->find_core("DISPLAY");
  const auto d_port = system.core_named("DISPLAY").netlist().find_port("D");
  const auto target = ccg.core_in_node(soc::CorePortRef{disp, d_port});
  soc::Reservations reservations(ccg.resource_count());
  // Without banning, a route exists; banning PREPROCESSOR removes the only
  // source of D (it is fed by DB).
  const auto pre = system.soc->find_core("PREPROCESSOR");
  soc::Reservations fresh(ccg.resource_count());
  auto with = soc::route_from_pis(ccg, target, reservations, 0,
                                  static_cast<std::int32_t>(disp));
  auto without = soc::route_from_pis(ccg, target, fresh, 0,
                                     static_cast<std::int32_t>(pre));
  EXPECT_TRUE(with.has_value());
  EXPECT_FALSE(without.has_value());
}

// --------------------------------------------------------- fault describe

TEST(Faults, DescribeUsesGateNames) {
  gate::GateNetlist n("d");
  auto a = n.add_input("alpha");
  auto g = n.add_gate(gate::GateKind::kNand, {a, a}, "");
  (void)g;
  EXPECT_EQ(faultsim::describe_fault(n, {a, -1, true}), "alpha s-a-1");
  EXPECT_EQ(faultsim::describe_fault(n, {g, 0, false}), "g1/in0 s-a-0");
}

// ----------------------------------------------------- synthetic options

TEST(Synthetic, SplitOptionCreatesSplitNodes) {
  systems::SyntheticCoreOptions with;
  with.registers = 10;
  with.with_splits = true;
  systems::SyntheticCoreOptions without;
  without.registers = 10;
  without.with_splits = false;

  bool any_split = false;
  for (std::uint64_t seed = 1; seed <= 12 && !any_split; ++seed) {
    auto netlist = systems::make_synthetic_core("s", seed, with);
    transparency::Rcg rcg(netlist, rtl::enumerate_transfer_paths(netlist));
    for (const auto& node : rcg.nodes()) any_split |= node.c_split;
  }
  EXPECT_TRUE(any_split) << "no C-split produced across 12 seeds";

  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    auto netlist = systems::make_synthetic_core("s", seed, without);
    transparency::Rcg rcg(netlist, rtl::enumerate_transfer_paths(netlist));
    for (const auto& node : rcg.nodes()) {
      EXPECT_FALSE(node.c_split) << "seed " << seed;
    }
  }
}

TEST(Synthetic, SystemsScaleWithCoreCount) {
  systems::SyntheticSocOptions small;
  small.cores = 2;
  systems::SyntheticSocOptions large;
  large.cores = 8;
  auto a = systems::make_synthetic_system(3, small);
  auto b = systems::make_synthetic_system(3, large);
  EXPECT_EQ(a.soc->cores().size(), 2u);
  EXPECT_EQ(b.soc->cores().size(), 8u);
  // Both plan cleanly.
  EXPECT_NO_THROW(soc::plan_chip_test(
      *a.soc, std::vector<unsigned>(2, 0)));
  EXPECT_NO_THROW(soc::plan_chip_test(
      *b.soc, std::vector<unsigned>(8, 0)));
}

// ------------------------------------------------------------ error paths

TEST(ErrorPaths, CoreVersionOutOfRange) {
  auto system = systems::make_barcode_system();
  EXPECT_THROW(system.cores[0]->version(99), std::out_of_range);
}

TEST(ErrorPaths, CcgRequiresMatchingSelection) {
  auto system = systems::make_barcode_system();
  EXPECT_THROW(soc::Ccg(*system.soc, {0}), util::Error);
}

TEST(ErrorPaths, PlanSelectionSizeChecked) {
  auto system = systems::make_barcode_system();
  EXPECT_THROW(soc::plan_chip_test(*system.soc, {0, 0}), util::Error);
}

}  // namespace
}  // namespace socet
