#include "socet/soc/schedule.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include <map>
#include <set>

#include "socet/obs/journal.hpp"
#include "socet/obs/metrics.hpp"
#include "socet/obs/resource.hpp"
#include "socet/obs/trace.hpp"

namespace socet::soc {

namespace {

constexpr unsigned kInf = std::numeric_limits<unsigned>::max() / 4;

/// Reservation duration of an edge: latency-0 interconnect still occupies
/// its wire for the cycle in which the value crosses it.
unsigned duration_of(const CcgEdge& edge) {
  return std::max(edge.latency, 1u);
}

struct Label {
  unsigned arrival;
  std::uint32_t node;
  friend bool operator>(const Label& a, const Label& b) {
    return a.arrival > b.arrival;
  }
};

/// Time-aware Dijkstra from a set of sources.  Returns per-node arrival
/// times and predecessor edges.
void dijkstra(const Ccg& ccg, const std::vector<std::uint32_t>& sources,
              const Reservations& reservations, unsigned earliest,
              std::int32_t banned_core, std::vector<unsigned>& arrival,
              std::vector<std::int32_t>& pred_edge) {
  SOCET_COUNT("ccg/dijkstra_runs");
  arrival.assign(ccg.nodes().size(), kInf);
  pred_edge.assign(ccg.nodes().size(), -1);
  std::priority_queue<Label, std::vector<Label>, std::greater<>> heap;
  for (std::uint32_t s : sources) {
    arrival[s] = earliest;
    heap.push(Label{earliest, s});
  }
  while (!heap.empty()) {
    const Label top = heap.top();
    heap.pop();
    if (top.arrival > arrival[top.node]) continue;
    for (std::uint32_t e : ccg.out_edges()[top.node]) {
      const CcgEdge& edge = ccg.edges()[e];
      // The core under test sits in scan mode: its own transparency
      // edges are unavailable for routing.
      if (banned_core >= 0 && edge.core == banned_core) continue;
      // The value departs once the shared resource is free, then takes
      // `latency` cycles to cross.
      SOCET_COUNT("ccg/relaxations");
      const unsigned depart =
          reservations.earliest_free(edge.resource, top.arrival,
                                     duration_of(edge));
      if (depart != top.arrival) SOCET_COUNT("ccg/reservation_conflicts");
      const unsigned reach = depart + edge.latency;
      if (reach < arrival[edge.dst]) {
        arrival[edge.dst] = reach;
        pred_edge[edge.dst] = static_cast<std::int32_t>(e);
        heap.push(Label{reach, edge.dst});
      }
    }
  }
}

Route extract_route(const Ccg& ccg, const std::vector<unsigned>& arrival,
                    const std::vector<std::int32_t>& pred_edge,
                    std::uint32_t target, Reservations& reservations) {
  SOCET_COUNT("ccg/routes_found");
  Route route;
  route.arrival = arrival[target];
  std::uint32_t node = target;
  while (pred_edge[node] >= 0) {
    const std::uint32_t e = static_cast<std::uint32_t>(pred_edge[node]);
    const CcgEdge& edge = ccg.edges()[e];
    const unsigned arrive = arrival[node];
    route.steps.push_back(RouteStep{e, arrive - edge.latency, arrive});
    node = edge.src;
  }
  std::reverse(route.steps.begin(), route.steps.end());
  for (const RouteStep& step : route.steps) {
    reservations.reserve(ccg.edges()[step.edge].resource, step.depart,
                         duration_of(ccg.edges()[step.edge]));
  }
  return route;
}

}  // namespace

unsigned Reservations::earliest_free(std::uint32_t resource, unsigned t,
                                     unsigned duration) const {
  const auto& intervals = busy_.at(resource);
  unsigned start = t;
  bool moved = true;
  while (moved) {
    moved = false;
    for (const auto& [lo, hi] : intervals) {
      if (start < hi && lo < start + duration) {
        start = hi;
        moved = true;
      }
    }
  }
  return start;
}

void Reservations::reserve(std::uint32_t resource, unsigned t,
                           unsigned duration) {
  busy_.at(resource).emplace_back(t, t + duration);
}

std::optional<Route> route_from_pis(const Ccg& ccg, std::uint32_t target,
                                    Reservations& reservations,
                                    unsigned earliest,
                                    std::int32_t banned_core) {
  std::vector<std::uint32_t> sources;
  for (std::uint32_t i = 0; i < ccg.nodes().size(); ++i) {
    if (ccg.nodes()[i].kind == CcgNodeKind::kPi) sources.push_back(i);
  }
  std::vector<unsigned> arrival;
  std::vector<std::int32_t> pred;
  dijkstra(ccg, sources, reservations, earliest, banned_core, arrival, pred);
  if (arrival[target] >= kInf) return std::nullopt;
  return extract_route(ccg, arrival, pred, target, reservations);
}

std::optional<Route> route_to_pos(const Ccg& ccg, std::uint32_t source,
                                  Reservations& reservations,
                                  unsigned earliest,
                                  std::int32_t banned_core) {
  std::vector<unsigned> arrival;
  std::vector<std::int32_t> pred;
  dijkstra(ccg, {source}, reservations, earliest, banned_core, arrival, pred);
  std::uint32_t best = kInf;
  unsigned best_arrival = kInf;
  for (std::uint32_t i = 0; i < ccg.nodes().size(); ++i) {
    if (ccg.nodes()[i].kind == CcgNodeKind::kPo &&
        arrival[i] < best_arrival) {
      best = i;
      best_arrival = arrival[i];
    }
  }
  if (best_arrival >= kInf) return std::nullopt;
  return extract_route(ccg, arrival, pred, best, reservations);
}

ChipTestPlan plan_chip_test(const Soc& soc,
                            const std::vector<unsigned>& selection,
                            const PlanOptions& options) {
  SOCET_SPAN("soc/plan_chip_test");
  SOCET_RESOURCE_SCOPE("soc/plan_chip_test");
  SOCET_COUNT("soc/plans");
  soc.validate();
  Ccg ccg(soc, selection);
  ChipTestPlan plan;
  plan.controller_cells = options.controller_cells;
  for (std::uint32_t c = 0; c < soc.cores().size(); ++c) {
    plan.version_cells += soc.core(c).version(selection[c]).extra_cells;
  }

  std::set<CorePortRef> forced_in(options.forced_input_muxes.begin(),
                                  options.forced_input_muxes.end());
  std::set<CorePortRef> forced_out(options.forced_output_muxes.begin(),
                                   options.forced_output_muxes.end());

  // Journal rendering of a chosen route: the node path with any
  // reservation-forced departure slides called out (` =+2=> ` means the
  // value waited two cycles for the shared resource).  `shift` sums the
  // slides — Section 5.1's serialization cost made visible.
  const auto describe_route = [&ccg, &soc](const Route& route,
                                           unsigned* shift_out) {
    std::string path;
    unsigned shift = 0;
    unsigned at = 0;
    for (std::size_t i = 0; i < route.steps.size(); ++i) {
      const RouteStep& step = route.steps[i];
      const CcgEdge& edge = ccg.edges()[step.edge];
      if (i == 0) path = ccg.node_name(soc, edge.src);
      const unsigned slide = step.depart - at;
      shift += slide;
      path += slide > 0 ? " =+" + std::to_string(slide) + "=> " : " -> ";
      path += ccg.node_name(soc, edge.dst);
      at = step.arrive;
    }
    *shift_out = shift;
    return path;
  };

  for (std::uint32_t c = 0; c < soc.cores().size(); ++c) {
    const core::Core& cut = soc.core(c);
    if (cut.scan_vectors() == 0) {
      util::raise("plan_chip_test: core '" + cut.name() +
                  "' has no test set (set_scan_vectors first)");
    }
    SOCET_SPAN("ccg/plan_core");
    CoreTestPlan core_plan;
    core_plan.core = c;
    Reservations reservations(ccg.resource_count());

    // Justify every input of the core under test from the chip PIs.
    unsigned period = 1;
    for (std::uint32_t p = 0; p < cut.netlist().ports().size(); ++p) {
      const rtl::PortId port(p);
      if (cut.netlist().port(port).dir != rtl::PortDir::kInput) continue;
      const std::uint32_t target = ccg.core_in_node(CorePortRef{c, port});
      std::optional<Route> route;
      if (!forced_in.count(CorePortRef{c, port})) {
        if (options.ignore_reservations) {
          Reservations scratch(ccg.resource_count());
          route = route_from_pis(ccg, target, scratch, 0,
                                 static_cast<std::int32_t>(c));
        } else {
          route = route_from_pis(ccg, target, reservations, 0,
                                 static_cast<std::int32_t>(c));
        }
      }
      if (!route) {
        SOCET_COUNT("ccg/mux_fallbacks");
        Route mux_route;
        mux_route.via_system_mux = true;
        mux_route.arrival = 1;  // PI -> test mux -> core input, one cycle
        const unsigned mux_cells =
            options.system_mux_per_bit * cut.netlist().port(port).width +
            options.system_mux_control;
        core_plan.system_mux_cells += mux_cells;
        SOCET_EVENT("ccg/mux", {"core", cut.name()},
                    {"port", cut.netlist().port(port).name},
                    {"dir", "justify"},
                    {"width", cut.netlist().port(port).width},
                    {"cells", mux_cells},
                    {"reason", forced_in.count(CorePortRef{c, port}) != 0
                                   ? "forced"
                                   : "no_route"});
        route = mux_route;
      } else if (obs::journal_enabled()) {
        unsigned shift = 0;
        const std::string path = describe_route(*route, &shift);
        SOCET_EVENT("ccg/route", {"core", cut.name()},
                    {"port", cut.netlist().port(port).name},
                    {"dir", "justify"}, {"arrival", route->arrival},
                    {"shift", shift}, {"steps", route->steps.size()},
                    {"path", path});
      }
      period = std::max(period, std::max(route->arrival, 1u));
      core_plan.input_routes.emplace_back(port, std::move(*route));
    }

    // Observe every output at the chip POs.
    Reservations observe_reservations(ccg.resource_count());
    unsigned observe = 0;
    for (std::uint32_t p = 0; p < cut.netlist().ports().size(); ++p) {
      const rtl::PortId port(p);
      if (cut.netlist().port(port).dir != rtl::PortDir::kOutput) continue;
      const std::uint32_t source = ccg.core_out_node(CorePortRef{c, port});
      std::optional<Route> route;
      if (!forced_out.count(CorePortRef{c, port})) {
        if (options.ignore_reservations) {
          Reservations scratch(ccg.resource_count());
          route = route_to_pos(ccg, source, scratch, 0,
                               static_cast<std::int32_t>(c));
        } else {
          route = route_to_pos(ccg, source, observe_reservations, 0,
                               static_cast<std::int32_t>(c));
        }
      }
      if (!route) {
        SOCET_COUNT("ccg/mux_fallbacks");
        Route mux_route;
        mux_route.via_system_mux = true;
        mux_route.arrival = 0;  // core output -> test mux -> PO
        const unsigned mux_cells =
            options.system_mux_per_bit * cut.netlist().port(port).width +
            options.system_mux_control;
        core_plan.system_mux_cells += mux_cells;
        SOCET_EVENT("ccg/mux", {"core", cut.name()},
                    {"port", cut.netlist().port(port).name},
                    {"dir", "observe"},
                    {"width", cut.netlist().port(port).width},
                    {"cells", mux_cells},
                    {"reason", forced_out.count(CorePortRef{c, port}) != 0
                                   ? "forced"
                                   : "no_route"});
        route = mux_route;
      } else if (obs::journal_enabled()) {
        unsigned shift = 0;
        const std::string path = describe_route(*route, &shift);
        SOCET_EVENT("ccg/route", {"core", cut.name()},
                    {"port", cut.netlist().port(port).name},
                    {"dir", "observe"}, {"arrival", route->arrival},
                    {"shift", shift}, {"steps", route->steps.size()},
                    {"path", path});
      }
      observe = std::max(observe, route->arrival);
      core_plan.output_routes.emplace_back(port, std::move(*route));
    }

    // Edge-usage statistics for the optimizer.
    auto count_route = [&](const Route& route) {
      for (const RouteStep& step : route.steps) {
        const CcgEdge& edge = ccg.edges()[step.edge];
        if (edge.core < 0) continue;
        const auto& in = ccg.nodes()[edge.src].core_port.port;
        const auto& out = ccg.nodes()[edge.dst].core_port.port;
        ++plan.edge_use[{static_cast<std::uint32_t>(edge.core), in, out}];
      }
    };
    for (const auto& [port, route] : core_plan.input_routes) {
      count_route(route);
    }
    for (const auto& [port, route] : core_plan.output_routes) {
      count_route(route);
    }

    core_plan.period = period;
    const unsigned depth = cut.hscan().max_depth;
    core_plan.flush = (depth > 0 ? depth - 1 : 0) + observe;
    const unsigned long long vectors = cut.hscan_vectors();
    if (options.allow_pipelining && vectors > 0) {
      // Initiation interval: the busiest resource's occupancy during one
      // vector's justification schedule bounds how often a new vector can
      // be launched behind the previous one.
      std::map<std::uint32_t, unsigned> occupancy;
      unsigned ii = 1;
      for (const auto& [port, route] : core_plan.input_routes) {
        for (const RouteStep& step : route.steps) {
          const CcgEdge& edge = ccg.edges()[step.edge];
          occupancy[edge.resource] += duration_of(edge);
          ii = std::max(ii, occupancy[edge.resource]);
        }
      }
      core_plan.tat = period + (vectors - 1) * ii + core_plan.flush;
    } else {
      core_plan.tat =
          vectors * static_cast<unsigned long long>(period) + core_plan.flush;
    }
    SOCET_EVENT("soc/core_planned", {"core", cut.name()},
                {"version", soc.core(c).version(selection[c]).name},
                {"period", core_plan.period}, {"flush", core_plan.flush},
                {"vectors", vectors}, {"tat", core_plan.tat},
                {"mux_cells", core_plan.system_mux_cells},
                {"pipelined", options.allow_pipelining});
    plan.system_mux_cells += core_plan.system_mux_cells;
    plan.total_tat += core_plan.tat;
    plan.cores.push_back(std::move(core_plan));
  }
  return plan;
}

std::string plan_options_key(const PlanOptions& options) {
  std::string key = "mux=" + std::to_string(options.system_mux_per_bit) + "+" +
                    std::to_string(options.system_mux_control) +
                    ";ctrl=" + std::to_string(options.controller_cells) +
                    ";resv=" + std::to_string(options.ignore_reservations) +
                    ";pipe=" + std::to_string(options.allow_pipelining);
  const auto append_refs = [&key](const char* label,
                                  const std::vector<CorePortRef>& refs) {
    key += std::string(";") + label + "=";
    for (const CorePortRef& ref : refs) {
      key += std::to_string(ref.core) + ":" + std::to_string(ref.port.value()) +
             ",";
    }
  };
  append_refs("fin", options.forced_input_muxes);
  append_refs("fout", options.forced_output_muxes);
  return key;
}

}  // namespace socet::soc
