// socet — command-line driver for the SOCET flow.
//
//   socet menus    [--system barcode|system2]
//   socet plan     [--system ...] [--selection 1,2,3] [--pipelined]
//   socet optimize [--system ...] (--area-budget N | --tat-budget N |
//                  --w1 X --w2 Y)
//   socet explore  [--system ...]            # design-space CSV (Figure 10)
//   socet parallel [--system ...] [--selection 1,2,3]  # session schedule
//   socet batch    --jobs FILE [--threads N] # planning service (one job/line)
//   socet serve    [--port N] [--threads N]  # persistent planning daemon
//   socet client   --connect HOST:PORT (--jobs FILE | metrics | journal
//                  | profile)
//   socet top      --connect HOST:PORT [--interval-ms N]  # live dashboard
//   socet tail     --connect HOST:PORT [--corr ID] [--type PREFIX]  # live journal
//   socet trace-analyze TRACE.json [--diff A B]  # critical path / attribution
//   socet sweep    [--system ...] [--threads N]  # parallel explore
//   socet program  [--system ...]            # assembled test program
//   socet verilog  --core CPU [--gates]      # Verilog to stdout
//   socet dot      (--core CPU | --ccg) [--system ...]   # Graphviz
//   socet interface --core CPU               # shippable core interface
//   socet explain  mux|version|route|reject [NAME [VERSION]] --journal FILE
//
// Core names: CPU, PREPROCESSOR, DISPLAY, GRAPHICS, GCD, X25.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "socet/core/serialize.hpp"
#include "socet/emit/dot.hpp"
#include "socet/emit/verilog.hpp"
#include "socet/obs/explain.hpp"
#include "socet/obs/journal.hpp"
#include "socet/obs/metrics.hpp"
#include "socet/obs/report.hpp"
#include "socet/obs/resource.hpp"
#include "socet/obs/sampler.hpp"
#include "socet/obs/trace.hpp"
#include "socet/obs/traceanalyze.hpp"
#include "socet/opt/optimize.hpp"
#include "socet/service/client.hpp"
#include "socet/service/protocol.hpp"
#include "socet/service/server.hpp"
#include "socet/service/service.hpp"
#include "socet/soc/parallel.hpp"
#include "socet/soc/testprogram.hpp"
#include "socet/soc/validate.hpp"
#include "socet/synth/elaborate.hpp"
#include "socet/systems/systems.hpp"
#include "socet/util/table.hpp"

namespace {

using namespace socet;

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  std::vector<std::string> positionals;  ///< bare tokens ("explain mux CPU")

  bool has(const std::string& key) const { return options.count(key) != 0; }
  std::string get(const std::string& key, const std::string& fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  std::string positional(std::size_t i) const {
    return i < positionals.size() ? positionals[i] : "";
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      args.positionals.push_back(std::move(token));
      continue;
    }
    token = token.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.options[token] = argv[++i];
    } else {
      args.options[token] = "";
    }
  }
  return args;
}

systems::System load_system(const Args& args) {
  const std::string name = args.get("system", "barcode");
  if (name == "barcode" || name == "system1") {
    return systems::make_barcode_system();
  }
  if (name == "system2") return systems::make_system2();
  util::raise("unknown system '" + name + "' (use barcode|system2)");
}

rtl::Netlist load_core_rtl(const std::string& name) {
  if (name == "CPU") return systems::make_cpu_rtl();
  if (name == "PREPROCESSOR") return systems::make_preprocessor_rtl();
  if (name == "DISPLAY") return systems::make_display_rtl();
  if (name == "GRAPHICS") return systems::make_graphics_rtl();
  if (name == "GCD") return systems::make_gcd_rtl();
  if (name == "X25") return systems::make_x25_rtl();
  util::raise("unknown core '" + name + "'");
}

std::vector<unsigned> parse_selection(const Args& args,
                                      const systems::System& system) {
  std::vector<unsigned> selection(system.soc->cores().size(), 0);
  const std::string spec = args.get("selection", "");
  if (spec.empty()) return selection;
  // Strict 1-based parse (rejects 0, empty, and trailing tokens).
  const auto tokens = service::parse_selection_spec(spec);
  util::require(tokens.size() <= selection.size(),
                "--selection has " + std::to_string(tokens.size()) +
                    " entries but the system has " +
                    std::to_string(selection.size()) + " cores");
  for (std::size_t c = 0; c < tokens.size(); ++c) {
    selection[c] = tokens[c];
    util::require(selection[c] < system.soc->core(static_cast<std::uint32_t>(c))
                                     .version_count(),
                  "selection out of range for core " + std::to_string(c + 1));
  }
  return selection;
}

int cmd_menus(const Args& args) {
  auto system = load_system(args);
  for (const auto& core : system.cores) {
    std::printf("%s (%u FFs, HSCAN %u cells, depth %u, %u scan vectors)\n",
                core->name().c_str(), core->flip_flop_count(),
                core->hscan_overhead_cells(), core->hscan().max_depth,
                core->scan_vectors());
    for (const auto& version : core->versions()) {
      std::printf("  %-10s %4u cells:", version.name.c_str(),
                  version.extra_cells);
      for (const auto& edge : version.edges) {
        std::printf(" %s->%s=%u",
                    core->netlist().port(edge.input).name.c_str(),
                    core->netlist().port(edge.output).name.c_str(),
                    edge.latency);
      }
      std::printf("\n");
    }
  }
  return 0;
}

int cmd_plan(const Args& args) {
  auto system = load_system(args);
  auto selection = parse_selection(args, system);
  soc::PlanOptions options;
  options.allow_pipelining = args.has("pipelined");
  auto plan = soc::plan_chip_test(*system.soc, selection, options);

  util::Table table({"core", "version", "period", "flush", "TAT (cycles)",
                     "sys-mux cells"});
  for (const auto& core_plan : plan.cores) {
    const auto& core = system.soc->core(core_plan.core);
    table.add_row({core.name(),
                   core.version(selection[core_plan.core]).name,
                   std::to_string(core_plan.period),
                   std::to_string(core_plan.flush),
                   std::to_string(core_plan.tat),
                   std::to_string(core_plan.system_mux_cells)});
  }
  std::printf("%s", table.to_text().c_str());
  std::printf("total: %llu cycles, %u chip-level DFT cells\n", plan.total_tat,
              plan.total_overhead_cells());
  auto violations = soc::validate_plan(*system.soc, selection, plan, options);
  for (const auto& violation : violations) {
    std::fprintf(stderr, "VIOLATION: %s\n", violation.c_str());
  }
  return violations.empty() ? 0 : 1;
}

int cmd_optimize(const Args& args) {
  auto system = load_system(args);
  opt::DesignPoint point;
  if (args.has("area-budget")) {
    point = opt::minimize_tat(
        *system.soc,
        static_cast<unsigned>(std::stoul(args.get("area-budget", "0"))));
  } else if (args.has("tat-budget")) {
    point = opt::minimize_area(
        *system.soc, std::stoull(args.get("tat-budget", "0")));
  } else if (args.has("w1") || args.has("w2")) {
    point = opt::minimize_weighted(*system.soc,
                                   std::stod(args.get("w1", "1")),
                                   std::stod(args.get("w2", "1")));
  } else {
    std::fprintf(stderr,
                 "optimize needs --area-budget, --tat-budget, or --w1/--w2\n");
    return 2;
  }
  std::printf("selection:");
  for (std::size_t c = 0; c < point.selection.size(); ++c) {
    std::printf(" %s=%s", system.soc->core(static_cast<std::uint32_t>(c))
                              .name()
                              .c_str(),
                system.soc->core(static_cast<std::uint32_t>(c))
                    .version(point.selection[c])
                    .name.c_str());
  }
  std::printf("\nTAT %llu cycles, overhead %u cells, constraint %s\n",
              point.tat, point.overhead_cells,
              point.met_constraint ? "met" : "NOT met");
  return point.met_constraint ? 0 : 1;
}

int cmd_explore(const Args& args) {
  auto system = load_system(args);
  auto points = opt::enumerate_design_space(*system.soc);
  std::printf("%s", opt::design_space_csv(std::move(points)).c_str());
  return 0;
}

unsigned long parse_option_count(const Args& args, const std::string& key,
                                 unsigned long fallback) {
  if (!args.has(key)) return fallback;
  const std::string text = args.get(key, "");
  try {
    std::size_t consumed = 0;
    const unsigned long value = std::stoul(text, &consumed);
    util::require(consumed == text.size(), "");
    return value;
  } catch (const std::exception&) {
    util::raise("bad --" + key + " '" + text + "' (want a number)");
  }
}

service::ServiceOptions service_options(const Args& args) {
  service::ServiceOptions options;
  options.threads =
      static_cast<unsigned>(parse_option_count(args, "threads", 1));
  util::require(options.threads >= 1, "--threads must be at least 1");
  options.cache_capacity =
      parse_option_count(args, "cache", options.cache_capacity);
  options.cache_bytes =
      parse_option_count(args, "cache-bytes", options.cache_bytes);
  return options;
}

std::vector<std::string> read_job_lines(const std::string& path,
                                        const char* who) {
  util::require(!path.empty(),
                std::string(who) + " needs --jobs FILE (or --jobs -)");
  std::vector<std::string> lines;
  std::string line;
  if (path == "-") {
    while (std::getline(std::cin, line)) lines.push_back(line);
  } else {
    std::ifstream file(path);
    util::require(file.good(), "cannot open jobs file '" + path + "'");
    while (std::getline(file, line)) lines.push_back(line);
  }
  return lines;
}

service::ClientOptions client_options(const Args& args) {
  const std::string connect = args.get("connect", "");
  const auto host_port = service::parse_host_port(connect);
  service::ClientOptions options;
  options.host = host_port.host;
  options.port = host_port.port;
  options.window = parse_option_count(args, "window", options.window);
  return options;
}

/// Replay a job file against a daemon and print records to stdout —
/// the remote path shared by `client --jobs` and `batch --connect`.
/// With --trace FILE the run is distributed-traced end to end: clock
/// handshake, per-job submit spans, daemon span collection, ONE merged
/// Chrome trace to FILE.  stdout is byte-identical either way.
int run_remote_jobs(const Args& args, const char* who) {
  const auto lines = read_job_lines(args.get("jobs", ""), who);
  const std::string trace_path = args.get("trace", "");
  auto options = client_options(args);
  options.trace = !trace_path.empty();
  service::Client client(options);
  const auto report = client.run_lines(lines);
  std::printf("%s", report.records_text().c_str());
  std::fprintf(stderr, "%s: %zu jobs via %s, %zu errors, %zu busy\n", who,
               report.jobs, args.get("connect", "").c_str(), report.errors,
               report.busy);
  if (options.trace) {
    std::ofstream out(trace_path);
    out << report.trace.chrome_trace();
    if (!out.good()) {
      std::fprintf(stderr, "error: cannot write trace '%s'\n",
                   trace_path.c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "%s: merged trace: %zu client + %zu daemon spans, "
                 "clock offset %lld ns -> %s\n",
                 who, report.trace.client_spans.size(),
                 report.trace.daemon_spans.size(),
                 static_cast<long long>(report.trace.clock_offset_ns),
                 trace_path.c_str());
  }
  return (report.errors == 0 && report.busy == 0) ? 0 : 1;
}

int cmd_batch(const Args& args) {
  if (args.has("connect")) return run_remote_jobs(args, "batch");
  const auto lines = read_job_lines(args.get("jobs", ""), "batch");
  service::PlanningService service(service_options(args));
  const auto report = service.run_lines(lines);
  std::printf("%s", report.records_text().c_str());
  std::fprintf(stderr, "%s", report.summary_table().c_str());
  if (args.has("verbose")) {
    for (const auto& result : report.results) {
      std::fprintf(stderr, "job %zu queue_us=%.1f wall_us=%.1f cache=%s\n",
                   result.index + 1, result.queue_us, result.wall_us,
                   result.cache_hit ? "hit" : "miss");
    }
  }
  return report.errors == 0 ? 0 : 1;
}

int cmd_serve(const Args& args) {
  service::ServerOptions options;
  options.host = args.get("host", options.host);
  options.port =
      static_cast<unsigned short>(parse_option_count(args, "port", 0));
  options.threads =
      static_cast<unsigned>(parse_option_count(args, "threads", 1));
  util::require(options.threads >= 1, "--threads must be at least 1");
  options.cache_capacity =
      parse_option_count(args, "cache", options.cache_capacity);
  options.cache_bytes =
      parse_option_count(args, "cache-bytes", options.cache_bytes);
  options.max_queue =
      parse_option_count(args, "max-queue", options.max_queue);
  options.client_window =
      parse_option_count(args, "window", options.client_window);
  options.port_file = args.get("port-file", "");
  // Telemetry plane (docs/SERVICE.md "Live daemon telemetry").
  options.metrics_http =
      args.has("metrics-port") || args.has("metrics-port-file");
  if (args.has("metrics-port")) {
    options.metrics_port =
        static_cast<unsigned short>(parse_option_count(args, "metrics-port", 0));
  }
  options.metrics_host = args.get("metrics-host", options.metrics_host);
  options.metrics_port_file = args.get("metrics-port-file", "");
  options.access_log = args.get("access-log", "");
  options.access_log_max_bytes =
      parse_option_count(args, "access-log-max-bytes", 0);
  options.journal_ring = parse_option_count(args, "journal-ring", 0);
  options.window_interval = std::chrono::milliseconds(parse_option_count(
      args, "metrics-interval-ms",
      static_cast<unsigned long>(options.window_interval.count())));
  const std::string host = options.host;
  const unsigned threads = options.threads;
  const bool metrics_http = options.metrics_http;
  const std::string metrics_host = options.metrics_host;
  service::Server server(std::move(options));
  server.start();
  server.install_signal_handlers();
  std::fprintf(stderr, "socet serve: listening on %s:%u (%u worker%s)\n",
               host.c_str(), server.port(), threads,
               threads == 1 ? "" : "s");
  if (metrics_http) {
    std::fprintf(stderr, "socet serve: telemetry on http://%s:%u/metrics\n",
                 metrics_host.c_str(), server.metrics_port());
  }
  server.wait();  // until SIGTERM/SIGINT drains the daemon
  const service::ServerStats stats = server.stats();
  std::fprintf(stderr,
               "socet serve: drained: accepted=%llu requests=%llu "
               "responses=%llu errors=%llu busy=%llu bad_frames=%llu "
               "cache_hits=%llu cache_misses=%llu\n",
               static_cast<unsigned long long>(stats.connections_accepted),
               static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.responses),
               static_cast<unsigned long long>(stats.errors),
               static_cast<unsigned long long>(stats.busy_rejects),
               static_cast<unsigned long long>(stats.bad_frames),
               static_cast<unsigned long long>(stats.cache.hits),
               static_cast<unsigned long long>(stats.cache.misses));
  return 0;
}

int cmd_client(const Args& args) {
  const std::string verb = args.positional(0);
  if (verb == "metrics" || verb == "journal") {
    service::Client client(client_options(args));
    std::printf("%s\n", client.query(verb).c_str());
    return 0;
  }
  if (verb == "profile") {
    // On-demand remote profiling: arm the daemon's SIGPROF sampler for
    // --seconds and print "ok profile samples=N dropped=M" + folded
    // stacks (flamegraph-ready).
    service::Client client(client_options(args));
    const std::string reply =
        client.query("profile " + args.get("seconds", "1"));
    std::printf("%s\n", reply.c_str());
    return reply.rfind("ok ", 0) == 0 ? 0 : 1;
  }
  util::require(verb.empty(),
                "unknown client verb '" + verb +
                    "' (use metrics|journal|profile or "
                    "--jobs FILE)");
  return run_remote_jobs(args, "client");
}

/// `socet tail --connect HOST:PORT [--corr ID] [--type PREFIX]`: watch
/// the daemon's decision journal live.  One JSONL event per line to
/// stdout; --count N exits after N events (tests/CI).
int cmd_tail(const Args& args) {
  const auto host_port =
      service::parse_host_port(args.get("connect", ""));
  const int fd = service::net_connect(host_port.host, host_port.port);
  std::string request = "tail";
  if (args.has("corr")) request += " corr=" + args.get("corr", "");
  if (args.has("type")) request += " type=" + args.get("type", "");
  service::write_frame(fd, request);
  const auto ack = service::read_frame(fd);
  if (!ack.has_value() || *ack != "ok tail") {
    std::fprintf(stderr, "error: daemon answered '%s'\n",
                 ack.value_or("<eof>").c_str());
    ::close(fd);
    return 1;
  }
  std::fprintf(stderr, "socet tail: watching %s (%s)\n",
               args.get("connect", "").c_str(),
               request == "tail" ? "all events" : request.c_str() + 5);
  const auto count = parse_option_count(args, "count", 0);
  unsigned long seen = 0;
  while (count == 0 || seen < count) {
    const auto event = service::read_frame(fd);
    if (!event.has_value()) break;  // daemon drained / connection closed
    std::printf("%s\n", event->c_str());
    std::fflush(stdout);
    ++seen;
  }
  ::close(fd);
  return 0;
}

/// `socet trace-analyze FILE... [--json] [--folded] [--top N] [--out F]`
/// or `socet trace-analyze --diff A.json B.json [--json]`: offline
/// analytics over the id-linked Chrome traces that `--trace` and
/// `batch --connect --trace` write — critical path,
/// per-stage latency distributions, and differential attribution
/// (docs/OBSERVABILITY.md "Analyzing traces").
int cmd_trace_analyze(const Args& args) {
  const auto read_text = [](const std::string& path) {
    std::ifstream file(path);
    util::require(file.good(), "cannot open '" + path + "'");
    return std::string((std::istreambuf_iterator<char>(file)),
                       std::istreambuf_iterator<char>());
  };
  const auto load = [&read_text](const std::string& path) {
    obs::analyze::TraceData trace;
    std::string error;
    // Parse before building the message (argument order is unspecified).
    const bool ok = obs::analyze::load_trace(read_text(path), &trace, &error);
    util::require(ok, "trace-analyze: " + path + ": " + error);
    return trace;
  };
  // parse_args folds the token after a bare flag into its value, so a
  // file name following --json/--folded is really another input.
  std::vector<std::string> inputs = args.positionals;
  for (const char* flag : {"json", "folded"}) {
    const std::string value = args.get(flag, "");
    if (!value.empty()) inputs.push_back(value);
  }
  const bool as_json = args.has("json");
  const std::size_t top =
      static_cast<std::size_t>(parse_option_count(args, "top", 12));

  std::string rendered;
  if (args.has("diff")) {
    const std::string a_path = args.get("diff", "");
    util::require(!a_path.empty() && inputs.size() == 1,
                  "trace-analyze --diff needs exactly two trace files");
    const obs::analyze::Aggregate a = obs::analyze::aggregate({load(a_path)});
    const obs::analyze::Aggregate b =
        obs::analyze::aggregate({load(inputs[0])});
    const obs::analyze::DiffResult result = obs::analyze::diff(a, b);
    rendered = as_json ? obs::analyze::diff_json(result)
                       : obs::analyze::diff_text(result, top);
  } else {
    util::require(!inputs.empty(),
                  "trace-analyze needs at least one trace file");
    std::vector<obs::analyze::TraceData> traces;
    traces.reserve(inputs.size());
    for (const std::string& path : inputs) traces.push_back(load(path));
    if (args.has("folded")) {
      rendered = obs::analyze::folded_stacks(traces);
    } else {
      std::vector<obs::analyze::CriticalPath> paths;
      for (const obs::analyze::TraceData& trace : traces) {
        for (obs::analyze::CriticalPath& path :
             obs::analyze::critical_paths(trace)) {
          paths.push_back(std::move(path));
        }
      }
      const obs::analyze::Aggregate agg = obs::analyze::aggregate(traces);
      rendered = as_json ? obs::analyze::analysis_json(paths, agg)
                         : obs::analyze::analysis_text(paths, agg, top);
    }
  }
  const std::string out_path = args.get("out", "");
  if (out_path.empty()) {
    std::printf("%s", rendered.c_str());
    return 0;
  }
  std::ofstream out(out_path);
  out << rendered;
  util::require(out.good(), "cannot write '" + out_path + "'");
  return 0;
}

/// Parse one Prometheus exposition into {sample line -> value}, keyed
/// by the full sample name including labels.
std::map<std::string, double> parse_exposition(const std::string& text) {
  std::map<std::string, double> samples;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0) continue;
    samples[line.substr(0, space)] =
        std::strtod(line.c_str() + space + 1, nullptr);
  }
  return samples;
}

double window_sample(const std::map<std::string, double>& samples,
                     const char* window, const char* quantile) {
  const std::string key = std::string("socet_window_serve_request_us{window=\"") +
                          window + "\",quantile=\"" + quantile + "\"}";
  const auto it = samples.find(key);
  return it == samples.end() ? 0.0 : it->second;
}

/// `socet top`: poll `metrics` over the framed protocol and render a
/// refreshing dashboard.  Throughput, queue and cache figures come from
/// the daemon's own `socet_serve_*` counters; the window quantiles and
/// busy% need a daemon started with a telemetry flag (--metrics-port or
/// --access-log).
int cmd_top(const Args& args) {
  const auto interval_ms = parse_option_count(args, "interval-ms", 1000);
  // 0 = until interrupted; tests and CI pass a small bound.
  const auto iterations = parse_option_count(args, "iterations", 0);
  const bool tty = ::isatty(STDOUT_FILENO) != 0;

  // The dashboard survives a daemon restart: a failed connect or query
  // drops the connection, prints a reconnecting banner, and retries
  // with capped exponential backoff instead of exiting.
  std::unique_ptr<service::Client> client;
  unsigned long backoff_ms = 0;
  bool have_prev = false;
  std::map<std::string, double> prev_samples;
  auto prev_at = std::chrono::steady_clock::now();
  for (unsigned long i = 0; iterations == 0 || i < iterations; ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    std::map<std::string, double> samples;
    try {
      if (!client) {
        client = std::make_unique<service::Client>(client_options(args));
      }
      samples = parse_exposition(client->query("metrics"));
      backoff_ms = 0;
    } catch (const std::exception& e) {
      client.reset();
      have_prev = false;  // rates restart once the daemon is back
      backoff_ms =
          backoff_ms == 0 ? 500 : std::min<unsigned long>(backoff_ms * 2, 5000);
      std::printf("socet top — %s — reconnecting in %lums (%s)\n",
                  args.get("connect", "").c_str(), backoff_ms, e.what());
      std::fflush(stdout);
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      continue;
    }
    const auto now = std::chrono::steady_clock::now();
    const double elapsed_s =
        std::chrono::duration<double>(now - prev_at).count();
    const auto value = [](const std::map<std::string, double>& from,
                          const std::string& name) {
      const auto it = from.find(name);
      return it == from.end() ? 0.0 : it->second;
    };
    const auto serve = [&](const char* name) {
      return static_cast<unsigned long long>(
          value(samples, std::string("socet_serve_") + name));
    };
    /// Per-second increase of one sample since the previous tick.
    const auto rate = [&](const std::string& name) -> double {
      if (!have_prev || elapsed_s <= 0) return 0.0;
      return (value(samples, name) - value(prev_samples, name)) / elapsed_s;
    };

    if (tty) std::printf("\033[H\033[2J");
    std::printf("socet top — %s — workers=%llu conns=%llu draining=%llu\n",
                args.get("connect", "").c_str(), serve("worker_count"),
                serve("connections_open"), serve("draining"));
    std::printf(
        "requests=%llu (%.1f/s)  responses=%llu (%.1f/s)  errors=%llu  "
        "busy=%llu\n",
        serve("requests_total"), rate("socet_serve_requests_total"),
        serve("responses_total"), rate("socet_serve_responses_total"),
        serve("errors_total"), serve("busy_rejects_total"));
    std::printf("queue depth=%llu hwm=%llu inflight=%llu\n",
                serve("live_queue_depth"), serve("queue_depth_hwm"),
                serve("live_inflight"));
    const unsigned long long hits = serve("cache_hits_total");
    const unsigned long long misses = serve("cache_misses_total");
    std::printf(
        "cache hits=%llu misses=%llu hit%%=%.1f evictions=%llu "
        "evicted_bytes=%llu entries=%llu bytes=%llu\n",
        hits, misses,
        hits + misses == 0
            ? 0.0
            : 100.0 * static_cast<double>(hits) /
                  static_cast<double>(hits + misses),
        serve("cache_evictions_total"), serve("cache_evicted_bytes_total"),
        serve("cache_entries"), serve("cache_bytes"));

    util::Table windows({"window", "p50_us", "p95_us", "p99_us", "count"});
    for (const char* window : {"1m", "5m", "15m"}) {
      const auto count_it = samples.find(
          std::string("socet_window_serve_request_us_count{window=\"") +
          window + "\"}");
      windows.add_row(
          {window, util::Table::num(window_sample(samples, window, "0.5")),
           util::Table::num(window_sample(samples, window, "0.95")),
           util::Table::num(window_sample(samples, window, "0.99")),
           count_it == samples.end()
               ? "-"
               : std::to_string(
                     static_cast<std::uint64_t>(count_it->second))});
    }
    std::printf("%s", windows.to_text().c_str());

    // Busy µs per wall second, as a percentage of one worker.
    std::printf("worker busy%%:");
    for (unsigned long long w = 1; w <= serve("worker_count"); ++w) {
      std::printf(" w%llu=%.1f%%", w,
                  rate("socet_serve_worker" + std::to_string(w) +
                       "_busy_us_total") /
                      1e4);
    }
    std::printf("\n");
    std::fflush(stdout);

    have_prev = true;
    prev_samples = std::move(samples);
    prev_at = now;
  }
  return 0;
}

int cmd_sweep(const Args& args) {
  service::PlanningService service(service_options(args));
  const std::string csv =
      service::sweep_csv(args.get("system", "barcode"), service);
  std::printf("%s", csv.c_str());
  return 0;
}

int cmd_parallel(const Args& args) {
  auto system = load_system(args);
  auto selection = parse_selection(args, system);
  auto plan = soc::plan_chip_test(*system.soc, selection);
  auto schedule = soc::schedule_parallel(*system.soc, selection, plan);
  for (std::size_t s = 0; s < schedule.sessions.size(); ++s) {
    std::printf("session %zu:", s + 1);
    for (auto core : schedule.sessions[s]) {
      std::printf(" %s", system.soc->core(core).name().c_str());
    }
    std::printf("\n");
  }
  std::printf("sequential %llu cycles -> parallel %llu cycles (%.2fx)\n",
              schedule.sequential_tat, schedule.total_tat,
              schedule.speedup());
  return 0;
}

int cmd_program(const Args& args) {
  auto system = load_system(args);
  auto selection = parse_selection(args, system);
  auto plan = soc::plan_chip_test(*system.soc, selection);
  auto program = soc::assemble_test_program(*system.soc, selection, plan);
  std::printf("%s", soc::describe_test_program(*system.soc, program).c_str());
  return 0;
}

int cmd_verilog(const Args& args) {
  const std::string core = args.get("core", "");
  util::require(!core.empty(), "verilog needs --core <name>");
  auto rtl = load_core_rtl(core);
  if (args.has("gates")) {
    auto elab = synth::elaborate(rtl);
    std::printf("%s", emit::emit_verilog(elab.gates).c_str());
  } else {
    std::printf("%s", emit::emit_verilog(rtl).c_str());
  }
  return 0;
}

int cmd_dot(const Args& args) {
  if (args.has("ccg")) {
    auto system = load_system(args);
    auto selection = parse_selection(args, system);
    soc::Ccg ccg(*system.soc, selection);
    std::printf("%s", emit::emit_dot(*system.soc, ccg).c_str());
    return 0;
  }
  const std::string core = args.get("core", "");
  util::require(!core.empty(), "dot needs --core <name> or --ccg");
  core::Core::prepare(load_core_rtl(core), {},
                      [](const transparency::Rcg& rcg) {
                        std::printf("%s", emit::emit_dot(rcg).c_str());
                      });
  return 0;
}

int cmd_interface(const Args& args) {
  const std::string name = args.get("core", "");
  util::require(!name.empty(), "interface needs --core <name>");
  auto prepared = core::Core::prepare(load_core_rtl(name));
  std::printf("%s", core::serialize_interface(prepared).c_str());
  return 0;
}

int cmd_explain(const Args& args) {
  std::string text;
  if (args.has("connect")) {
    // Query the daemon's in-memory journal ring directly — no file
    // shipping.  Needs `socet serve --journal-ring N`.
    service::Client client(client_options(args));
    const std::string reply = client.query("journal");
    const std::string prefix = "ok journal\n";
    util::require(reply.rfind(prefix, 0) == 0,
                  "daemon answered '" + reply.substr(0, 120) + "'");
    text = reply.substr(prefix.size());
  } else {
    const std::string path = args.get("journal", "");
    util::require(!path.empty(),
                  "explain needs --journal FILE (record one with e.g. "
                  "`socet plan --journal run.jsonl`) or --connect HOST:PORT");
    std::ifstream file(path);
    util::require(file.good(), "cannot open journal '" + path + "'");
    text.assign((std::istreambuf_iterator<char>(file)),
                std::istreambuf_iterator<char>());
  }

  obs::JournalDoc doc;
  std::string error;
  const std::string source = args.has("connect")
                                 ? args.get("connect", "")
                                 : args.get("journal", "");
  const bool ok = obs::load_journal(text, &doc, &error);
  util::require(ok, "bad journal '" + source + "': " + error);

  const std::string query = args.positional(0);
  util::require(!query.empty(),
                "explain needs a query: mux|version|route|reject [args]");
  std::string answer;
  if (query == "mux") {
    answer = obs::explain_mux(doc, args.positional(1));
  } else if (query == "version") {
    answer = obs::explain_version(doc, args.positional(1));
  } else if (query == "route") {
    answer = obs::explain_route(doc, args.positional(1));
  } else if (query == "reject") {
    answer = obs::explain_reject(doc, args.positional(1), args.positional(2));
  } else {
    util::raise("unknown explain query '" + query +
                "' (use mux|version|route|reject)");
  }
  std::printf("%s", answer.c_str());
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: socet <command> [options]\n"
      "  menus     [--system barcode|system2]\n"
      "  plan      [--system ...] [--selection 1,2,3] [--pipelined]\n"
      "  optimize  [--system ...] --area-budget N | --tat-budget N |\n"
      "            --w1 X --w2 Y (weighted objective iii)\n"
      "  parallel  [--system ...] [--selection 1,2,3]\n"
      "  explore   [--system ...]\n"
      "  batch     --jobs FILE|- [--threads N] [--cache N]\n"
      "            [--cache-bytes N] [--verbose] [--connect HOST:PORT]\n"
      "            (planning service; one job per line, see docs/FORMATS.md;\n"
      "            --connect replays the file against a running daemon;\n"
      "            --connect --trace FILE writes ONE merged client+daemon\n"
      "            Chrome trace on aligned clocks)\n"
      "  serve     [--host H] [--port N] [--threads N] [--cache N]\n"
      "            [--cache-bytes N] [--max-queue N] [--window N]\n"
      "            [--port-file FILE]\n"
      "            [--metrics-port N] [--metrics-host H]\n"
      "            [--metrics-port-file FILE] [--access-log FILE]\n"
      "            [--access-log-max-bytes N] [--journal-ring N]\n"
      "            [--metrics-interval-ms N]\n"
      "            (persistent planning daemon, docs/SERVICE.md; drain\n"
      "            with SIGTERM; wire protocol in docs/FORMATS.md §6;\n"
      "            --metrics-port serves GET /metrics /healthz /readyz,\n"
      "            --access-log writes one serve.access JSONL line per\n"
      "            request (docs/FORMATS.md §7, rotated to .1 past\n"
      "            --access-log-max-bytes), --journal-ring keeps\n"
      "            the newest N decision events for `journal`/explain)\n"
      "  client    --connect HOST:PORT (--jobs FILE|- | metrics | journal |\n"
      "            profile [--seconds S]) [--window N]\n"
      "  top       --connect HOST:PORT [--interval-ms N] [--iterations N]\n"
      "            (live dashboard over `metrics`; daemon needs a\n"
      "            telemetry flag for window quantiles and busy%%;\n"
      "            reconnects with backoff if the daemon restarts)\n"
      "  tail      --connect HOST:PORT [--corr ID] [--type PREFIX]\n"
      "            [--count N] (stream the daemon's decision journal\n"
      "            live, one JSONL event per line)\n"
      "  trace-analyze FILE... [--json] [--folded] [--top N] [--out FILE]\n"
      "            (critical path + per-stage latency distributions over\n"
      "            --trace / --connect --trace documents)\n"
      "  trace-analyze --diff A.json B.json [--json] [--out FILE]\n"
      "            (rank stages by contribution to the B-A delta)\n"
      "  sweep     [--system ...] [--threads N] (parallel explore)\n"
      "  program   [--system ...] [--selection 1,2,3]\n"
      "  verilog   --core NAME [--gates]\n"
      "  dot       --core NAME | --ccg [--system ...]\n"
      "  interface --core NAME\n"
      "  explain   mux|version|route|reject [NAME [VERSION]]\n"
      "            (--journal FILE | --connect HOST:PORT) (provenance\n"
      "            queries over a recorded decision journal, or the\n"
      "            daemon's live ring via --connect + --journal-ring)\n"
      "observability (any command; stdout is never touched):\n"
      "  --metrics       print the metrics table to stderr on exit\n"
      "  --trace FILE    write a Chrome trace-event JSON (chrome://tracing;\n"
      "                  id-linked X slices, input to trace-analyze)\n"
      "  --report FILE   write a run-report JSON (metrics + span rollups +\n"
      "                  rusage/hw-counter resource accounting)\n"
      "  --profile FILE  sample the run with SIGPROF; folded stacks to\n"
      "                  FILE (flamegraph-ready), top functions to stderr\n"
      "  --journal FILE  record the decision journal (routes, optimizer\n"
      "                  moves, mux insertions, cache hits) as JSONL\n"
      "  --flight-recorder [N]  keep the last N decision events (default\n"
      "                  256) in a ring; dump them to stderr on a crash\n"
      "  (metric and span names: docs/OBSERVABILITY.md)\n");
  return 2;
}

using Command = int (*)(const Args&);

const std::map<std::string, Command>& commands() {
  static const std::map<std::string, Command> table = {
      {"menus", cmd_menus},       {"plan", cmd_plan},
      {"optimize", cmd_optimize}, {"explore", cmd_explore},
      {"batch", cmd_batch},       {"sweep", cmd_sweep},
      {"serve", cmd_serve},       {"client", cmd_client},
      {"top", cmd_top},           {"tail", cmd_tail},
      {"trace-analyze", cmd_trace_analyze},
      {"program", cmd_program},
      {"parallel", cmd_parallel}, {"verilog", cmd_verilog},
      {"dot", cmd_dot},           {"interface", cmd_interface},
      {"explain", cmd_explain}};
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  // Validate the command before touching any option so a typo like
  // `socet pln` fails loudly instead of falling through.
  if (argc < 2) return usage();
  const auto command = commands().find(argv[1]);
  if (command == commands().end()) {
    std::fprintf(stderr, "error: unknown command '%s'\n", argv[1]);
    return usage();
  }
  const Args args = parse_args(argc, argv);

  // Observability switches.  A run report embeds the metrics snapshot,
  // the span rollups, and the resource accounting, so --report implies
  // all three collectors.
  const std::string trace_path = args.get("trace", "");
  const std::string report_path = args.get("report", "");
  const std::string profile_path = args.get("profile", "");
  // `batch/client --connect --trace FILE` owns its trace file: the
  // client writes ONE merged cross-process document there, so the local
  // tracer must not arm (and must not overwrite it on exit).
  const bool remote_trace =
      args.has("connect") &&
      (command->first == "batch" || command->first == "client");
  if (args.has("metrics") || !report_path.empty()) {
    obs::set_metrics_enabled(true);
  }
  if ((!trace_path.empty() && !remote_trace) || !report_path.empty()) {
    obs::set_trace_enabled(true);
  }
  if (!report_path.empty()) {
    obs::set_resources_enabled(true);  // also starts run hw counters
  }
  if (!profile_path.empty() && !obs::Sampler::start({})) {
    std::fprintf(stderr, "warning: --profile unavailable on this platform\n");
  }
  // For `explain`, --journal names the *input* document; every other
  // command records one.
  const bool is_explain = command->first == "explain";
  const std::string journal_path =
      is_explain ? std::string() : args.get("journal", "");
  if (!journal_path.empty()) obs::journal_start_memory();
  if (args.has("flight-recorder") && !is_explain) {
    const std::string capacity_text = args.get("flight-recorder", "");
    const unsigned long capacity =
        capacity_text.empty()
            ? 256
            : parse_option_count(args, "flight-recorder", 256);
    obs::journal_start_flight(capacity);
  }

  int status = 1;
  try {
    // The span name must outlive export; the command key is a static.
    static const std::string span_name = "cli/" + command->first;
    obs::Span span(span_name.c_str());
    status = command->second(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    status = 1;
  }

  // Diagnostics go to stderr / side files only, after all worker pools
  // have joined, so stdout stays byte-identical to uninstrumented runs.
  if (obs::Sampler::running()) obs::Sampler::stop();
  if (args.has("metrics")) {
    std::fprintf(stderr, "%s",
                 obs::Registry::instance().table_text().c_str());
  }
  const auto write_file = [&status](const std::string& path,
                                    const std::string& text,
                                    const char* what) {
    std::ofstream out(path);
    out << text;
    if (!out.good()) {
      std::fprintf(stderr, "error: cannot write %s '%s'\n", what,
                   path.c_str());
      status = status == 0 ? 1 : status;
    }
  };
  if (!trace_path.empty() && !remote_trace) {
    write_file(trace_path, obs::chrome_trace_json(), "trace");
  }
  if (!journal_path.empty()) {
    obs::journal_stop();
    write_file(journal_path, obs::journal_jsonl(), "journal");
  }
  if (!report_path.empty()) {
    write_file(report_path, obs::run_report_json(command->first), "report");
  }
  if (!profile_path.empty() && obs::sampler_supported()) {
    write_file(profile_path, obs::Sampler::folded_stacks(), "profile");
    std::fprintf(stderr, "%s", obs::Sampler::top_functions_table().c_str());
  }
  return status;
}
