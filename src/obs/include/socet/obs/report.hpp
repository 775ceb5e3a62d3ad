// Machine-readable run reports.
//
// One JSON document per run (`socet ... --report out.json`) that folds
// together the metrics registry and per-stage span rollups, so a CI job
// or perf-trajectory script can diff "where the milliseconds went"
// across commits without scraping human tables.  Schema is versioned
// and documented in docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace socet::obs {

// --- tiny JSON helpers (shared by metrics/trace/report/bench) ---------

/// JSON string escaping (quotes, backslashes, control characters).
std::string json_escape(std::string_view text);
/// Shortest round-trip-safe rendering of a double ("12", "12.5", "0.001").
std::string json_number(double value);
/// Integer nanoseconds as fixed-point microseconds with exactly three
/// decimals ("10500000.123", "-0.250").  Exact at any magnitude, so a
/// span ten seconds into a run keeps its nanoseconds; trace `ts`/`dur`
/// and the run report's `*_us` values all render through it.
std::string json_us(std::int64_t ns);

/// The whole report:
///   {"schema": "socet-report-v1", "command": ...,
///    "metrics": {"counters": ..., "gauges": ..., "histograms": ...},
///    "spans": {<name>: {count, total_us, mean_us, min_us, max_us}},
///    "stages": {<prefix>: {spans, total_us}},   (analyze::aggregate)
///    "resources": {"run": ..., "stages": ...}}   (obs/resource.hpp)
/// Stage = everything before the first '/' of a span name.
std::string run_report_json(const std::string& command);

}  // namespace socet::obs
