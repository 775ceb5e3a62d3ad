#include "socet/obs/report.hpp"

#include <cmath>
#include <cstdio>

#include "socet/obs/metrics.hpp"
#include "socet/obs/resource.hpp"
#include "socet/obs/trace.hpp"
#include "socet/obs/traceanalyze.hpp"

namespace socet::obs {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  // Emit non-finite values as null — a NaN metric rendered as "0" would
  // let a broken computation masquerade as a perfect one.  Readers
  // (obs::json_parse / the bench gate) treat null as "not a number",
  // never as zero.
  if (!std::isfinite(value)) return "null";
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    return std::to_string(static_cast<long long>(value));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

std::string json_us(std::int64_t ns) {
  const std::uint64_t bits = static_cast<std::uint64_t>(ns);
  const std::uint64_t magnitude = ns < 0 ? 0 - bits : bits;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%llu.%03llu", ns < 0 ? "-" : "",
                static_cast<unsigned long long>(magnitude / 1000),
                static_cast<unsigned long long>(magnitude % 1000));
  return buf;
}

std::string run_report_json(const std::string& command) {
  // Per-span-name and per-stage (leading path segment) rollups.
  const analyze::Aggregate rollup =
      analyze::aggregate({analyze::from_spans(recorded_spans())});

  std::string out = "{\"schema\":\"socet-report-v1\",\"command\":\"" +
                    json_escape(command) + "\",\"metrics\":" +
                    Registry::instance().json() + ",\"spans\":{";
  bool first = true;
  for (const analyze::NameStats& span : rollup.by_name) {
    if (!first) out += ',';
    first = false;
    out += "\"" + json_escape(span.name) + "\":{\"count\":" +
           std::to_string(span.count) +
           ",\"total_us\":" + json_us(span.total_ns) +
           ",\"mean_us\":" + json_us(span.total_ns / span.count) +
           ",\"min_us\":" + json_us(span.min_ns) +
           ",\"max_us\":" + json_us(span.max_ns) + "}";
  }
  out += "},\"stages\":{";
  first = true;
  for (const analyze::NameStats& stage : rollup.by_stage) {
    if (!first) out += ',';
    first = false;
    out += "\"" + json_escape(stage.name) + "\":{\"spans\":" +
           std::to_string(stage.count) + ",\"total_us\":" +
           json_us(stage.total_ns) + "}";
  }
  // Additive since v1: rusage/hw-counter accounting (obs/resource.hpp).
  out += "},\"resources\":" + resources_json() + "}";
  return out;
}

}  // namespace socet::obs
