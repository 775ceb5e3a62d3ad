#include "socet/obs/explain.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

namespace socet::obs {

namespace {

std::string field_str(const JsonValue& event, std::string_view key) {
  const JsonValue* value = event.get(key);
  return value == nullptr ? std::string() : value->string_or("");
}

long long field_int(const JsonValue& event, std::string_view key,
                    long long fallback = 0) {
  return event.int_at(key, fallback);
}

std::string event_type(const JsonValue& event) {
  return field_str(event, "type");
}

/// Render one JSON scalar the way the journal wrote it.
std::string scalar_text(const JsonValue& value) {
  switch (value.kind) {
    case JsonValue::Kind::kString:
      return value.string_value;
    case JsonValue::Kind::kBool:
      return value.bool_value ? "true" : "false";
    case JsonValue::Kind::kNumber: {
      const double d = value.number_value;
      if (std::abs(d) < 1e18 && d == std::trunc(d)) {
        return std::to_string(static_cast<long long>(d));
      }
      return std::to_string(d);
    }
    default:
      return "?";
  }
}

/// One event as an indented `#seq type key=value ...` line.  The
/// bookkeeping keys (seq/ts_us/tid/span/type) are folded into the
/// prefix; `corr` and the payload keys print in journal order.
std::string render_event(const JsonValue& event) {
  std::string line = "  #" + std::to_string(field_int(event, "seq"));
  line += ' ';
  line += event_type(event);
  for (const auto& [key, value] : event.object_value) {
    if (key == "seq" || key == "ts_us" || key == "tid" || key == "span" ||
        key == "type") {
      continue;
    }
    line += ' ';
    line += key;
    line += '=';
    line += scalar_text(value);
  }
  line += '\n';
  return line;
}

bool mentions(const JsonValue& event, std::string_view key,
              const std::string& target) {
  const std::string value = field_str(event, key);
  return !value.empty() &&
         (value == target || value.find(target) != std::string::npos);
}

}  // namespace

bool load_journal(std::string_view text, JournalDoc* out,
                  std::string* error) {
  out->events.clear();
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };

  std::size_t pos = 0;
  std::size_t line_no = 0;
  bool saw_header = false;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? std::string_view::npos
                                                       : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;

    JsonValue value;
    std::string parse_error;
    if (!json_parse(line, &value, &parse_error)) {
      return fail("line " + std::to_string(line_no) + ": " + parse_error);
    }
    if (!value.is_object()) {
      return fail("line " + std::to_string(line_no) + ": not a JSON object");
    }
    if (!saw_header) {
      const std::string schema = field_str(value, "schema");
      if (schema != "socet-journal-v1") {
        return fail("line " + std::to_string(line_no) +
                    ": expected {\"schema\":\"socet-journal-v1\",...} header, "
                    "got schema \"" +
                    schema + "\"");
      }
      saw_header = true;
      continue;
    }
    if (value.get("type") == nullptr) {
      return fail("line " + std::to_string(line_no) +
                  ": event without \"type\"");
    }
    out->events.push_back(std::move(value));
  }
  if (!saw_header) return fail("empty journal: no header line");
  return true;
}

std::string explain_mux(const JournalDoc& doc, const std::string& target) {
  std::string body;
  std::size_t count = 0;
  long long cells = 0;
  for (const JsonValue& event : doc.events) {
    const std::string type = event_type(event);
    if (type != "transparency/mux" && type != "ccg/mux") continue;
    if (!target.empty() && !mentions(event, "core", target) &&
        !mentions(event, "port", target) && !mentions(event, "pair", target)) {
      continue;
    }
    body += render_event(event);
    ++count;
    cells += field_int(event, "cells");
  }

  std::string out = "explain mux";
  if (!target.empty()) out += " \"" + target + "\"";
  out += ": " + std::to_string(count) + " mux insertion(s)\n";
  if (count == 0) {
    out += "  no mux events match; the searches found paths over "
           "existing/HSCAN edges.\n";
    return out;
  }
  out += body;
  out += "  total mux cost: " + std::to_string(cells) + " cell(s)\n";
  return out;
}

std::string explain_version(const JournalDoc& doc, const std::string& core) {
  std::string body;
  std::size_t paths = 0;
  std::size_t muxes = 0;
  std::map<std::string, std::size_t> by_class;
  for (const JsonValue& event : doc.events) {
    const std::string type = event_type(event);
    if (type != "transparency/path" && type != "transparency/mux") continue;
    if (!core.empty() && field_str(event, "core") != core) continue;
    body += render_event(event);
    if (type == "transparency/path") {
      ++paths;
      ++by_class[field_str(event, "edge_class")];
    } else {
      ++muxes;
    }
  }

  std::string out = "explain version";
  if (!core.empty()) out += " \"" + core + "\"";
  out += ": " + std::to_string(paths) + " path(s), " +
         std::to_string(muxes) + " mux fallback(s)\n";
  if (paths == 0 && muxes == 0) {
    out += "  no transparency events for this core; was the journal "
           "recorded during version construction (menus/plan/optimize)?\n";
    return out;
  }
  out += body;
  for (const auto& [edge_class, n] : by_class) {
    out += "  " + std::to_string(n) + " terminal(s) satisfied via " +
           edge_class + " edges\n";
  }
  return out;
}

std::string explain_route(const JournalDoc& doc, const std::string& core) {
  std::string body;
  std::size_t routes = 0;
  std::size_t muxes = 0;
  long long total_shift = 0;
  std::string planned;
  for (const JsonValue& event : doc.events) {
    const std::string type = event_type(event);
    if (type != "ccg/route" && type != "ccg/mux" && type != "soc/core_planned")
      continue;
    if (!core.empty() && field_str(event, "core") != core) continue;
    body += render_event(event);
    if (type == "ccg/route") {
      ++routes;
      total_shift += field_int(event, "shift");
    } else if (type == "ccg/mux") {
      ++muxes;
    } else {
      planned += "  period=" + std::to_string(field_int(event, "period")) +
                 " flush=" + std::to_string(field_int(event, "flush")) +
                 " vectors=" + std::to_string(field_int(event, "vectors")) +
                 " tat=" + std::to_string(field_int(event, "tat")) + "\n";
    }
  }

  std::string out = "explain route";
  if (!core.empty()) out += " \"" + core + "\"";
  out += ": " + std::to_string(routes) + " route(s), " +
         std::to_string(muxes) + " system mux(es)\n";
  if (routes == 0 && muxes == 0 && planned.empty()) {
    out += "  no scheduling events for this test-set; was the journal "
           "recorded during plan/optimize?\n";
    return out;
  }
  out += body;
  out += "  total reservation shift: " + std::to_string(total_shift) +
         " cycle(s)\n";
  if (!planned.empty()) out += planned;
  return out;
}

std::string explain_reject(const JournalDoc& doc, const std::string& core,
                           const std::string& version) {
  const auto version_matches = [&](const JsonValue& event) {
    if (version.empty()) return true;
    const std::string to = field_str(event, "to");
    if (to == version || to == "Version " + version) return true;
    const long long index = field_int(event, "to_index", -1);
    return index >= 0 && std::to_string(index) == version;
  };

  std::string body;
  std::size_t count = 0;
  std::map<std::string, std::size_t> reasons;
  for (const JsonValue& event : doc.events) {
    const std::string type = event_type(event);
    const bool rejected_proposal =
        type == "opt/propose" && field_str(event, "outcome") == "rejected";
    if (!rejected_proposal && type != "opt/reject_final") continue;
    if (!core.empty() && field_str(event, "core") != core) continue;
    if (!version_matches(event)) continue;
    body += render_event(event);
    ++count;
    ++reasons[field_str(event, "reason")];
  }

  std::string out = "explain reject";
  if (!core.empty()) out += " \"" + core + "\"";
  if (!version.empty()) out += " version \"" + version + "\"";
  out += ": " + std::to_string(count) + " rejection(s)\n";
  if (count == 0) {
    out += "  no rejected optimizer moves match; either the move was "
           "accepted or it was never proposed.\n";
    return out;
  }
  out += body;
  for (const auto& [reason, n] : reasons) {
    out += "  " + std::to_string(n) + "x " + reason + "\n";
  }
  return out;
}

}  // namespace socet::obs
