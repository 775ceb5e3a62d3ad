#include "socet/obs/tracemerge.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>

#include "socet/obs/jsonin.hpp"
#include "socet/obs/report.hpp"

namespace socet::obs {

namespace {

std::string hex_id(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::uint64_t parse_u64(const std::string& text, int base) {
  return std::strtoull(text.c_str(), nullptr, base);
}

/// Greedy lane assignment for possibly-overlapping spans: `spans` must
/// be sorted by start; each span takes the lowest lane whose previous
/// occupant has already ended.  Returns one 0-based lane per span.
std::vector<std::size_t> assign_lanes(
    const std::vector<const SpanRecord*>& spans) {
  std::vector<std::uint64_t> lane_end;
  std::vector<std::size_t> lanes(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::size_t lane = lane_end.size();
    for (std::size_t j = 0; j < lane_end.size(); ++j) {
      if (lane_end[j] <= spans[i]->start_ns) {
        lane = j;
        break;
      }
    }
    if (lane == lane_end.size()) lane_end.push_back(0);
    lane_end[lane] = spans[i]->end_ns;
    lanes[i] = lane;
  }
  return lanes;
}

/// Minimal JSON writer for re-serializing parsed trace documents
/// (merge_chrome_trace_files); mirrors what json_parse accepts.
void write_json(const JsonValue& value, std::string* out) {
  switch (value.kind) {
    case JsonValue::Kind::kNull:
      *out += "null";
      break;
    case JsonValue::Kind::kBool:
      *out += value.bool_value ? "true" : "false";
      break;
    case JsonValue::Kind::kNumber: {
      // Shortest round-trip form: re-serialized timestamps keep every
      // digit (json_number's %.6g would round late spans together).
      char buf[32];
      const auto result =
          std::to_chars(buf, buf + sizeof(buf), value.number_value);
      out->append(buf, result.ptr);
      break;
    }
    case JsonValue::Kind::kString:
      *out += '"';
      *out += json_escape(value.string_value);
      *out += '"';
      break;
    case JsonValue::Kind::kArray: {
      *out += '[';
      bool first = true;
      for (const JsonValue& item : value.array_value) {
        if (!first) *out += ',';
        first = false;
        write_json(item, out);
      }
      *out += ']';
      break;
    }
    case JsonValue::Kind::kObject: {
      *out += '{';
      bool first = true;
      for (const auto& [key, item] : value.object_value) {
        if (!first) *out += ',';
        first = false;
        *out += '"';
        *out += json_escape(key);
        *out += "\":";
        write_json(item, out);
      }
      *out += '}';
      break;
    }
  }
}

}  // namespace

std::int64_t estimate_clock_offset_ns(
    const std::vector<ClockSample>& samples) {
  bool found = false;
  std::uint64_t best_rtt = 0;
  std::int64_t best = 0;
  for (const ClockSample& sample : samples) {
    if (sample.recv_ns < sample.send_ns) continue;
    const std::uint64_t rtt = sample.recv_ns - sample.send_ns;
    if (found && rtt >= best_rtt) continue;
    found = true;
    best_rtt = rtt;
    const std::int64_t midpoint =
        static_cast<std::int64_t>(sample.send_ns + rtt / 2);
    best = static_cast<std::int64_t>(sample.server_ns) - midpoint;
  }
  return found ? best : 0;
}

std::string remote_spans_jsonl(const std::vector<SpanRecord>& spans) {
  std::string out;
  for (const SpanRecord& span : spans) {
    out += "{\"name\":\"" + json_escape(span.name) +
           "\",\"tid\":" + std::to_string(span.tid) + ",\"id\":\"" +
           hex_id(span.id) + "\",\"parent\":\"" + hex_id(span.parent) +
           "\",\"start_ns\":\"" + std::to_string(span.start_ns) +
           "\",\"end_ns\":\"" + std::to_string(span.end_ns) + "\"}\n";
  }
  return out;
}

bool parse_remote_spans_jsonl(std::string_view text,
                              std::vector<SpanRecord>* out,
                              std::string* error) {
  out->clear();
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (line.empty()) continue;
    JsonValue value;
    std::string parse_error;
    if (!json_parse(line, &value, &parse_error) || !value.is_object()) {
      if (error != nullptr) {
        *error = "span line " + std::to_string(line_no) + ": " +
                 (parse_error.empty() ? "not a JSON object" : parse_error);
      }
      return false;
    }
    SpanRecord span;
    const JsonValue* name = value.get("name");
    if (name == nullptr || !name->is_string()) {
      if (error != nullptr) {
        *error = "span line " + std::to_string(line_no) + ": missing name";
      }
      return false;
    }
    span.name = name->string_value;
    span.tid = static_cast<std::uint32_t>(
        value.get("tid") != nullptr ? value.get("tid")->number_or(0) : 0);
    const auto string_field = [&value](const char* key) -> std::string {
      const JsonValue* field = value.get(key);
      return field != nullptr ? field->string_or("0") : "0";
    };
    span.id = parse_u64(string_field("id"), 16);
    span.parent = parse_u64(string_field("parent"), 16);
    span.start_ns = parse_u64(string_field("start_ns"), 10);
    span.end_ns = parse_u64(string_field("end_ns"), 10);
    out->push_back(std::move(span));
  }
  return true;
}

void ChromeTraceWriter::emit(const std::string& event) {
  if (!first_) out_ += ',';
  first_ = false;
  out_ += event;
}

std::string ChromeTraceWriter::ts(std::uint64_t ns) const {
  return json_us(static_cast<std::int64_t>(ns - epoch_ns_));
}

void ChromeTraceWriter::metadata(int pid, int tid, const char* what,
                                 const std::string& name) {
  emit("{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
       ",\"tid\":" + std::to_string(tid) + ",\"name\":\"" + what +
       "\",\"args\":{\"name\":\"" + json_escape(name) + "\"}}");
}

void ChromeTraceWriter::slice(int pid, int tid, const SpanRecord& span,
                              std::uint64_t trace_id) {
  std::string event =
      "{\"ph\":\"X\",\"pid\":" + std::to_string(pid) +
      ",\"tid\":" + std::to_string(tid) + ",\"name\":\"" +
      json_escape(span.name) + "\",\"cat\":\"socet\",\"ts\":" +
      ts(span.start_ns) + ",\"dur\":" +
      json_us(static_cast<std::int64_t>(span.end_ns - span.start_ns)) +
      ",\"args\":{";
  if (trace_id != 0) event += "\"trace\":\"" + hex_id(trace_id) + "\",";
  event += "\"span\":\"" + hex_id(span.id) + "\"";
  if (span.parent != 0) event += ",\"parent\":\"" + hex_id(span.parent) + "\"";
  emit(event + "}}");
}

void ChromeTraceWriter::flow(bool finish, int pid, int tid, std::uint64_t id,
                             std::uint64_t at_ns) {
  emit(std::string("{\"ph\":") + (finish ? "\"f\",\"bp\":\"e\"" : "\"s\"") +
       ",\"pid\":" + std::to_string(pid) + ",\"tid\":" + std::to_string(tid) +
       ",\"name\":\"submit\",\"cat\":\"socet\",\"id\":\"" + hex_id(id) +
       "\",\"ts\":" + ts(at_ns) + "}");
}

std::string ChromeTraceWriter::finish() { return std::move(out_) + "]}"; }

std::string merged_chrome_trace(const MergeInput& input) {
  // Re-base daemon spans onto the client clock up front; everything
  // after this point works in one timeline.
  std::vector<SpanRecord> daemon = input.daemon_spans;
  for (SpanRecord& span : daemon) {
    span.start_ns = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(span.start_ns) - input.clock_offset_ns);
    span.end_ns = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(span.end_ns) - input.clock_offset_ns);
  }

  std::uint64_t epoch = 0;
  bool have_epoch = false;
  const auto consider = [&](std::uint64_t start_ns) {
    if (!have_epoch || start_ns < epoch) epoch = start_ns;
    have_epoch = true;
  };
  for (const SpanRecord& span : input.client_spans) consider(span.start_ns);
  for (const SpanRecord& span : daemon) consider(span.start_ns);

  ChromeTraceWriter writer(epoch);
  writer.metadata(1, 0, "process_name", "socet client");
  writer.metadata(2, 0, "process_name", "socet serve");

  // Client submit spans overlap under pipelining, so stripe them
  // across as many pid-1 lanes as the window needed.
  std::vector<const SpanRecord*> client;
  for (const SpanRecord& span : input.client_spans) client.push_back(&span);
  std::sort(client.begin(), client.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              return a->start_ns < b->start_ns;
            });
  const std::vector<std::size_t> client_lanes = assign_lanes(client);
  std::size_t client_lane_count = 0;
  std::map<std::uint64_t, std::pair<int, std::uint64_t>> client_by_id;
  for (std::size_t i = 0; i < client.size(); ++i) {
    client_lane_count = std::max(client_lane_count, client_lanes[i] + 1);
    const int tid = static_cast<int>(client_lanes[i]) + 1;
    client_by_id[client[i]->id] = {tid, client[i]->start_ns};
    writer.slice(1, tid, *client[i], input.trace_id);
  }
  for (std::size_t lane = 0; lane < client_lane_count; ++lane) {
    writer.metadata(1, static_cast<int>(lane) + 1, "thread_name",
                    "submit #" + std::to_string(lane + 1));
  }

  // Daemon worker spans (tid > 0) nest strictly per thread; the
  // cross-thread queue/respond spans (tid 0) get striped lanes.
  std::map<std::uint32_t, std::vector<const SpanRecord*>> worker_lanes;
  std::vector<const SpanRecord*> loose;
  for (const SpanRecord& span : daemon) {
    if (span.tid > 0) {
      worker_lanes[span.tid].push_back(&span);
    } else {
      loose.push_back(&span);
    }
  }
  for (auto& [tid, lane] : worker_lanes) {
    std::sort(lane.begin(), lane.end(),
              [](const SpanRecord* a, const SpanRecord* b) {
                if (a->start_ns != b->start_ns)
                  return a->start_ns < b->start_ns;
                return a->end_ns > b->end_ns;
              });
    writer.metadata(2, static_cast<int>(tid), "thread_name",
                    "worker tid " + std::to_string(tid));
    for (const SpanRecord* span : lane) {
      writer.slice(2, static_cast<int>(tid), *span, input.trace_id);
    }
  }
  std::sort(loose.begin(), loose.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              return a->start_ns < b->start_ns;
            });
  const std::vector<std::size_t> loose_lanes = assign_lanes(loose);
  std::size_t loose_lane_count = 0;
  for (std::size_t i = 0; i < loose.size(); ++i) {
    loose_lane_count = std::max(loose_lane_count, loose_lanes[i] + 1);
    writer.slice(2, static_cast<int>(loose_lanes[i]) + 900, *loose[i],
                 input.trace_id);
  }
  for (std::size_t lane = 0; lane < loose_lane_count; ++lane) {
    writer.metadata(2, static_cast<int>(lane) + 900, "thread_name",
                    "queue/respond #" + std::to_string(lane + 1));
  }

  // Flow events draw each client→daemon handoff: one `s` on the submit
  // slice, one `f` per daemon span that adopted it as parent.
  for (const SpanRecord& span : daemon) {
    const auto client_it = client_by_id.find(span.parent);
    if (client_it == client_by_id.end()) continue;
    const auto [client_tid, client_start] = client_it->second;
    writer.flow(false, 1, client_tid, span.parent, client_start);
    writer.flow(true, 2, span.tid > 0 ? static_cast<int>(span.tid) : 900,
                span.parent, span.start_ns);
  }
  return writer.finish();
}

bool merge_chrome_trace_files(const std::string& base_json,
                              const std::string& overlay_json,
                              double overlay_offset_us, std::string* out,
                              std::string* error) {
  const auto load = [error](const std::string& text, const char* which,
                            JsonValue* doc) -> const JsonValue* {
    std::string parse_error;
    if (!json_parse(text, doc, &parse_error)) {
      if (error != nullptr) {
        *error = std::string(which) + ": " + parse_error;
      }
      return nullptr;
    }
    const JsonValue* events = doc->get("traceEvents");
    if (events == nullptr || !events->is_array()) {
      if (error != nullptr) {
        *error = std::string(which) + ": no traceEvents array";
      }
      return nullptr;
    }
    return events;
  };
  JsonValue base_doc;
  JsonValue overlay_doc;
  const JsonValue* base_events = load(base_json, "base", &base_doc);
  if (base_events == nullptr) return false;
  const JsonValue* overlay_events = load(overlay_json, "overlay", &overlay_doc);
  if (overlay_events == nullptr) return false;

  double base_max_pid = 0;
  for (const JsonValue& event : base_events->array_value) {
    const JsonValue* pid = event.get("pid");
    if (pid != nullptr) base_max_pid = std::max(base_max_pid, pid->number_or(0));
  }

  // Span ids are only unique within one document (time-seeded per
  // process, new_span_id); two captures can reuse an id.  When the
  // overlay shares any id with the base, remap every colliding overlay
  // id to a fresh value past everything either document uses —
  // first-appearance order, so the remap is deterministic and the
  // overlay's own parent chains stay intact.  Collision-free merges
  // are re-serialized byte-identically (empty remap).
  const auto collect_ids = [](const JsonValue* events,
                              std::set<std::uint64_t>* ids,
                              std::vector<std::uint64_t>* order) {
    for (const JsonValue& event : events->array_value) {
      for (const char* key : {"id", "span", "parent"}) {
        const JsonValue* field =
            key[0] == 'i' ? event.get(key)
                          : (event.get("args") != nullptr
                                 ? event.get("args")->get(key)
                                 : nullptr);
        if (field == nullptr || !field->is_string()) continue;
        const std::uint64_t id = parse_u64(field->string_value, 16);
        if (id == 0) continue;
        if (ids->insert(id).second && order != nullptr) order->push_back(id);
      }
    }
  };
  std::set<std::uint64_t> base_ids;
  collect_ids(base_events, &base_ids, nullptr);
  std::set<std::uint64_t> overlay_ids;
  std::vector<std::uint64_t> overlay_order;  ///< first-appearance order
  collect_ids(overlay_events, &overlay_ids, &overlay_order);
  std::map<std::uint64_t, std::uint64_t> remap;
  std::uint64_t next_id =
      std::max(base_ids.empty() ? 0 : *base_ids.rbegin(),
               overlay_ids.empty() ? 0 : *overlay_ids.rbegin()) +
      1;
  for (const std::uint64_t id : overlay_order) {
    if (base_ids.count(id) != 0) remap[id] = next_id++;
  }

  *out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const JsonValue& event : base_events->array_value) {
    if (!first) *out += ',';
    first = false;
    write_json(event, out);
  }
  for (JsonValue event : overlay_events->array_value) {
    for (auto& [key, value] : event.object_value) {
      if (key == "pid" && value.is_number()) {
        value.number_value += base_max_pid;
      } else if (key == "ts" && value.is_number()) {
        // Stay on the nanosecond grid the writers emit.
        value.number_value =
            std::round((value.number_value + overlay_offset_us) * 1e3) / 1e3;
      }
    }
    if (!remap.empty()) {
      const auto rewrite = [&remap](JsonValue& field) {
        if (!field.is_string()) return;
        const auto it = remap.find(parse_u64(field.string_value, 16));
        if (it != remap.end()) field.string_value = hex_id(it->second);
      };
      for (auto& [key, value] : event.object_value) {
        if (key == "id") rewrite(value);
        if (key == "args" && value.is_object()) {
          for (auto& [arg_key, arg_value] : value.object_value) {
            if (arg_key == "span" || arg_key == "parent") rewrite(arg_value);
          }
        }
      }
    }
    if (!first) *out += ',';
    first = false;
    write_json(event, out);
  }
  *out += "]}";
  return true;
}

}  // namespace socet::obs
