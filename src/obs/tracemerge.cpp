#include "socet/obs/tracemerge.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

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
    span.tid = value.int_at<std::uint32_t>("tid", 0);
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

}  // namespace socet::obs
