// Chrome trace rendering and cross-process trace assembly.
//
// `ChromeTraceWriter` is the one trace-event writer: the local
// `--trace` export (`chrome_trace_json`, trace.hpp) and the merged
// client/daemon document below both render SpanRecords through it as
// `X` slices whose `args.span`/`args.parent` carry hex span ids, with
// `ts`/`dur` as fixed-point microseconds computed from integer
// nanoseconds (`json_us`).  `socet trace-analyze` reads exactly this
// flavor back (traceanalyze.hpp).
//
// For `batch --connect --trace` the client and the daemon run on the
// same machine or not — either way their steady clocks have unrelated
// epochs, so daemon-side span timestamps must be re-based onto the
// client's timeline before the two halves can share one trace.  The
// client performs a small clock handshake (a few `clock` probes over
// the already-open connection) and `estimate_clock_offset_ns` turns
// the probe samples into an offset using the classic min-RTT midpoint
// estimate: the sample with the smallest round trip bounds the server
// timestamp tightest, and the midpoint of its send/receive pair is the
// best guess for when the server read its clock.
//
// `merged_chrome_trace` then renders ONE trace-event document:
//
//   pid 1  socet client   submit lanes (one X slice per in-flight job)
//   pid 2  socet serve    queue/respond lanes + one lane per worker
//
// Slices carry `args.trace` as well, and flow events (`ph:"s"`/`"f"`)
// draw the client→daemon handoff in Perfetto.
//
// Span timestamps cross the wire as *decimal strings*, not JSON
// numbers: steady-clock nanosecond readings can exceed the 2^53
// integer range of a double, and only differences are small.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "socet/obs/trace.hpp"

namespace socet::obs {

/// Builds one Chrome trace-event document.  Timestamps are relative to
/// `epoch_ns` (the earliest span start), so they stay small and exact.
class ChromeTraceWriter {
 public:
  explicit ChromeTraceWriter(std::uint64_t epoch_ns) : epoch_ns_(epoch_ns) {}

  /// `ph:"M"` metadata: `what` is "process_name" or "thread_name".
  void metadata(int pid, int tid, const char* what, const std::string& name);
  /// One `X` slice.  `args` carry `trace` (when nonzero), `span`, and
  /// `parent` (when nonzero) as hex ids.
  void slice(int pid, int tid, const SpanRecord& span,
             std::uint64_t trace_id = 0);
  /// One flow event: `finish` false draws the `s` end, true the `f`.
  void flow(bool finish, int pid, int tid, std::uint64_t id,
            std::uint64_t at_ns);
  /// The finished document; the writer is spent afterwards.
  std::string finish();

 private:
  void emit(const std::string& event);
  std::string ts(std::uint64_t ns) const;

  std::uint64_t epoch_ns_ = 0;
  std::string out_ = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first_ = true;
};

/// One `clock` probe: client send/receive times (client clock) and the
/// server's reported time (daemon clock), all in nanoseconds.
struct ClockSample {
  std::uint64_t send_ns = 0;
  std::uint64_t recv_ns = 0;
  std::uint64_t server_ns = 0;
};

/// Min-RTT midpoint estimate of (daemon clock − client clock) in
/// nanoseconds: daemon_ns ≈ client_ns + offset.  Samples with
/// recv < send are ignored; returns 0 when no sample is usable.
std::int64_t estimate_clock_offset_ns(const std::vector<ClockSample>& samples);

/// Serialize span records for the serve `spans` verb: one JSON object
/// per line (ids as hex strings, timestamps as decimal-string ns).
std::string remote_spans_jsonl(const std::vector<SpanRecord>& spans);

/// Parse `remote_spans_jsonl` output.  Unknown fields are ignored;
/// a malformed line fails the whole parse with a line number.
bool parse_remote_spans_jsonl(std::string_view text,
                              std::vector<SpanRecord>* out,
                              std::string* error = nullptr);

/// Everything needed to assemble one cross-process trace.
struct MergeInput {
  std::uint64_t trace_id = 0;
  std::int64_t clock_offset_ns = 0;      ///< daemon = client + offset
  std::vector<SpanRecord> client_spans;  ///< client clock (submit spans)
  std::vector<SpanRecord> daemon_spans;  ///< daemon clock
};

/// One Chrome trace-event JSON document with client and daemon spans
/// on aligned timelines (see the file comment for the layout).
std::string merged_chrome_trace(const MergeInput& input);

/// Offline tool behind `socet trace-merge`: concatenate two Chrome
/// trace documents into one, remapping the overlay's pids past the
/// base's and shifting overlay timestamps by `overlay_offset_us`.
/// Overlay span/flow ids that collide with base ids (both processes
/// seed new_span_id from the clock, so reuse is possible) are remapped
/// to fresh values in first-appearance order rather than silently
/// merging two unrelated spans into one tree.
bool merge_chrome_trace_files(const std::string& base_json,
                              const std::string& overlay_json,
                              double overlay_offset_us, std::string* out,
                              std::string* error = nullptr);

}  // namespace socet::obs
