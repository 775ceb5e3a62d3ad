// Scoped wall-time spans, recorded as id-linked SpanRecords.
//
//   void plan(...) {
//     SOCET_SPAN("soc/plan_chip_test");
//     ...
//   }
//
// A Span is an RAII guard.  While recording (global tracing on, or a
// SpanCapture live on this thread) it mints a span id, takes the id of
// the innermost span still open on its thread as parent, and on
// destruction stores one closed SpanRecord.  There is one span
// representation: the same records feed the local Chrome export
// (`chrome_trace_json`), the run report, the daemon's per-request
// capture, and the offline analyzer (traceanalyze.hpp).
//
// Disabled cost: the constructor reads the relaxed global trace switch
// and this thread's capture pointer (a direct thread-local load, no
// call), then makes the one out-of-line `journal_enabled()` call that
// maintains the journal's crash-dump span stack; the destructor tests
// two members.  No id is minted and the clock is not read.
//
// Buffers register themselves with a global sink on first use and hand
// their records back when the thread exits, so worker-pool threads
// that die before export still appear in the trace — each thread gets
// its own lane (`tid`) in chrome://tracing / Perfetto.  Export
// (`recorded_spans`, `chrome_trace_json`) must only run when no
// instrumented thread is concurrently recording — in practice: after
// worker pools have joined, which is how the CLI uses it.
//
// Span names are `<stage>/<what>` string literals; the leading stage
// segment is what the run report aggregates by (see report.hpp and
// docs/OBSERVABILITY.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "socet/obs/journal.hpp"
#include "socet/obs/timer.hpp"

namespace socet::obs {

class SpanCapture;

namespace detail {
extern std::atomic<bool> g_trace_enabled;
/// The capture adopted by this thread, if any (see SpanCapture).
extern constinit thread_local SpanCapture* g_capture;
}  // namespace detail

/// Global tracing switch (independent of the metrics switch).
inline bool trace_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}
void set_trace_enabled(bool enabled);

/// One closed span.  Self-contained (owned name, explicit parent link)
/// so it can also cross the process boundary (tracemerge.hpp serializes
/// it for the serve `spans` verb).
struct SpanRecord {
  std::string name;
  std::uint32_t tid = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Process-unique span/trace id: a per-process time-derived seed in the
/// high bits (so two processes started at different nanoseconds draw
/// from disjoint ranges) plus an atomic counter.  Never returns 0.
std::uint64_t new_span_id();

namespace detail {
/// Test hook: when SOCET_TRACE_TEST_SLOW="<span-name>:<us>" is set in
/// the environment, sleep that long on entry to the named span.  The
/// knob exists so trace-diff tests can slow one stage deterministically
/// (docs/OBSERVABILITY.md); parsed once, zero cost when unset.
void maybe_test_delay(const char* name);
}  // namespace detail

/// Adopt a remote trace context on the *current thread*: while alive,
/// every SOCET_SPAN this thread opens is recorded into this capture,
/// parented under the innermost span opened inside the capture (or
/// under `remote_parent` at the top).  Independent of the global trace
/// switch — this is how daemon workers trace one request on behalf of
/// a client without turning whole-process tracing on.  `take()` hands
/// the records back; call it after the instrumented scope closed.
/// Captures do not nest: a second capture on the same thread is
/// passive (records nothing, take() returns empty).
class SpanCapture {
 public:
  SpanCapture(std::uint64_t trace_id, std::uint64_t remote_parent);
  ~SpanCapture();
  SpanCapture(const SpanCapture&) = delete;
  SpanCapture& operator=(const SpanCapture&) = delete;

  std::uint64_t trace_id() const { return trace_id_; }
  std::vector<SpanRecord> take();

 private:
  friend class Span;
  std::uint64_t trace_id_ = 0;
  std::uint64_t remote_parent_ = 0;
  std::size_t base_depth_ = 0;  ///< open spans on this thread at adoption
  std::vector<SpanRecord> records_;
};

class Span {
 public:
  explicit Span(const char* name) {
    if (trace_enabled() || detail::g_capture != nullptr) open(name);
    // The journal's crash dump reports each thread's active spans, so
    // spans also maintain a journal-side stack while it is recording.
    if (journal_enabled()) {
      journal_pushed_ = true;
      detail::journal_push_span(name);
    }
  }
  ~Span() {
    if (id_ != 0) close();
    if (journal_pushed_) detail::journal_pop_span();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void open(const char* name);
  void close();

  const char* name_ = nullptr;
  std::uint64_t id_ = 0;  ///< nonzero while recording
  std::uint64_t parent_ = 0;
  std::uint64_t start_ns_ = 0;
  bool traced_ = false;    ///< global tracing was on at open
  bool captured_ = false;  ///< a SpanCapture was live at open
  bool journal_pushed_ = false;
};

/// Label this thread's lane in the exported trace (e.g. "worker-2").
void name_this_thread(const std::string& name);

/// Copy of every globally traced span (live buffers + exited threads),
/// sorted by start time, longest first on ties.  See the export caveat
/// above.
std::vector<SpanRecord> recorded_spans();

/// Chrome trace-event JSON document of `recorded_spans()`: one `X`
/// slice per span with hex `args.span`/`args.parent` ids on pid 1, one
/// `tid` lane per recording thread with thread-name metadata, and
/// fixed-point microsecond timestamps relative to the first span
/// (tracemerge.hpp's ChromeTraceWriter).
std::string chrome_trace_json();

/// Drop all recorded spans and thread names (tests).
void reset_trace();

}  // namespace socet::obs

#define SOCET_OBS_CONCAT2(a, b) a##b
#define SOCET_OBS_CONCAT(a, b) SOCET_OBS_CONCAT2(a, b)
/// Open a span covering the rest of the enclosing scope.
#define SOCET_SPAN(name) \
  ::socet::obs::Span SOCET_OBS_CONCAT(socet_obs_span_, __LINE__)(name)
