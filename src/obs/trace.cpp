#include "socet/obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>

#include "socet/obs/tracemerge.hpp"

namespace socet::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
constinit thread_local SpanCapture* g_capture = nullptr;
}  // namespace detail

namespace {

/// One thread's recording state.  Registered with the sink on first
/// use; the destructor (thread exit) hands the records back so worker
/// threads that die before export still show up.
struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::vector<std::uint64_t> open;  ///< ids of this thread's open spans
  std::vector<SpanRecord> records;  ///< closed, globally traced spans
  std::string thread_name;

  ThreadBuffer();
  ~ThreadBuffer();
};

/// Global collection point.  Holds pointers to live thread buffers and
/// the records/names of exited threads.
struct TraceSink {
  std::mutex mutex;
  std::uint32_t next_tid = 1;
  std::vector<ThreadBuffer*> live;
  std::vector<SpanRecord> retired;
  std::map<std::uint32_t, std::string> thread_names;

  static TraceSink& instance() {
    static TraceSink sink;
    return sink;
  }
};

ThreadBuffer::ThreadBuffer() {
  TraceSink& sink = TraceSink::instance();
  std::lock_guard<std::mutex> lock(sink.mutex);
  tid = sink.next_tid++;
  sink.live.push_back(this);
}

ThreadBuffer::~ThreadBuffer() {
  TraceSink& sink = TraceSink::instance();
  std::lock_guard<std::mutex> lock(sink.mutex);
  sink.retired.insert(sink.retired.end(),
                      std::make_move_iterator(records.begin()),
                      std::make_move_iterator(records.end()));
  if (!thread_name.empty()) sink.thread_names[tid] = thread_name;
  sink.live.erase(std::remove(sink.live.begin(), sink.live.end(), this),
                  sink.live.end());
}

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer buffer;
  return buffer;
}

}  // namespace

void set_trace_enabled(bool enabled) {
  detail::g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

namespace detail {

void maybe_test_delay(const char* name) {
  // "<span-name>:<us>", parsed once.  Empty target = disabled.
  struct SlowSpec {
    std::string target;
    long micros = 0;
    SlowSpec() {
      const char* spec = std::getenv("SOCET_TRACE_TEST_SLOW");
      if (spec == nullptr) return;
      const char* colon = std::strrchr(spec, ':');
      if (colon == nullptr || colon == spec) return;
      char* end = nullptr;
      const long value = std::strtol(colon + 1, &end, 10);
      if (end == colon + 1 || *end != '\0' || value <= 0) return;
      target.assign(spec, static_cast<std::size_t>(colon - spec));
      micros = value;
    }
  };
  static const SlowSpec spec;
  if (spec.micros > 0 && spec.target == name) {
    std::this_thread::sleep_for(std::chrono::microseconds(spec.micros));
  }
}

}  // namespace detail

std::uint64_t new_span_id() {
  static std::atomic<std::uint64_t> counter{1};
  // High bits: nanoseconds at first use, so ids minted by the client
  // process and the daemon process never collide in one merged trace.
  static const std::uint64_t seed = (now_ns() << 16) & 0x7fffffff00000000ull;
  return seed | counter.fetch_add(1, std::memory_order_relaxed);
}

void Span::open(const char* name) {
  ThreadBuffer& buffer = local_buffer();
  SpanCapture* capture = detail::g_capture;
  traced_ = trace_enabled();
  captured_ = capture != nullptr;
  // A capture's outermost spans hang under the remote parent; anything
  // deeper (or uncaptured) under the innermost open span.
  if (captured_ && buffer.open.size() == capture->base_depth_) {
    parent_ = capture->remote_parent_;
  } else {
    parent_ = buffer.open.empty() ? 0 : buffer.open.back();
  }
  name_ = name;
  id_ = new_span_id();
  buffer.open.push_back(id_);
  start_ns_ = now_ns();
  // After the start stamp, so the injected latency lands inside this
  // span's duration (that's what the diff test attributes).
  detail::maybe_test_delay(name);
}

void Span::close() {
  const std::uint64_t end_ns = now_ns();
  ThreadBuffer& buffer = local_buffer();
  if (!buffer.open.empty() && buffer.open.back() == id_) buffer.open.pop_back();
  SpanRecord record{name_, buffer.tid, id_, parent_, start_ns_, end_ns};
  if (captured_ && detail::g_capture != nullptr) {
    detail::g_capture->records_.push_back(record);
  }
  if (traced_) buffer.records.push_back(std::move(record));
}

SpanCapture::SpanCapture(std::uint64_t trace_id, std::uint64_t remote_parent)
    : trace_id_(trace_id), remote_parent_(remote_parent) {
  if (detail::g_capture != nullptr) return;  // nested capture: passive
  base_depth_ = local_buffer().open.size();
  detail::g_capture = this;
}

SpanCapture::~SpanCapture() {
  if (detail::g_capture == this) detail::g_capture = nullptr;
}

std::vector<SpanRecord> SpanCapture::take() { return std::move(records_); }

void name_this_thread(const std::string& name) {
  ThreadBuffer& buffer = local_buffer();
  buffer.thread_name = name;
  TraceSink& sink = TraceSink::instance();
  std::lock_guard<std::mutex> lock(sink.mutex);
  sink.thread_names[buffer.tid] = name;
}

std::vector<SpanRecord> recorded_spans() {
  TraceSink& sink = TraceSink::instance();
  std::lock_guard<std::mutex> lock(sink.mutex);
  std::vector<SpanRecord> spans = sink.retired;
  for (const ThreadBuffer* buffer : sink.live) {
    spans.insert(spans.end(), buffer->records.begin(), buffer->records.end());
  }
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.end_ns > b.end_ns;
            });
  return spans;
}

std::string chrome_trace_json() {
  const std::vector<SpanRecord> spans = recorded_spans();
  ChromeTraceWriter writer(spans.empty() ? 0 : spans.front().start_ns);
  {
    TraceSink& sink = TraceSink::instance();
    std::lock_guard<std::mutex> lock(sink.mutex);
    for (const auto& [tid, name] : sink.thread_names) {
      writer.metadata(1, static_cast<int>(tid), "thread_name", name);
    }
  }
  for (const SpanRecord& span : spans) {
    writer.slice(1, static_cast<int>(span.tid), span);
  }
  return writer.finish();
}

void reset_trace() {
  TraceSink& sink = TraceSink::instance();
  std::lock_guard<std::mutex> lock(sink.mutex);
  sink.retired.clear();
  sink.thread_names.clear();
  for (ThreadBuffer* buffer : sink.live) buffer->records.clear();
}

}  // namespace socet::obs
