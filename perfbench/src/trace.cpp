#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "perfbench.hpp"

namespace perfbench {

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

std::int64_t Tracer::ns_at(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

std::int64_t Tracer::now_ns() const { return ns_at(Clock::now()); }

std::uint32_t Tracer::begin(std::string_view name) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = open_.empty() ? 0 : open_.back();
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::end(std::uint32_t id) {
  if (!enabled_ || id == 0) return;
  spans_[id - 1].end_ns = now_ns();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::add(std::string_view name, std::int64_t start_ns,
                 std::int64_t end_ns) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = open_.empty() ? 0 : open_.back();
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(std::move(span));
}

std::string render_spans_jsonl(const std::vector<Span>& spans) {
  std::string out;
  char line[512];
  for (const Span& span : spans) {
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"id\":%" PRIu32 ",\"parent\":%" PRIu32
                  ",\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64 "}\n",
                  span.name.c_str(), span.id, span.parent, span.start_ns,
                  span.end_ns);
    out += line;
  }
  return out;
}

double span_seconds(const std::vector<Span>& spans, std::string_view name) {
  std::int64_t total = 0;
  for (const Span& span : spans) {
    if (span.name == name) total += span.end_ns - span.start_ns;
  }
  return static_cast<double>(total) * 1e-9;
}

double span_coverage(const std::vector<Span>& spans, std::int64_t from_ns,
                     std::int64_t to_ns,
                     const std::vector<std::string>& exclude) {
  if (to_ns <= from_ns) return 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  for (const Span& span : spans) {
    if (std::find(exclude.begin(), exclude.end(), span.name) !=
        exclude.end()) {
      continue;
    }
    const std::int64_t lo = std::max(span.start_ns, from_ns);
    const std::int64_t hi = std::min(span.end_ns, to_ns);
    if (hi > lo) intervals.emplace_back(lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t reach = from_ns;
  for (const auto& [lo, hi] : intervals) {
    const std::int64_t start = std::max(lo, reach);
    if (hi > start) {
      covered += hi - start;
      reach = hi;
    }
  }
  return static_cast<double>(covered) / static_cast<double>(to_ns - from_ns);
}

double span_cost_ns() {
  constexpr int kPairs = 20000;
  Tracer scratch(true);
  const auto start = Clock::now();
  for (int i = 0; i < kPairs; ++i) {
    ScopedSpan span(scratch, "atpg.generate.PREPROCESSOR");
  }
  return seconds_between(start, Clock::now()) * 1e9 / kPairs;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::optional<Tail> tail_percentile(std::vector<double> values,
                                    double wanted) {
  constexpr double kCandidates[] = {99.9, 99, 95, 90, 75, 50};
  constexpr std::size_t kBeyond = 10;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  for (double p : kCandidates) {
    if (p > wanted) continue;
    // Nearest rank: the smallest rank r with r >= p% of n.
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    if (rank == 0 || n - rank < kBeyond) continue;
    return Tail{p, values[rank - 1], n};
  }
  return std::nullopt;
}

void Digest::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= p[i];
    hash_ *= 0x100000001b3ULL;
  }
}

void Digest::u64(std::uint64_t value) {
  unsigned char le[8];
  for (int i = 0; i < 8; ++i) le[i] = static_cast<unsigned char>(value >> (8 * i));
  bytes(le, sizeof(le));
}

void Digest::text(std::string_view value) {
  u64(value.size());
  bytes(value.data(), value.size());
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash_);
  return buf;
}

}  // namespace perfbench
