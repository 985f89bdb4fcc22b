// Spans for the traced run. The benchmark opens one span around each call
// it makes into a library module; the span's name is "<module>.<what>", so
// a layer's time is the self time of the spans named after it. Spans live
// in memory and are written out once, at exit, as Chrome trace-event JSON.
//
// With tracing off a Scope costs one relaxed atomic load.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::trace {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  // steady clock, since the first span
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;   // 0: a top-level span
  std::uint64_t request = 0;  // request id (simd_mixed), else 0
  std::uint32_t thread = 0;
};

void set_enabled(bool on);
bool enabled();
std::int64_t now_ns();

/// Records [construction, destruction) as a child of the calling thread's
/// current span, and is the current span while it lives.
class Scope {
 public:
  explicit Scope(std::string name, std::uint64_t request = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  std::string name_;
  std::uint64_t request_ = 0;
  std::uint32_t id_ = 0;
  std::uint32_t prev_ = 0;
  std::int64_t start_ = 0;
  bool on_ = false;
};

/// Makes `parent` the calling thread's current span: work a span hands to
/// other threads (sweep workers, client connections) nests under it.
class Adopt {
 public:
  explicit Adopt(std::uint32_t parent);
  ~Adopt();
  Adopt(const Adopt&) = delete;
  Adopt& operator=(const Adopt&) = delete;

 private:
  std::uint32_t prev_ = 0;
};

/// The calling thread's current span id (0 outside any span).
std::uint32_t current();

/// Every span recorded since the last clear().
std::vector<Span> spans();
void clear();

/// Self time (duration minus the union of its children's intervals) summed
/// per span name, seconds.
std::map<std::string, double> self_seconds(const std::vector<Span>& spans);

/// Length of the union of the top-level spans' intervals, seconds.
double top_level_cover_s(const std::vector<Span>& spans);

/// Chrome trace-event JSON ("X" events; args carry id, parent, request).
bool write_chrome_json(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench::trace
