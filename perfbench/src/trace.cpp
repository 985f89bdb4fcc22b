#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace perfbench::trace {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_thread{1};

std::mutex g_mu;
std::vector<Span> g_spans;  // guarded by g_mu

thread_local std::uint32_t t_current = 0;
thread_local std::uint32_t t_thread = 0;

std::uint32_t thread_index() {
  if (t_thread == 0) t_thread = g_next_thread.fetch_add(1);
  return t_thread;
}

using Interval = std::pair<std::int64_t, std::int64_t>;

/// Length of the union of `iv`, each clipped to [lo, hi).
std::int64_t union_length(std::vector<Interval> iv, std::int64_t lo,
                          std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0, cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) total += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::int64_t now_ns() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

Scope::Scope(std::string name, std::uint64_t request) : on_(enabled()) {
  if (!on_) return;
  name_ = std::move(name);
  request_ = request;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  prev_ = t_current;
  t_current = id_;
  start_ = now_ns();
}

Scope::~Scope() {
  if (!on_) return;
  const std::int64_t end = now_ns();
  t_current = prev_;
  Span s;
  s.name = std::move(name_);
  s.start_ns = start_;
  s.end_ns = end;
  s.id = id_;
  s.parent = prev_;
  s.request = request_;
  s.thread = thread_index();
  std::lock_guard<std::mutex> lk(g_mu);
  g_spans.push_back(std::move(s));
}

Adopt::Adopt(std::uint32_t parent) : prev_(t_current) { t_current = parent; }
Adopt::~Adopt() { t_current = prev_; }

std::uint32_t current() { return t_current; }

std::vector<Span> spans() {
  std::lock_guard<std::mutex> lk(g_mu);
  return g_spans;
}

void clear() {
  std::lock_guard<std::mutex> lk(g_mu);
  g_spans.clear();
}

std::map<std::string, double> self_seconds(const std::vector<Span>& spans) {
  std::unordered_map<std::uint32_t, std::vector<Interval>> children;
  for (const Span& s : spans)
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    std::int64_t self = s.end_ns - s.start_ns;
    auto it = children.find(s.id);
    if (it != children.end())
      self -= union_length(it->second, s.start_ns, s.end_ns);
    out[s.name] += static_cast<double>(self) * 1e-9;
  }
  return out;
}

double top_level_cover_s(const std::vector<Span>& spans) {
  std::vector<Interval> top;
  std::int64_t lo = INT64_MAX, hi = INT64_MIN;
  for (const Span& s : spans) {
    if (s.parent != 0) continue;
    top.push_back({s.start_ns, s.end_ns});
    lo = std::min(lo, s.start_ns);
    hi = std::max(hi, s.end_ns);
  }
  if (top.empty()) return 0;
  return static_cast<double>(union_length(std::move(top), lo, hi)) * 1e-9;
}

bool write_chrome_json(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
                 "\"request\":%llu}}\n",
                 i ? "," : "", s.name.c_str(), s.thread, s.start_ns / 1e3,
                 (s.end_ns - s.start_ns) / 1e3, s.id, s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
