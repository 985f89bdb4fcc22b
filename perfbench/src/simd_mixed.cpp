// Workload `simd_mixed`: an in-process simd::Server on a unix socket with 2
// workers, and 2 simd::Client connections replaying a stream generated from
// the seed in a closed loop (the daemon's callers wait for each answer).
// The stream mixes WarpSync, BlockSync, GridSync and 2-GPU MGridSync points
// and about half its requests revisit an earlier point, so cache hits
// (microseconds, on the connection thread) run beside misses (milliseconds
// of pooled simulation on a worker).
//
// Every pass replays the same stream against a fresh server, so each pass
// sees the same hits and misses. Points come from a fixed universe that the
// reference file covers completely; the seed picks and orders them.
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "simd/client.hpp"
#include "simd/fingerprint.hpp"
#include "simd/protocol.hpp"
#include "simd/server.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using simd::Method;
using simd::PointQuery;

constexpr int kWorkers = 2;
constexpr int kConnections = 2;
/// Long enough that at least 10 round trips of every pass lie beyond p99;
/// 608 of them are first visits (see stream()), the rest revisits.
constexpr int kRequests = 1200;
constexpr int kNoiseClasses = 8;  // class 0 is noise-free
constexpr double kNoise = 0.02;

struct Point {
  PointQuery query;
  std::string label;  // reference key
};

std::vector<Point> universe() {
  std::vector<Point> pts;
  auto add = [&](PointQuery q, std::string label) {
    for (int k = 0; k < kNoiseClasses; ++k) {
      q.seed = static_cast<std::uint64_t>(k);
      q.noise = k == 0 ? 0.0 : kNoise;
      pts.push_back({q, "point/" + label + "/n" + std::to_string(k)});
    }
  };
  for (const char* arch : {"v100", "p100"}) {
    const std::string a = arch;
    for (const char* warp : {"tile", "coalesced", "shfl_tile", "shfl_coalesced"})
      for (int group : {8, 16, 32})
        for (int repeats : {16, 32, 64}) {
          PointQuery q;
          q.arch = arch;
          q.method = Method::WarpSync;
          q.warp = warp;
          q.group = group;
          q.repeats = repeats;
          add(q, a + "/warp_sync/" + warp + "/g" + std::to_string(group) + "/r" +
                     std::to_string(repeats));
        }
    auto geometry = [&](Method m, const char* name, int gpus,
                        std::vector<std::pair<int, int>> shapes) {
      for (auto [bpsm, threads] : shapes)
        for (int repeats : {4, 8}) {
          PointQuery q;
          q.arch = arch;
          q.method = m;
          q.gpus = gpus;
          q.blocks_per_sm = bpsm;
          q.threads = threads;
          q.repeats = repeats;
          add(q, a + "/" + name + "/b" + std::to_string(bpsm) + "t" +
                     std::to_string(threads) + "/r" + std::to_string(repeats));
        }
    };
    geometry(Method::BlockSync, "block_sync", 1,
             {{1, 32}, {1, 64}, {1, 128}, {1, 256}, {2, 64}, {2, 128}, {2, 256}, {4, 64}});
    geometry(Method::GridSync, "grid_sync", 1,
             {{1, 32}, {1, 64}, {1, 128}, {2, 32}, {2, 64}, {4, 32}, {4, 64}, {8, 32}});
    geometry(Method::MGridSync, "mgrid_sync_2gpu", 2, {{1, 32}, {1, 64}, {2, 32}, {2, 64}});
  }
  return pts;
}

/// The seed's request sequence as indices into `universe` (which lists the
/// noise classes of each shape consecutively). Every stream visits each
/// shape under kClassesPerShape seeded noise classes, so all seeds carry the
/// same simulation work: the seed moves which points, their order and which
/// requests revisit an earlier point, not how much there is to simulate.
std::vector<std::size_t> stream(std::uint64_t seed, std::size_t universe_size) {
  constexpr int kClassesPerShape = 4;
  const std::size_t shapes = universe_size / kNoiseClasses;
  const std::size_t unique = shapes * kClassesPerShape;
  if (unique > static_cast<std::size_t>(kRequests))
    throw std::logic_error("simd_mixed: stream too short for its universe");
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 1);
  std::vector<std::size_t> first;
  std::vector<int> classes(kNoiseClasses);
  for (std::size_t s = 0; s < shapes; ++s) {
    for (int k = 0; k < kNoiseClasses; ++k) classes[static_cast<std::size_t>(k)] = k;
    std::shuffle(classes.begin(), classes.end(), rng);
    for (int k = 0; k < kClassesPerShape; ++k)
      first.push_back(s * kNoiseClasses + static_cast<std::size_t>(classes[static_cast<std::size_t>(k)]));
  }
  std::shuffle(first.begin(), first.end(), rng);
  // Which requests are revisits: a seeded arrangement with a first visit
  // up front, so every revisit has an earlier point to return to.
  std::vector<bool> revisit(static_cast<std::size_t>(kRequests), false);
  std::fill(revisit.begin() + static_cast<std::ptrdiff_t>(unique), revisit.end(), true);
  std::shuffle(revisit.begin() + 1, revisit.end(), rng);
  std::vector<std::size_t> out;
  std::size_t next = 0;
  for (bool again : revisit) {
    if (again)
      out.push_back(out[std::uniform_int_distribution<std::size_t>(0, out.size() - 1)(rng)]);
    else
      out.push_back(first[next++]);
  }
  return out;
}

std::vector<std::string> request_lines(const std::vector<Point>& pts,
                                       const std::vector<std::size_t>& idx) {
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < idx.size(); ++i)
    lines.push_back(simd::encode_point_request(std::to_string(i + 1), pts[idx[i]].query));
  return lines;
}

/// What one request came back with.
struct Reply {
  double rtt_us = 0;
  bool ok = false;
  bool cached = false;
  double queue_wait_us = 0;
  double exec_wall_us = 0;
  std::string fingerprint;
  std::string result;
};

double scalar(const std::string& line, const char* field) {
  const std::string tok = simd::extract_scalar_field(line, field);
  return tok.empty() ? 0.0 : std::stod(tok);
}

/// Closed-loop replay: request i rides connection i % kConnections, and
/// each connection sends its next request only after the previous answer.
/// Returns the host time from the first send to the last answer.
double replay(const std::string& socket_path, const std::vector<std::string>& lines,
              std::vector<Reply>* replies) {
  replies->assign(lines.size(), Reply());
  std::vector<std::unique_ptr<simd::Client>> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.push_back(std::make_unique<simd::Client>());
    std::string err;
    if (!clients.back()->connect_to(socket_path, &err))
      throw std::runtime_error("simd_mixed: " + err);
  }
  std::mutex mu;
  std::condition_variable cv;
  bool go = false;
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return go; });
      }
      simd::Client& client = *clients[static_cast<std::size_t>(c)];
      for (std::size_t i = static_cast<std::size_t>(c); i < lines.size(); i += kConnections) {
        Reply& r = (*replies)[i];
        std::string resp, err;
        const auto t0 = Clock::now();
        bool sent;
        {
          trace::Scope span("simd.request", i + 1);
          sent = client.request(lines[i], &resp, &err);
        }
        r.rtt_us = seconds_between(t0, Clock::now()) * 1e6;
        if (!sent) {
          std::fprintf(stderr, "perfbench: simd request %zu failed: %s\n", i + 1,
                       err.c_str());
          break;
        }
        r.ok = simd::extract_scalar_field(resp, "ok") == "true";
        r.cached = simd::extract_scalar_field(resp, "cached") == "true";
        r.queue_wait_us = scalar(resp, "queue_wait_us");
        r.exec_wall_us = scalar(resp, "exec_wall_us");
        r.fingerprint = simd::extract_scalar_field(resp, "fingerprint");
        r.result = simd::extract_object_field(resp, "result");
      }
    });
  }
  const auto t0 = Clock::now();
  {
    std::lock_guard<std::mutex> lk(mu);
    go = true;
  }
  cv.notify_all();
  for (auto& t : threads) t.join();
  return seconds_between(t0, Clock::now());
}

class SimdMixed : public Workload {
 public:
  SimdMixed(std::uint64_t seed, std::string socket_dir)
      : seed_(seed), socket_dir_(std::move(socket_dir)) {}

  int busy_threads() const override { return kWorkers + kConnections; }

  void prep() override {
    points_ = universe();
    const auto idx = stream(seed_, points_.size());
    lines_ = request_lines(points_, idx);
    labels_.clear();
    fingerprints_.clear();
    for (std::size_t i : idx) {
      labels_.push_back(points_[i].label);
      fingerprints_.push_back(simd::fingerprint_hex(simd::fingerprint(points_[i].query)));
    }
    // A disjoint seed for the warm-up, so it never pre-fills what is measured.
    warm_lines_ = request_lines(points_, stream(~seed_, points_.size()));
    bound_ = start_server();
  }

  void unprep() override { bound_.reset(); }

  Pass run_pass() override { return replay_pass(lines_, &labels_, &fingerprints_); }

  Pass warmup() override { return replay_pass(warm_lines_, nullptr, nullptr); }

  void layer_metrics(int passes, LayerMetrics* out) override {
    (void)passes;
    auto& m = *out;
    const double requests = static_cast<double>(stats_.requests);
    const double executed = static_cast<double>(stats_.executed);
    m["simd.requests"] = requests / std::max(1, traced_passes_);
    m["simd.hit_ratio"] = requests > 0 ? static_cast<double>(stats_.hits) / requests : 0;
    m["simd.coalesced"] = static_cast<double>(stats_.coalesced) / std::max(1, traced_passes_);
    m["simd.rejected"] = static_cast<double>(stats_.rejected) / std::max(1, traced_passes_);
    m["simd.machines_built_per_miss"] = executed > 0 ? built_ / executed : 0;
    m["vgpu.pool_acquires"] = executed / std::max(1, traced_passes_);
    m["vgpu.pool_warm_hit_ratio"] = executed > 0 ? 1.0 - built_ / executed : 0;
    m["simd.hit_rtt_p50_us"] = median(hit_rtt_);
    m["simd.miss_rtt_p50_us"] = median(miss_rtt_);
    m["simd.queue_wait_p99_us"] = percentile(queue_wait_, 0.99);
    m["simd.exec_wall_p50_us"] = median(exec_wall_);
  }

  std::vector<std::pair<std::string, std::string>> record() override {
    std::vector<std::pair<std::string, std::string>> out;
    for (const Point& p : universe())
      out.push_back({p.label, simd::serialize_result(simd::run_point(p.query))});
    return out;
  }

 private:
  std::unique_ptr<simd::Server> start_server() {
    simd::ServerOptions opts;
    opts.socket_path = socket_dir_ + "/simd-" + std::to_string(::getpid()) + ".sock";
    opts.workers = kWorkers;
    auto server = std::make_unique<simd::Server>(opts);
    server->start();
    return server;
  }

  /// Replays `lines` against a fresh server. With labels, each reply is an
  /// operation checked against the reference; without (the warm-up), only
  /// daemon errors count.
  Pass replay_pass(const std::vector<std::string>& lines,
                   const std::vector<std::string>* labels,
                   const std::vector<std::string>* fingerprints) {
    auto server = start_server();
    const std::uint64_t built0 = vgpu::machines_built();
    std::vector<Reply> replies;
    Pass pass;
    pass.wall_s = replay(server->options().socket_path, lines, &replies);
    const simd::ServerStats stats = server->stats();
    server->stop();
    const bool traced = trace::enabled();
    if (traced) {
      ++traced_passes_;
      stats_.requests += stats.requests;
      stats_.hits += stats.hits;
      stats_.executed += stats.executed;
      stats_.coalesced += stats.coalesced;
      stats_.rejected += stats.rejected;
      built_ += static_cast<double>(stats.machines_built - built0);
    }
    for (std::size_t i = 0; i < replies.size(); ++i) {
      const Reply& r = replies[i];
      Op op;
      op.name = r.cached ? "request (hit)" : "request (miss)";
      op.host_us = r.rtt_us;
      if (!r.ok) ++op.errors;
      if (labels) {
        op.values.push_back({(*labels)[i], r.result});
        if (r.fingerprint != "\"" + (*fingerprints)[i] + "\"") ++op.errors;
      }
      if (traced && r.ok) {
        (r.cached ? hit_rtt_ : miss_rtt_).push_back(r.rtt_us);
        if (!r.cached) {
          queue_wait_.push_back(r.queue_wait_us);
          exec_wall_.push_back(r.exec_wall_us);
        }
      }
      pass.ops.push_back(std::move(op));
    }
    return pass;
  }

  std::uint64_t seed_;
  std::string socket_dir_;
  std::unique_ptr<simd::Server> bound_;  // prep's daemon, until unprep()
  std::vector<Point> points_;
  std::vector<std::string> lines_, warm_lines_;
  std::vector<std::string> labels_, fingerprints_;  // per request of lines_
  // Traced-pass accumulators.
  int traced_passes_ = 0;
  simd::ServerStats stats_;
  double built_ = 0;
  std::vector<double> hit_rtt_, miss_rtt_, queue_wait_, exec_wall_;
};

}  // namespace

std::unique_ptr<Workload> make_simd_mixed(std::uint64_t seed, const std::string& socket_dir) {
  return std::make_unique<SimdMixed>(seed, socket_dir);
}

std::string simd_stream_text(std::uint64_t seed) {
  const auto pts = universe();
  std::string text;
  for (const std::string& line : request_lines(pts, stream(seed, pts.size())))
    text += line + "\n";
  return text;
}

void simd_codec_probe(std::uint64_t seed, double* decode_us, double* fingerprint_us) {
  const auto pts = universe();
  const auto lines = request_lines(pts, stream(seed, pts.size()));
  std::vector<double> dec, fp;
  volatile std::uint64_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<simd::Request> reqs(lines.size());
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < lines.size(); ++i) {
      std::string err;
      simd::decode_request(lines[i], &reqs[i], &err);
    }
    auto t1 = Clock::now();
    for (const simd::Request& r : reqs) sink = sink + simd::fingerprint(r.query);
    auto t2 = Clock::now();
    dec.push_back(seconds_between(t0, t1) * 1e6 / lines.size());
    fp.push_back(seconds_between(t1, t2) * 1e6 / lines.size());
  }
  *decode_us = median(dec);
  *fingerprint_us = median(fp);
}

}  // namespace perfbench
