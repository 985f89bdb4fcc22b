// perfbench: the repository benchmark. Shared types of the main
// program (main.cpp), the three workloads and the traced run.
//
// A workload is a fixed amount of work (one "pass") run against the
// library's public entry points. Every pass returns its operations with the
// exact simulated values they produced; main.cpp compares those with the
// reference files under perfbench/ref outside the timed section.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "vgpu/machine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// "%.17g": the form every simulated double is stored and compared in.
std::string exact(double v);

/// Process CPU time (user + system), seconds.
double process_cpu_s();
/// Peak resident set of this process, MB.
double peak_rss_mb();

double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 1].
double percentile(std::vector<double> v, double p);

/// One checked unit of work: an entry-point call, a simulation point or a
/// daemon request.
struct Op {
  std::string name;         // what ran, for the printed breakdown
  double host_us = 0;       // host time of the operation (a latency sample)
  std::int64_t points = 1;  // simulation points (or requests) it completed
  /// Reference key -> exact value; each is compared with the reference file.
  std::vector<std::pair<std::string, std::string>> values;
  /// Failures the operation's own checks found (a wrong reduction sum, a
  /// daemon error or rejection).
  int errors = 0;
};

struct Pass {
  double wall_s = 0;  // host time of the fixed work, untimed checks excluded
  std::vector<Op> ops;
};

/// Per-layer numbers a workload reports from its traced passes.
using LayerMetrics = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Threads busy at once during a pass (point jobs x shard jobs, or daemon
  /// workers + client connections).
  virtual int busy_threads() const = 0;
  /// Repeatable set-up: build inputs and programs, generate the stream,
  /// start and bind the daemon. Timed for setup_s.
  virtual void prep() = 0;
  /// One pass of the workload's fixed work.
  virtual Pass run_pass() = 0;
  /// Undoes what prep() left running (the daemon), outside the set-up time.
  virtual void unprep() {}
  /// The untimed warm-up before timing: one pass, unless the workload must
  /// keep the warm-up away from what it measures.
  virtual Pass warmup() { return run_pass(); }
  /// Whether a latency sample is a whole pass rather than each point.
  virtual bool pass_is_operation() const { return false; }
  /// Executor of the workload's 8-GPU points (for the point-RSS probe).
  virtual vgpu::ExecMode point_exec() const { return vgpu::ExecMode::Serial; }
  /// Traced run only, after the traced passes: layer numbers the workload
  /// gathered (divided per pass where they are sums).
  virtual void layer_metrics(int traced_passes, LayerMetrics* out) {
    (void)traced_passes;
    (void)out;
  }
  /// Operations run outside the passes (the traced run's serial oracle)
  /// whose values must match the reference too.
  virtual std::vector<Op> oracle_ops() { return {}; }
  /// Every reference key this workload can produce, with its value (for
  /// --record; seed-dependent workloads cover every seed class).
  virtual std::vector<std::pair<std::string, std::string>> record() = 0;
};

std::unique_ptr<Workload> make_repro(std::uint64_t seed);
std::unique_ptr<Workload> make_sharded_8gpu(std::uint64_t seed);
std::unique_ptr<Workload> make_simd_mixed(std::uint64_t seed,
                                          const std::string& socket_dir);

/// Reference values of one workload, loaded from "<key>\t<value>" lines.
class Oracle {
 public:
  /// False (with *err) when the file is missing or malformed.
  bool load(const std::string& path, std::string* err);
  static bool save(const std::string& path,
                   std::vector<std::pair<std::string, std::string>> values,
                   std::string* err);
  /// Failed points of one operation: its own errors plus mismatched or
  /// unknown values, capped at its point count.
  std::int64_t failed_points(const Op& op);

 private:
  std::map<std::string, std::string> ref_;
  int reported_ = 0;  // mismatches already printed to stderr
};

// ---- layer probes of the traced run (probes.cpp) ---------------------------

/// One row of the Section IX table: host time per simulated sync of one
/// level beside that level's simulated latency.
struct SyncProbe {
  std::string level;  // "warp", "block", "grid", "multi-grid"
  std::string geometry;
  double syncs = 0;              // simulated syncs, from repeats x geometry
  double host_ns_per_sync = 0;   // host time inside System::run / syncs
  double simulated_latency_ns = 0;
};
std::vector<SyncProbe> sync_probes();

/// p50 host time of building a scuda::System for each machine shape the
/// simd_mixed stream simulates, microseconds.
double system_build_p50_us();

/// RSS growth across one fig16 8-GPU point (both algorithms) on `exec`, MB.
/// Must run before anything else in the process has raised the peak.
double point_rss_growth_mb(vgpu::ExecMode exec);

/// Host time of simd::decode_request and simd::fingerprint over the seed's
/// simd_mixed request lines, median microseconds per line (simd_mixed.cpp).
void simd_codec_probe(std::uint64_t seed, double* decode_us,
                      double* fingerprint_us);
/// The simd_mixed request lines for `seed`, joined (for the self-test).
std::string simd_stream_text(std::uint64_t seed);

// ---- shared helpers -----------------------------------------------------------

/// The fig16 cell: one DGX-1 System of `gpus` devices, `shard_bytes` of the
/// fill pattern per device, MGridSync then CpuBarrier reduce_multi. Appends
/// both runs' values under `key` and counts a wrong sum as an error.
void fig16_cell(int gpus, std::int64_t shard_bytes, vgpu::ExecMode exec,
                int shard_jobs, const std::string& key, Op* op);

}  // namespace perfbench
