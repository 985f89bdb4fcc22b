// perfbench: runs one workload and prints its metrics.
//
//   perfbench --workload repro|sharded_8gpu|simd_mixed --seed N --seconds S
//             --trace 0|1 [--ref-dir DIR] [--work-dir DIR] [--commit ID]
//   perfbench --workload W --record [--ref-dir DIR]   rewrite W's reference
//   perfbench --stream --seed N                       print the simd stream
//
// A run: set-up (preparation plus a warm-up pass, up to three times), then
// whole passes of the workload's fixed work for about --seconds. With
// --trace 1 an untraced section runs first, then a traced section of the
// same length, then the layer probes. Every pass's simulated values are
// compared with the reference outside the timed section. The last line of
// stdout is the result JSON; the lines before it are for people.
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string ref_dir = "perfbench/ref";
  std::string work_dir = ".bench_build";
  std::string commit = "unknown";
  bool record = false;
  bool stream = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload repro|sharded_8gpu|simd_mixed "
               "--seed N --seconds S --trace 0|1 [--ref-dir DIR] [--work-dir DIR] "
               "[--commit ID] [--record] [--stream]\n",
               why.c_str());
  std::exit(2);
}

bool parse_number(const char* s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s, &end);
  return end != s && *end == '\0' && std::isfinite(*out);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record") {
      a.record = true;
      continue;
    }
    if (flag == "--stream") {
      a.stream = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* v = argv[++i];
    double num = 0;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      if (!parse_number(v, &num) || num < 0 || num != std::floor(num)) usage("bad --seed");
      a.seed = static_cast<std::uint64_t>(num);
    } else if (flag == "--seconds") {
      if (!parse_number(v, &num) || num <= 0 || num > 600) usage("bad --seconds");
      a.seconds = num;
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) usage("--trace takes 0 or 1");
      a.trace = v[0] == '1';
    } else if (flag == "--ref-dir") {
      a.ref_dir = v;
    } else if (flag == "--work-dir") {
      a.work_dir = v;
    } else if (flag == "--commit") {
      a.commit = v;
    } else {
      usage("unknown argument " + flag);
    }
  }
  return a;
}

/// The library reads these at machine construction; the benchmark measures
/// the defaults, whatever the caller's environment holds.
void clear_library_environment() {
  for (const char* var :
       {"VGPU_EXEC", "VGPU_SHARD_JOBS", "VGPU_SM_CLUSTERS", "VGPU_QUEUE", "VGPU_WINDOW_WIDEN",
        "VGPU_LOOKAHEAD_MATRIX", "VGPU_MAIL_RING", "SYNCBENCH_JOBS", "SYNCBENCH_BATCH",
        "SIMD_CACHE_MAX", "SIMD_QUEUE_LIMIT", "SIMD_WORKERS"})
    unsetenv(var);
}

struct Checked {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

void check(Oracle& oracle, const std::vector<Op>& ops, Checked* c) {
  for (const Op& op : ops) {
    c->attempted += op.points;
    c->failed += oracle.failed_points(op);
  }
}

/// Whole passes until about `seconds` have gone: a pass starts only when
/// the average pass so far still fits. At least one pass.
std::vector<Pass> run_section(Workload& w, double seconds, Oracle& oracle, Checked* c) {
  std::vector<Pass> passes;
  const auto t0 = Clock::now();
  for (;;) {
    passes.push_back(w.run_pass());
    check(oracle, passes.back().ops, c);
    const double elapsed = seconds_between(t0, Clock::now());
    if (elapsed + elapsed / static_cast<double>(passes.size()) > seconds) break;
  }
  return passes;
}

struct Metric {
  const char* name;
  const char* unit;
};

const Metric kEndToEnd[] = {
    {"setup_s", "s"},           {"wall_s", "s"},           {"points_per_s", "1/s"},
    {"latency_p50_us", "us"},   {"latency_p99_us", "us"},  {"peak_rss_mb", "MB"},
};

const Metric kPerLayer[] = {
    {"sweep.worker_idle_frac", "ratio"},
    {"sweep.points", "count"},
    {"vgpu.host_ns_per_warp_sync", "ns"},
    {"vgpu.host_ns_per_block_sync", "ns"},
    {"vgpu.host_ns_per_grid_sync", "ns"},
    {"vgpu.host_ns_per_mgrid_sync", "ns"},
    {"vgpu.system_build_us", "us"},
    {"vgpu.machines_built", "count"},
    {"vgpu.pool_warm_hit_ratio", "ratio"},
    {"vgpu.pool_acquires", "count"},
    {"vgpu.point_rss_mb", "MB"},
    {"vgpu.sharded_over_serial.reduce_multi", "ratio"},
    {"vgpu.sharded_over_serial.allreduce", "ratio"},
    {"vgpu.sharded_over_serial.sgroup", "ratio"},
    {"scuda.run_s", "s"},
    {"scuda.fill_s", "s"},
    {"reduction.single_s.implicit", "s"},
    {"reduction.single_s.grid_sync", "s"},
    {"reduction.single_s.cub_like", "s"},
    {"reduction.single_s.cuda_sample", "s"},
    {"reduction.multi_s.mgrid_sync", "s"},
    {"reduction.multi_s.cpu_barrier", "s"},
    {"allreduce.ring_s", "s"},
    {"allreduce.tree_s", "s"},
    {"allreduce.host_staged_s", "s"},
    {"simd.decode_us", "us"},
    {"simd.fingerprint_us", "us"},
    {"simd.hit_rtt_p50_us", "us"},
    {"simd.miss_rtt_p50_us", "us"},
    {"simd.queue_wait_p99_us", "us"},
    {"simd.exec_wall_p50_us", "us"},
    {"simd.hit_ratio", "ratio"},
    {"simd.requests", "count"},
    {"simd.coalesced", "count"},
    {"simd.rejected", "count"},
    {"simd.machines_built_per_miss", "ratio"},
    {"sweep.self_s", "s"},
    {"vgpu.self_s", "s"},
    {"scuda.self_s", "s"},
    {"syncbench.self_s", "s"},
    {"reduction.self_s", "s"},
    {"allreduce.self_s", "s"},
    {"simd.self_s", "s"},
    {"trace_overhead_frac", "ratio"},
    {"trace.outside_frac", "ratio"},
    {"trace.spans", "count"},
};

/// Per-pass layer numbers from the traced section's spans.
void span_metrics(const std::vector<trace::Span>& spans, const std::vector<Pass>& traced,
                  LayerMetrics* m) {
  const double n = static_cast<double>(std::max<std::size_t>(1, traced.size()));
  for (const auto& [name, self_s] : trace::self_seconds(spans)) {
    const std::string layer = name.substr(0, name.find('.'));
    (*m)[layer + ".self_s"] += self_s / n;
    // "reduction.single.implicit" -> "reduction.single_s.implicit";
    // "scuda.run" -> "scuda.run_s".
    const std::size_t dot2 = name.find('.', layer.size() + 1);
    const std::string metric = dot2 == std::string::npos
                                   ? name + "_s"
                                   : name.substr(0, dot2) + "_s" + name.substr(dot2);
    (*m)[metric] += self_s / n;
  }
  double wall = 0;
  for (const Pass& p : traced) wall += p.wall_s;
  (*m)["trace.outside_frac"] =
      wall > 0 ? std::max(0.0, 1.0 - trace::top_level_cover_s(spans) / wall) : 0;
  (*m)["trace.spans"] = static_cast<double>(spans.size()) / n;
}

void print_json(const Checked& c, const Metric* metrics, std::size_t count,
                const LayerMetrics& values) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              c.failed == 0 && c.attempted > 0 ? "true" : "false",
              static_cast<long long>(c.attempted), static_cast<long long>(c.failed));
  for (std::size_t i = 0; i < count; ++i) {
    auto it = values.find(metrics[i].name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name, v, metrics[i].unit);
  }
  std::printf("}}\n");
}

void print_rows(const char* title, const Metric* metrics, std::size_t count,
                const LayerMetrics& values) {
  std::printf("%s\n", title);
  for (std::size_t i = 0; i < count; ++i) {
    auto it = values.find(metrics[i].name);
    std::printf("  %-40s %14.6g %s\n", metrics[i].name,
                it == values.end() ? 0.0 : it->second, metrics[i].unit);
  }
}

int run(const Args& a) {
  std::unique_ptr<Workload> w;
  if (a.workload == "repro")
    w = make_repro(a.seed);
  else if (a.workload == "sharded_8gpu")
    w = make_sharded_8gpu(a.seed);
  else if (a.workload == "simd_mixed")
    w = make_simd_mixed(a.seed, a.work_dir);
  else
    usage("unknown workload '" + a.workload + "'");
  const std::string ref_path = a.ref_dir + "/" + a.workload + ".ref";

  if (a.record) {
    std::string err;
    if (!Oracle::save(ref_path, w->record(), &err)) {
      std::fprintf(stderr, "perfbench: %s\n", err.c_str());
      return 1;
    }
    std::fprintf(stderr, "perfbench: wrote %s\n", ref_path.c_str());
    return 0;
  }

  const int cpus = static_cast<int>(std::thread::hardware_concurrency());
  if (w->busy_threads() > cpus) {
    std::fprintf(stderr,
                 "perfbench: %s keeps %d threads busy but this host has %d CPUs; "
                 "refusing to run\n",
                 a.workload.c_str(), w->busy_threads(), cpus);
    return 3;
  }
  Oracle oracle;
  std::string err;
  if (!oracle.load(ref_path, &err)) {
    std::fprintf(stderr, "perfbench: %s\n", err.c_str());
    return 2;
  }
  mkdir(a.work_dir.c_str(), 0755);

  LayerMetrics layer;
  // First, while nothing else has raised the process's peak RSS.
  if (a.trace) layer["vgpu.point_rss_mb"] = point_rss_growth_mb(w->point_exec());

  // Set-up (preparation plus one warm-up pass) up to three times while it
  // costs under a fifth of the timed section; setup_s is the median.
  Checked checked;
  std::vector<double> setups;
  const auto setup0 = Clock::now();
  do {
    const auto t0 = Clock::now();
    w->prep();
    const double prep_s = seconds_between(t0, Clock::now());
    w->unprep();
    const Pass warm = w->warmup();
    check(oracle, warm.ops, &checked);
    setups.push_back(prep_s + warm.wall_s);
  } while (setups.size() < 3 && seconds_between(setup0, Clock::now()) < 0.2 * a.seconds);

  const std::vector<Pass> passes = run_section(*w, a.seconds, oracle, &checked);
  // Latency percentiles are taken within each pass, over the pass's fixed
  // set of operations, and reported as their median over the passes: one
  // slow stretch of the host then moves one pass's figure, not the result.
  std::vector<double> walls, rates, p50s, p99s;
  std::size_t samples = 0;
  for (const Pass& p : passes) {
    std::int64_t points = 0;
    std::vector<double> latencies;
    for (const Op& op : p.ops) {
      points += op.points;
      // Each point of an operation is one sample of the operation's host
      // time per point (a daemon request is one point).
      if (!w->pass_is_operation())
        for (std::int64_t k = 0; k < op.points; ++k)
          latencies.push_back(op.host_us / static_cast<double>(op.points));
    }
    if (w->pass_is_operation()) latencies.push_back(p.wall_s * 1e6);
    samples += latencies.size();
    p50s.push_back(percentile(latencies, 0.50));
    p99s.push_back(percentile(latencies, 0.99));
    walls.push_back(p.wall_s);
    rates.push_back(static_cast<double>(points) / p.wall_s);
  }
  LayerMetrics e2e;
  e2e["setup_s"] = median(setups);
  e2e["wall_s"] = median(walls);
  e2e["points_per_s"] = median(rates);
  e2e["latency_p50_us"] = median(p50s);
  e2e["latency_p99_us"] = median(p99s);
  e2e["peak_rss_mb"] = peak_rss_mb();

  if (a.trace) {
    trace::clear();
    const std::uint64_t built0 = vgpu::machines_built();
    trace::set_enabled(true);
    const std::vector<Pass> traced = run_section(*w, a.seconds, oracle, &checked);
    trace::set_enabled(false);
    const auto spans = trace::spans();
    const double n = static_cast<double>(traced.size());
    layer["vgpu.machines_built"] = static_cast<double>(vgpu::machines_built() - built0) / n;
    span_metrics(spans, traced, &layer);
    std::vector<double> traced_walls;
    for (const Pass& p : traced) traced_walls.push_back(p.wall_s);
    layer["trace_overhead_frac"] = median(traced_walls) / e2e["wall_s"] - 1.0;
    w->layer_metrics(static_cast<int>(traced.size()), &layer);
    check(oracle, w->oracle_ops(), &checked);

    const std::vector<SyncProbe> probes = sync_probes();
    std::printf("Section IX: simulator host cost per simulated sync, in the paper's order\n");
    std::printf("  %-11s %-28s %14s %16s\n", "level", "probe geometry", "simulated ns",
                "host ns / sync");
    for (const SyncProbe& p : probes) {
      std::printf("  %-11s %-28s %14.1f %16.1f\n", p.level.c_str(), p.geometry.c_str(),
                  p.simulated_latency_ns, p.host_ns_per_sync);
      const std::string key = p.level == "multi-grid" ? "mgrid" : p.level;
      layer["vgpu.host_ns_per_" + key + "_sync"] = p.host_ns_per_sync;
    }
    layer["vgpu.system_build_us"] = system_build_p50_us();
    simd_codec_probe(a.seed, &layer["simd.decode_us"], &layer["simd.fingerprint_us"]);

    const std::string trace_path =
        a.work_dir + "/trace-" + a.workload + "-seed" + std::to_string(a.seed) + ".json";
    if (!trace::write_chrome_json(spans, trace_path))
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
    std::printf("spans: %zu, written to %s\n", spans.size(), trace_path.c_str());
  }

  std::printf("workload %s, seed %llu: %zu set-ups, %zu timed passes, %zu latency samples\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed), setups.size(),
              passes.size(), samples);
  std::printf("pass wall_s:");
  for (double s : walls) std::printf(" %.4f", s);
  std::printf("\nslowest operations of the last pass (host s, count):\n");
  std::map<std::string, std::pair<double, int>> by_name;
  for (const Op& op : passes.back().ops) {
    auto& [s, count] = by_name[op.name];
    s += op.host_us * 1e-6;
    ++count;
  }
  std::vector<std::pair<double, std::string>> slowest;
  for (const auto& [name, sc] : by_name)
    slowest.push_back({sc.first, name + " (" + std::to_string(sc.second) + ")"});
  std::sort(slowest.rbegin(), slowest.rend());
  for (std::size_t i = 0; i < std::min<std::size_t>(8, slowest.size()); ++i)
    std::printf("  %10.4f  %s\n", slowest[i].first, slowest[i].second.c_str());
  print_rows("end to end (tracing off)", kEndToEnd, std::size(kEndToEnd), e2e);
  std::printf("  %-40s %14.6g ratio (%lld of %lld points failed)\n", "failed_frac",
              checked.attempted ? static_cast<double>(checked.failed) / checked.attempted : 0.0,
              static_cast<long long>(checked.failed), static_cast<long long>(checked.attempted));
  if (a.trace) print_rows("per layer (traced run)", kPerLayer, std::size(kPerLayer), layer);
  std::printf("stamp {\"num_cpus\": %d, \"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"commit\": \"%s\"}\n",
              cpus, PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, a.commit.c_str());
  if (a.trace)
    print_json(checked, kPerLayer, std::size(kPerLayer), layer);
  else
    print_json(checked, kEndToEnd, std::size(kEndToEnd), e2e);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args a = parse(argc, argv);
  clear_library_environment();
  if (a.stream) {
    std::fputs(simd_stream_text(a.seed).c_str(), stdout);
    return 0;
  }
  if (a.workload.empty()) usage("--workload is required");
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
