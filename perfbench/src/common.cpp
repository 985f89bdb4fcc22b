// The reference oracle and the helpers every workload shares.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bench.hpp"
#include "reduction/reduce.hpp"
#include "scuda/system.hpp"
#include "trace.hpp"

namespace perfbench {

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

bool Oracle::load(const std::string& path, std::string* err) {
  std::ifstream in(path);
  if (!in) {
    *err = "cannot read reference file " + path;
    return false;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    const std::size_t tab = line.find('\t');
    if (tab == std::string::npos || tab == 0) {
      *err = path + ":" + std::to_string(lineno) + ": expected <key>\\t<value>";
      return false;
    }
    ref_[line.substr(0, tab)] = line.substr(tab + 1);
  }
  if (ref_.empty()) {
    *err = "reference file " + path + " is empty";
    return false;
  }
  return true;
}

bool Oracle::save(const std::string& path,
                  std::vector<std::pair<std::string, std::string>> values,
                  std::string* err) {
  std::sort(values.begin(), values.end());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    *err = "cannot write " + path;
    return false;
  }
  for (const auto& [k, v] : values) std::fprintf(f, "%s\t%s\n", k.c_str(), v.c_str());
  if (std::fclose(f) != 0) {
    *err = "cannot write " + path;
    return false;
  }
  return true;
}

std::int64_t Oracle::failed_points(const Op& op) {
  std::int64_t bad = op.errors;
  for (const auto& [key, value] : op.values) {
    auto it = ref_.find(key);
    if (it != ref_.end() && it->second == value) continue;
    ++bad;
    if (reported_ < 10) {
      ++reported_;
      std::fprintf(stderr, "perfbench: mismatch %s: got %s, reference %s\n",
                   key.c_str(), value.c_str(),
                   it == ref_.end() ? "(none)" : it->second.c_str());
    }
  }
  return std::min(bad, op.points);
}

void fig16_cell(int gpus, std::int64_t shard_bytes, vgpu::ExecMode exec,
                int shard_jobs, const std::string& key, Op* op) {
  using reduction::MultiGpuAlgo;
  vgpu::MachineConfig cfg = vgpu::MachineConfig::dgx1_v100(std::max(gpus, 2));
  cfg.exec = exec;
  cfg.shard_jobs = shard_jobs;
  const std::int64_t n_per = shard_bytes / 8;
  std::unique_ptr<scuda::System> sys;
  {
    trace::Scope span("vgpu.system_build");
    sys = std::make_unique<scuda::System>(cfg);
  }
  std::vector<vgpu::DevPtr> shards;
  for (int g = 0; g < gpus; ++g) {
    shards.push_back(sys->malloc(g, shard_bytes));
    trace::Scope span("scuda.fill");
    reduction::fill_pattern(*sys, shards.back(), n_per);
  }
  const double expected = reduction::expected_pattern_sum(n_per) * gpus;
  for (MultiGpuAlgo algo : {MultiGpuAlgo::MGridSync, MultiGpuAlgo::CpuBarrier}) {
    const std::string name = algo == MultiGpuAlgo::MGridSync ? "mgrid_sync" : "cpu_barrier";
    reduction::ReduceRun r;
    {
      trace::Scope span("reduction.multi." + name);
      r = reduction::reduce_multi(*sys, algo, shards, n_per);
    }
    // The fig16 program's own check.
    if (!(std::abs(r.value - expected) < 1e-6 * expected)) ++op->errors;
    op->values.push_back({key + "/" + name + "/micros", exact(r.micros)});
    op->values.push_back({key + "/" + name + "/value", exact(r.value)});
  }
  trace::Scope span("vgpu.system_teardown");
  sys.reset();
}

}  // namespace perfbench
