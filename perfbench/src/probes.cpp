// Layer probes of the traced run: small measurements whose simulated work
// is known exactly, so host time divides by a count rather than a guess.
#include <algorithm>
#include <functional>

#include "bench.hpp"
#include "simd/point.hpp"
#include "scuda/system.hpp"
#include "syncbench/kernels.hpp"
#include "syncbench/methods.hpp"

namespace perfbench {

namespace {

using scuda::HostThread;
using scuda::LaunchParams;
using scuda::System;
using vgpu::MachineConfig;

MachineConfig serial(MachineConfig cfg) {
  cfg.exec = vgpu::ExecMode::Serial;
  return cfg;
}

/// Host seconds inside System::run for `body`.
double timed_run(System& sys, const std::function<void(HostThread&)>& body) {
  const auto t0 = Clock::now();
  sys.run(body);
  return seconds_between(t0, Clock::now());
}

double cycles_to_ns(double cycles, const vgpu::ArchSpec& arch) {
  return cycles * 1e3 / arch.core_mhz;
}

}  // namespace

std::vector<SyncProbe> sync_probes() {
  const vgpu::ArchSpec arch = vgpu::v100();
  const int sms = arch.num_sms;
  constexpr int kThreads = 256;  // 8 warps per block, one block per SM
  std::vector<SyncProbe> rows;

  {  // warp: every warp runs R tile syncs.
    constexpr int R = 256;
    System sys(serial(MachineConfig::single(arch)));
    auto prog = syncbench::warp_sync_throughput_kernel(syncbench::WarpSyncKind::Tile, 32, R);
    const double host_s = timed_run(sys, [&](HostThread& h) {
      sys.launch(h, 0, LaunchParams{prog, sms, kThreads, 0, {}});
      sys.device_synchronize(h, 0);
    });
    SyncProbe p;
    p.level = "warp";
    p.syncs = static_cast<double>(R) * sms * (kThreads / 32);
    p.host_ns_per_sync = host_s * 1e9 / p.syncs;
    System wong(serial(MachineConfig::single(arch)));
    p.simulated_latency_ns = cycles_to_ns(
        syncbench::wong_cycles_per_op(
            wong, syncbench::warp_sync_latency_kernel(syncbench::WarpSyncKind::Tile, 32, 64),
            64),
        arch);
    p.geometry = std::to_string(sms) + "x" + std::to_string(kThreads) + ", r=" + std::to_string(R);
    rows.push_back(p);
  }
  {  // block: every block runs R barriers, bracketed by clocks.
    constexpr int R = 256;
    System sys(serial(MachineConfig::single(arch)));
    const vgpu::DevPtr out = sys.malloc(0, static_cast<std::int64_t>(sms) * 2 * 8);
    const double host_s = timed_run(sys, [&](HostThread& h) {
      sys.launch(h, 0, LaunchParams{syncbench::block_sync_clocked_kernel(R), sms, kThreads, 0,
                                    {out.raw}});
      sys.device_synchronize(h, 0);
    });
    const auto clocks = sys.read_i64(out, static_cast<std::int64_t>(sms) * 2);
    std::int64_t lo = clocks[0], hi = clocks[1];
    for (int b = 0; b < sms; ++b) {
      lo = std::min(lo, clocks[static_cast<std::size_t>(2 * b)]);
      hi = std::max(hi, clocks[static_cast<std::size_t>(2 * b + 1)]);
    }
    SyncProbe p;
    p.level = "block";
    p.syncs = static_cast<double>(R) * sms;
    p.host_ns_per_sync = host_s * 1e9 / p.syncs;
    p.simulated_latency_ns = cycles_to_ns(static_cast<double>(hi - lo) / R, arch);
    p.geometry = std::to_string(sms) + "x" + std::to_string(kThreads) + ", r=" + std::to_string(R);
    rows.push_back(p);
  }
  {  // grid: one cooperative grid runs R grid syncs.
    constexpr int R = 64;
    System sys(serial(MachineConfig::single(arch)));
    auto prog = syncbench::grid_sync_kernel(R);
    const double host_s = timed_run(sys, [&](HostThread& h) {
      sys.launch_cooperative(h, 0, LaunchParams{prog, sms, kThreads, 0, {}});
      sys.device_synchronize(h, 0);
    });
    SyncProbe p;
    p.level = "grid";
    p.syncs = R;
    p.host_ns_per_sync = host_s * 1e9 / p.syncs;
    System est(serial(MachineConfig::single(arch)));
    p.simulated_latency_ns =
        syncbench::repeat_scaling_us(est, syncbench::LaunchKind::Cooperative, 1,
                                     [](int r) { return syncbench::grid_sync_kernel(r); },
                                     {sms, kThreads, 0}, 2, 10)
            .value *
        1e3;
    p.geometry = std::to_string(sms) + "x" + std::to_string(kThreads) + ", r=" + std::to_string(R);
    rows.push_back(p);
  }
  {  // multi-grid: 8 DGX-1 GPUs, one warp per SM, R multi-grid syncs.
    constexpr int R = 32, kGpus = 8, kMgridThreads = 32;
    System sys(serial(MachineConfig::dgx1_v100(kGpus)));
    auto prog = syncbench::mgrid_sync_kernel(R);
    const double host_s = timed_run(sys, [&](HostThread& h) {
      std::vector<int> devs;
      std::vector<LaunchParams> per_dev;
      for (int d = 0; d < kGpus; ++d) {
        devs.push_back(d);
        per_dev.push_back(LaunchParams{prog, sms, kMgridThreads, 0, {}});
      }
      sys.launch_cooperative_multi(h, devs, per_dev);
      for (int d = 0; d < kGpus; ++d) sys.device_synchronize(h, d);
    });
    SyncProbe p;
    p.level = "multi-grid";
    p.syncs = R;
    p.host_ns_per_sync = host_s * 1e9 / p.syncs;
    System est(serial(MachineConfig::dgx1_v100(kGpus)));
    p.simulated_latency_ns =
        syncbench::repeat_scaling_us(est, syncbench::LaunchKind::CooperativeMulti, kGpus,
                                     [](int r) { return syncbench::mgrid_sync_kernel(r); },
                                     {sms, kMgridThreads, 0}, 2, 10)
            .value *
        1e3;
    p.geometry = std::to_string(kGpus) + " GPUs x " + std::to_string(sms) + "x" +
                 std::to_string(kMgridThreads) + ", r=" + std::to_string(R);
    rows.push_back(p);
  }
  return rows;
}

double system_build_p50_us() {
  std::vector<MachineConfig> shapes;
  for (const char* arch : {"v100", "p100"}) {
    simd::PointQuery q;
    q.arch = arch;
    q.method = simd::Method::WarpSync;
    shapes.push_back(simd::machine_config_for(q));
    q.method = simd::Method::MGridSync;
    q.gpus = 2;
    shapes.push_back(simd::machine_config_for(q));
  }
  std::vector<double> us;
  for (int rep = 0; rep < 16; ++rep)
    for (const MachineConfig& cfg : shapes) {
      const auto t0 = Clock::now();
      System sys(cfg);
      us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    }
  return median(std::move(us));
}

double point_rss_growth_mb(vgpu::ExecMode exec) {
  const double before = peak_rss_mb();
  Op op;
  fig16_cell(8, 1 << 20, exec, exec == vgpu::ExecMode::Sharded ? 4 : 0, "rss_probe", &op);
  return peak_rss_mb() - before;
}

}  // namespace perfbench
