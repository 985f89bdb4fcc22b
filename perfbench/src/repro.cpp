// Workload `repro`: every paper entry point the bench/ programs call, with
// the programs' grids and per-point structure, at reduced sizes. Serial
// executor, sweep point jobs = 4, batching on. The seed only permutes the
// order of the calls: the simulated results must not move with it.
#include <algorithm>
#include <cmath>
#include <functional>
#include <random>

#include "bench.hpp"
#include "reduction/reduce.hpp"
#include "reduction/warp_reduce.hpp"
#include "sweep/sweep.hpp"
#include "syncbench/suite.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using syncbench::WarpSyncKind;
using vgpu::ArchSpec;
using vgpu::MachineConfig;

constexpr std::int64_t kKB = 1 << 10;
constexpr std::int64_t kMB = 1 << 20;

// Reduced sizes; the bench programs' defaults are in the comments.
constexpr std::int64_t kFig15MaxBytes = 2 * kMB;    // 512 MB
constexpr std::int64_t kFig16ShardBytes = 1 * kMB;  // 128 MB per GPU
const std::vector<std::int64_t> kAllReduceBytes = {16 * kKB, 256 * kKB};  // 16 KB, 4 MB
constexpr int kAllReduceMaxGpus = 16;
// characterize_warp_sync fixes its throughput repeats at r1 = 512, r2 = 1536
// (16 s per pass on 4 CPUs); the reduced grid keeps its 25 points per arch
// and the method, at 1/16 of the repeats.
constexpr int kWarpR1 = 32, kWarpR2 = 96, kWarpLatencyReps = 64;

constexpr int kPointJobs = 4;
constexpr int kBatch = 2;

void put(Op& op, const std::string& key, double v) {
  op.values.push_back({key, exact(v)});
}

struct Call {
  std::string span;  // span around the whole call; empty when the body opens its own
  std::string what;  // its arguments, for the printed breakdown
  bool sweep = false;  // the call runs its grid on the sweep pool
  std::function<void(Op&)> body;
};

std::string heat_key(const syncbench::HeatMap& hm, std::size_t r, std::size_t c) {
  return "/b" + std::to_string(hm.blocks_per_sm[r]) + "t" +
         std::to_string(hm.threads_per_block[c]);
}

void put_heatmap(Op& op, const std::string& prefix, const syncbench::HeatMap& hm) {
  op.points = 0;
  for (std::size_t r = 0; r < hm.latency_us.size(); ++r)
    for (std::size_t c = 0; c < hm.latency_us[r].size(); ++c) {
      put(op, prefix + heat_key(hm, r, c), hm.latency_us[r][c]);
      ++op.points;
    }
}

/// The Table II grid of characterize_warp_sync (one Wong latency point plus
/// threads {256, 1024} x blocks/SM {1, 2} throughput points per row), built
/// from the same public kernels and methods at reduced repeats.
void warp_sync_grid(const ArchSpec& arch, Op& op) {
  struct Row {
    WarpSyncKind kind;
    int group;
    const char* label;
  };
  static const Row kRows[] = {{WarpSyncKind::Tile, 32, "tile"},
                              {WarpSyncKind::ShuffleTile, 32, "shfl_tile"},
                              {WarpSyncKind::Coalesced, 16, "coalesced16"},
                              {WarpSyncKind::Coalesced, 32, "coalesced32"},
                              {WarpSyncKind::ShuffleCoalesced, 32, "shfl_coalesced"}};
  struct Pt {
    const Row* row;
    int threads;
    int bpsm;  // 0: the latency point
  };
  std::vector<Pt> pts;
  for (const Row& r : kRows) {
    pts.push_back({&r, 0, 0});
    for (int threads : {256, 1024})
      for (int bpsm : {1, 2}) pts.push_back({&r, threads, bpsm});
  }
  trace::Scope span("sweep.map");
  const std::uint32_t parent = trace::current();
  const std::vector<double> vals = sweep::map(pts, [&](const Pt& p) -> double {
    if (p.threads * p.bpsm > arch.max_threads_per_sm) return 0;
    trace::Adopt adopt(parent);
    std::unique_ptr<scuda::System> sys;
    {
      trace::Scope build("vgpu.system_build");
      sys = std::make_unique<scuda::System>(MachineConfig::single(arch));
    }
    if (p.bpsm == 0) {
      trace::Scope s("syncbench.wong_cycles_per_op");
      return syncbench::wong_cycles_per_op(
          *sys,
          syncbench::warp_sync_latency_kernel(p.row->kind, p.row->group,
                                              kWarpLatencyReps),
          kWarpLatencyReps);
    }
    auto factory = [&](int r) {
      return syncbench::warp_sync_throughput_kernel(p.row->kind, p.row->group, r);
    };
    trace::Scope s("syncbench.repeat_scaling_us");
    return syncbench::repeat_scaling_us(*sys, syncbench::LaunchKind::Traditional, 1,
                                        factory,
                                        {p.bpsm * arch.num_sms, p.threads, 0},
                                        kWarpR1, kWarpR2)
        .value;
  });
  op.points = static_cast<std::int64_t>(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const Pt& p = pts[i];
    const std::string key = "warp_sync/" + arch.name + "/" + p.row->label +
                            (p.bpsm == 0 ? std::string("/latency")
                                         : "/t" + std::to_string(p.threads) + "b" +
                                               std::to_string(p.bpsm));
    put(op, key, vals[i]);
  }
}

/// The fig15 program: one System, the fill pattern, then the size ladder
/// (x4 from 128 KB) for all four single-GPU algorithms.
void fig15(const ArchSpec& arch, Op& op) {
  using reduction::SingleGpuAlgo;
  std::unique_ptr<scuda::System> sys;
  {
    trace::Scope span("vgpu.system_build");
    sys = std::make_unique<scuda::System>(MachineConfig::single(arch));
  }
  const vgpu::DevPtr src = sys->malloc(0, kFig15MaxBytes);
  {
    trace::Scope span("scuda.fill");
    reduction::fill_pattern(*sys, src, kFig15MaxBytes / 8);
  }
  op.points = 0;
  for (std::int64_t bytes = kMB / 8; bytes <= kFig15MaxBytes; bytes *= 4) {
    const std::int64_t n = bytes / 8;
    const double expected = reduction::expected_pattern_sum(n);
    for (SingleGpuAlgo algo : {SingleGpuAlgo::Implicit, SingleGpuAlgo::GridSync,
                               SingleGpuAlgo::CubLike, SingleGpuAlgo::SampleLike}) {
      std::string name = reduction::to_string(algo);
      std::transform(name.begin(), name.end(), name.begin(), [](char c) {
        return c == '-' || c == ' ' ? '_' : static_cast<char>(std::tolower(c));
      });
      reduction::ReduceRun r;
      {
        trace::Scope span("reduction.single." + name);
        r = reduction::reduce_single(*sys, algo, 0, src, n);
      }
      if (std::abs(r.value - expected) > 1e-6 * std::max(1.0, std::abs(expected)))
        ++op.errors;
      const std::string key = "fig15/" + arch.name + "/" + std::to_string(bytes) + "/" + name;
      put(op, key + "/micros", r.micros);
      put(op, key + "/value", r.value);
      ++op.points;
    }
  }
  trace::Scope span("vgpu.system_teardown");
  sys.reset();
}

class Repro : public Workload {
 public:
  explicit Repro(std::uint64_t seed) : seed_(seed) {}

  int busy_threads() const override { return kPointJobs; }
  // One pass regenerates every table and figure: that is the operation a
  // user waits for. Per call or per point, the median lands between calls
  // of very different cost and jumps with host noise.
  bool pass_is_operation() const override { return true; }

  void prep() override {
    sweep::set_default_jobs(kPointJobs);
    sweep::set_batch_points(kBatch);
    calls_ = make_calls();
    std::mt19937_64 rng(seed_);
    std::shuffle(calls_.begin(), calls_.end(), rng);
  }

  Pass run_pass() override {
    Pass pass;
    const bool traced = trace::enabled();
    const auto t0 = Clock::now();
    for (const Call& call : calls_) {
      Op op;
      op.name = call.span.empty() ? call.what : call.span + " " + call.what;
      const double cpu0 = traced ? process_cpu_s() : 0;
      const std::uint64_t built0 = vgpu::machines_built();
      const auto c0 = Clock::now();
      if (call.span.empty()) {
        call.body(op);
      } else {
        trace::Scope span(call.span);
        call.body(op);
      }
      const auto c1 = Clock::now();
      op.host_us = seconds_between(c0, c1) * 1e6;
      if (traced && call.sweep) {
        sweep_cpu_s_ += process_cpu_s() - cpu0;
        sweep_wall_s_ += seconds_between(c0, c1);
        sweep_points_ += op.points;
      }
      // The benchmark's own sweeps build exactly one System per point, so
      // their machine count against their point count is the pool's record.
      if (traced && call.span.empty() && call.sweep) {
        pool_acquires_ += op.points;
        pool_built_ += static_cast<double>(vgpu::machines_built() - built0);
      }
      pass.ops.push_back(std::move(op));
    }
    pass.wall_s = seconds_between(t0, Clock::now());
    return pass;
  }

  void layer_metrics(int passes, LayerMetrics* out) override {
    const double n = std::max(1, passes);
    auto& m = *out;
    m["sweep.points"] = sweep_points_ / n;
    m["sweep.worker_idle_frac"] =
        sweep_wall_s_ > 0 ? 1.0 - sweep_cpu_s_ / (kPointJobs * sweep_wall_s_) : 0;
    m["vgpu.pool_acquires"] = pool_acquires_ / n;
    m["vgpu.pool_warm_hit_ratio"] =
        pool_acquires_ > 0 ? 1.0 - pool_built_ / pool_acquires_ : 0;
  }

  std::vector<std::pair<std::string, std::string>> record() override {
    prep();
    std::vector<std::pair<std::string, std::string>> out;
    for (Op& op : run_pass().ops)
      for (auto& kv : op.values) out.push_back(std::move(kv));
    return out;
  }

 private:
  static std::vector<Call> make_calls();

  std::uint64_t seed_;
  std::vector<Call> calls_;
  // Traced-pass accumulators.
  double sweep_cpu_s_ = 0, sweep_wall_s_ = 0, sweep_points_ = 0;
  double pool_acquires_ = 0, pool_built_ = 0;
};

std::vector<Call> Repro::make_calls() {
  using namespace syncbench;
  std::vector<Call> calls;
  const ArchSpec archs[] = {vgpu::v100(), vgpu::p100()};

  // Table I (V100 only, as in the paper).
  calls.push_back({"syncbench.characterize_launch", "V100", false, [](Op& op) {
                     op.points = 3;
                     for (const auto& r : characterize_launch(vgpu::v100())) {
                       put(op, "launch/" + r.name + "/overhead_ns", r.overhead_ns);
                       put(op, "launch/" + r.name + "/null_total_ns", r.null_total_ns);
                     }
                   }});
  for (const ArchSpec& arch : archs) {
    // Table II and Figure 4.
    calls.push_back({"", "table2_grid " + arch.name, true, [arch](Op& op) { warp_sync_grid(arch, op); }});
    calls.push_back({"syncbench.characterize_block_sync_row", arch.name, true, [arch](Op& op) {
                       const WarpSyncRow r = characterize_block_sync_row(arch);
                       op.points = 9;  // one latency point + the Figure 4 grid
                       put(op, "block_sync_row/" + arch.name + "/latency", r.latency_cycles);
                       put(op, "block_sync_row/" + arch.name + "/throughput",
                           r.throughput_per_cycle);
                     }});
    calls.push_back({"syncbench.characterize_block_sync", arch.name, true, [arch](Op& op) {
                       const auto pts = characterize_block_sync(arch);
                       op.points = static_cast<std::int64_t>(pts.size());
                       for (const auto& p : pts) {
                         const std::string key = "block_sync/" + arch.name + "/b" +
                                                 std::to_string(p.blocks_per_sm) + "t" +
                                                 std::to_string(p.threads_per_block);
                         put(op, key + "/latency", p.latency_cycles);
                         put(op, key + "/throughput", p.warp_sync_per_cycle);
                       }
                     }});
    // Figure 5.
    calls.push_back({"syncbench.grid_sync_heatmap", arch.name, true, [arch](Op& op) {
                       put_heatmap(op, "grid_heatmap/" + arch.name, grid_sync_heatmap(arch));
                     }});
    // Table III.
    calls.push_back({"syncbench.characterize_smem", arch.name, true, [arch](Op& op) {
                       op.points = 3;
                       for (const auto& p : characterize_smem(arch)) {
                         const std::string key = "smem/" + arch.name + "/" + p.scenario;
                         put(op, key + "/bytes_per_cycle", p.bytes_per_cycle);
                         put(op, key + "/latency", p.latency_cycles);
                       }
                     }});
    // Table V.
    calls.push_back({"reduction.run_warp_reduce", arch.name, false, [arch](Op& op) {
                       using reduction::WarpVariant;
                       op.points = 0;
                       for (WarpVariant v :
                            {WarpVariant::Serial, WarpVariant::NoSync, WarpVariant::Volatile,
                             WarpVariant::Tile, WarpVariant::Coalesced,
                             WarpVariant::TileShfl, WarpVariant::CoaShfl}) {
                         const auto r = reduction::run_warp_reduce(arch, v);
                         const std::string key =
                             "warp_reduce/" + arch.name + "/" + reduction::to_string(v);
                         put(op, key + "/cycles", r.cycles);
                         put(op, key + "/value", r.value);
                         ++op.points;
                       }
                     }});
    // Figure 15 / Table VI.
    calls.push_back({"", "fig15 " + arch.name, false, [arch](Op& op) { fig15(arch, op); }});
    // Figures 17/18.
    for (WarpSyncKind kind : {WarpSyncKind::Tile, WarpSyncKind::ShuffleTile}) {
      calls.push_back({"syncbench.warp_sync_timers", arch.name + " " + to_string(kind), false, [arch, kind](Op& op) {
                         const WarpTimerResult r = warp_sync_timers(arch, kind);
                         std::string lanes;
                         for (std::size_t i = 0; i < r.start_cycles.size(); ++i)
                           lanes += std::to_string(r.start_cycles[i]) + ":" +
                                    std::to_string(r.end_cycles[i]) + ",";
                         op.values.push_back({"timers/" + arch.name + "/" + to_string(kind),
                                              lanes});
                       }});
    }
  }
  // Figures 7 and 8.
  for (int gpus : {1, 2}) {
    calls.push_back({"syncbench.mgrid_sync_heatmap", "P100 x" + std::to_string(gpus), true, [gpus](Op& op) {
                       put_heatmap(op, "mgrid_heatmap/p100_pcie/g" + std::to_string(gpus),
                                   mgrid_sync_heatmap(MachineConfig::p100_pcie(2), gpus));
                     }});
  }
  for (int gpus : {1, 2, 5, 6, 8}) {
    calls.push_back({"syncbench.mgrid_sync_heatmap", "DGX-1 x" + std::to_string(gpus), true, [gpus](Op& op) {
                       put_heatmap(op, "mgrid_heatmap/dgx1/g" + std::to_string(gpus),
                                   mgrid_sync_heatmap(MachineConfig::dgx1_v100(8), gpus));
                     }});
  }
  // Figure 9.
  calls.push_back({"syncbench.characterize_multi_gpu_barriers", "DGX-1 x8", true, [](Op& op) {
                     const auto pts = characterize_multi_gpu_barriers(
                         [](int g) { return MachineConfig::dgx1_v100(std::max(g, 1)); }, 8);
                     op.points = 5 * static_cast<std::int64_t>(pts.size()) - 1;
                     for (const auto& p : pts) {
                       const std::string key = "mgb/g" + std::to_string(p.gpus);
                       put(op, key + "/multi_launch_overhead_us", p.multi_launch_overhead_us);
                       put(op, key + "/cpu_barrier_us", p.cpu_barrier_us);
                       put(op, key + "/mgrid_fast_us", p.mgrid_fast_us);
                       put(op, key + "/mgrid_general_us", p.mgrid_general_us);
                       put(op, key + "/mgrid_slow_us", p.mgrid_slow_us);
                     }
                   }});
  // Figure 16: the bench program's 1..8-GPU grid, one point per GPU count.
  calls.push_back({"", "fig16", true, [](Op& op) {
                     std::vector<int> gpus;
                     for (int g = 1; g <= 8; ++g) gpus.push_back(g);
                     trace::Scope span("sweep.map");
                     const std::uint32_t parent = trace::current();
                     std::vector<Op> cells = sweep::map(gpus, [&](int g) {
                       trace::Adopt adopt(parent);
                       Op cell;
                       fig16_cell(g, kFig16ShardBytes, vgpu::ExecMode::Serial, 0,
                                  "fig16/g" + std::to_string(g), &cell);
                       return cell;
                     });
                     op.points = static_cast<std::int64_t>(cells.size());
                     for (Op& c : cells) {
                       op.errors += c.errors;
                       for (auto& kv : c.values) op.values.push_back(std::move(kv));
                     }
                   }});
  // Sync groups.
  calls.push_back({"syncbench.characterize_sync_groups", "DGX-1 x8", true, [](Op& op) {
                     const auto pts = characterize_sync_groups(
                         [](int g) { return MachineConfig::dgx1_v100(g); }, 8);
                     op.points = 6 * static_cast<std::int64_t>(pts.size());
                     for (const auto& p : pts) {
                       const std::string key = "sgroups/g" + std::to_string(p.gpus);
                       put(op, key + "/full_round_us", p.full_round_us);
                       put(op, key + "/half_round_us", p.half_round_us);
                       put(op, key + "/pipeline_full_us", p.pipeline_full_us);
                       put(op, key + "/pipeline_grouped_us", p.pipeline_grouped_us);
                     }
                   }});
  // All-reduce schedules.
  calls.push_back({"syncbench.characterize_allreduce", "16 KB, 256 KB", true, [](Op& op) {
                     const auto pts = characterize_allreduce(kAllReduceBytes, kAllReduceMaxGpus);
                     op.points = static_cast<std::int64_t>(pts.size());
                     for (const auto& p : pts) {
                       const std::string key = "allreduce/" + p.topology + "/g" +
                                               std::to_string(p.gpus) + "/" +
                                               std::to_string(p.bytes);
                       put(op, key + "/host_staged_us", p.host_staged_us);
                       put(op, key + "/ring_us", p.ring_us);
                       put(op, key + "/tree_us", p.tree_us);
                     }
                   }});
  // Section VIII-B.
  for (bool v100 : {true, false}) {
    calls.push_back({"syncbench.partial_sync_matrix", v100 ? "DGX-1 x2" : "P100 x2", false, [v100](Op& op) {
                       const MachineConfig cfg = v100 ? MachineConfig::dgx1_v100(2)
                                                      : MachineConfig::p100_pcie(2);
                       const auto rows = partial_sync_matrix(cfg);
                       op.points = static_cast<std::int64_t>(rows.size());
                       for (const auto& r : rows)
                         op.values.push_back(
                             {"partial/" + std::string(v100 ? "dgx1" : "p100_pcie") + "/" +
                                  r.level,
                              r.deadlocked ? "deadlock: " + r.detail : "completes"});
                     }});
  }
  return calls;
}

}  // namespace

std::unique_ptr<Workload> make_repro(std::uint64_t seed) {
  return std::make_unique<Repro>(seed);
}

}  // namespace perfbench
