// Workload `sharded_8gpu`: one 8-GPU DGX-1 point at a time on the sharded
// executor with 4 shard workers. The points are the fig16 8-GPU cell, the
// three all-reduce schedules and the imbalanced sync-group ping-pong (quad
// groups, and the full barrier) with noise seeded from the workload seed.
// Windows, joins, mail rings, deferred ops and the fabric do the work; the
// sweep pool and the machine pool do none.
#include <algorithm>

#include "allreduce/allreduce.hpp"
#include "bench.hpp"
#include "scuda/system.hpp"
#include "trace.hpp"
#include "vgpu/program.hpp"

namespace perfbench {

namespace {

using vgpu::ExecMode;
using vgpu::MachineConfig;

constexpr int kGpus = 8;
constexpr int kShardJobs = 4;
constexpr std::int64_t kFig16ShardBytes = 1 << 20;  // the repro fig16 size
// 4 MB gradients per device, the allreduce_summary program's large size.
constexpr std::int64_t kGradElems = (4 << 20) / 8;
constexpr int kPingPongRounds = 64;
constexpr double kPingPongNoise = 0.02;
/// Noise seeds of the ping-pong points: the workload seed picks one of
/// these classes, and the reference file holds every class.
constexpr std::uint64_t kNoiseClasses = 8;

MachineConfig dgx1(ExecMode exec) {
  MachineConfig cfg = MachineConfig::dgx1_v100(kGpus);
  cfg.exec = exec;
  cfg.shard_jobs = exec == ExecMode::Sharded ? kShardJobs : 0;
  return cfg;
}

std::unique_ptr<scuda::System> build(MachineConfig cfg) {
  trace::Scope span("vgpu.system_build");
  return std::make_unique<scuda::System>(std::move(cfg));
}

void teardown(std::unique_ptr<scuda::System>* sys) {
  trace::Scope span("vgpu.system_teardown");
  sys->reset();
}

/// Barrier-bound body: `work` rounds of (counter bump, sync group `group`),
/// then `idle` bare syncs (the simperf_gbench BM_SyncGroupPingPong kernel).
vgpu::ProgramPtr pingpong_kernel(const char* name, int group, int work, int idle) {
  vgpu::KernelBuilder kb(name);
  vgpu::Reg out = kb.reg();
  kb.ld_param(out, 0);
  vgpu::Reg one = kb.imm(1);
  kb.repeat(work, [&] {
    kb.atom_add_i64(out, one);
    kb.mgrid_sync(group);
  });
  kb.repeat(idle, [&] { kb.mgrid_sync(group); });
  kb.exit();
  return kb.finish();
}

struct PingPong {
  bool quads = false;
  std::vector<vgpu::ProgramPtr> progs;  // per device
  std::vector<scuda::SyncGroupSpec> groups;
  std::vector<std::int64_t> expected_count;  // per device
};

/// Quad {0..3} has 4R rounds of work, quad {4..7} only R. With quad groups
/// each quad barriers alone; with the full barrier the light quad spins
/// through 3R bare syncs.
PingPong make_pingpong(bool quads) {
  constexpr int R = kPingPongRounds;
  constexpr int kThreads = 4 * 128;  // 4 blocks x 128 threads per device
  PingPong p;
  p.quads = quads;
  for (int d = 0; d < kGpus; ++d) {
    const bool heavy = d < 4;
    if (heavy)
      p.progs.push_back(pingpong_kernel("pp_heavy", 0, 4 * R, 0));
    else if (quads)
      p.progs.push_back(pingpong_kernel("pp_light", 1, R, 0));
    else
      p.progs.push_back(pingpong_kernel("pp_spin", 0, R, 3 * R));
    p.expected_count.push_back(static_cast<std::int64_t>(kThreads) * (heavy ? 4 * R : R));
  }
  if (quads)
    p.groups = {{{0, 1, 2, 3}}, {{4, 5, 6, 7}}};
  else
    p.groups = {{{0, 1, 2, 3, 4, 5, 6, 7}}};
  return p;
}

class Sharded : public Workload {
 public:
  explicit Sharded(std::uint64_t seed) : noise_class_(seed % kNoiseClasses) {}

  int busy_threads() const override { return kShardJobs; }
  ExecMode point_exec() const override { return ExecMode::Sharded; }

  void prep() override {
    pingpongs_ = {make_pingpong(true), make_pingpong(false)};
  }

  Pass run_pass() override {
    Pass pass;
    run_ops(ExecMode::Sharded, noise_class_, &pass);
    return pass;
  }

  void layer_metrics(int passes, LayerMetrics* out) override {
    // The serial oracle, once per point family: host-time ratio against the
    // traced sharded passes, and its values go through the same reference.
    Pass serial;
    run_ops(ExecMode::Serial, noise_class_, &serial);
    for (const auto& [family, sharded_s] : traced_s_) {
      const double serial_s = serial_family_s(serial, family);
      (*out)["vgpu.sharded_over_serial." + family] =
          serial_s > 0 ? (sharded_s / std::max(1, passes)) / serial_s : 0;
    }
    serial_ops_ = std::move(serial.ops);
    // Every point builds a fresh System; no machine pool is installed.
    (*out)["vgpu.pool_acquires"] = systems_per_pass_;
    (*out)["vgpu.pool_warm_hit_ratio"] = 0;
  }

  std::vector<Op> oracle_ops() override { return std::move(serial_ops_); }

  std::vector<std::pair<std::string, std::string>> record() override {
    prep();
    std::vector<std::pair<std::string, std::string>> out;
    for (std::uint64_t k = 0; k < kNoiseClasses; ++k) {
      Pass pass;
      run_ops(ExecMode::Sharded, k, &pass);
      for (std::size_t i = 0; i < pass.ops.size(); ++i) {
        // Only the ping-pong points depend on the noise class.
        if (k > 0 && family_of_[i] != "sgroup") continue;
        for (auto& kv : pass.ops[i].values) out.push_back(std::move(kv));
      }
    }
    return out;
  }

 private:
  /// Runs one pass's operations; each op's clock excludes its result checks.
  void run_ops(ExecMode exec, std::uint64_t noise_class, Pass* pass) {
    family_of_.clear();
    systems_per_pass_ = 2 + static_cast<int>(pingpongs_.size());  // fig16, all-reduce, ping-pongs
    const bool traced = trace::enabled();
    auto add = [&](const std::string& family, Op op, double timed_s) {
      if (op.name.empty()) op.name = family;
      op.host_us = timed_s * 1e6;
      pass->wall_s += timed_s;
      if (traced && exec == ExecMode::Sharded) traced_s_[family] += timed_s;
      family_of_.push_back(family);
      pass->ops.push_back(std::move(op));
    };

    {  // fig16 8-GPU cell
      Op op;
      op.name = "fig16 cell g8";
      op.points = 2;
      const auto t0 = Clock::now();
      fig16_cell(kGpus, kFig16ShardBytes, exec, kShardJobs, "fig16/g8", &op);
      add("reduce_multi", std::move(op), seconds_between(t0, Clock::now()));
    }

    {  // all-reduce: one machine, the three schedules back to back
      auto t0 = Clock::now();
      auto sys = build(dgx1(exec));
      std::vector<vgpu::DevPtr> grads;
      for (int d = 0; d < kGpus; ++d) grads.push_back(sys->malloc(d, kGradElems * 8));
      double setup_s = seconds_between(t0, Clock::now());
      for (allreduce::Schedule s : {allreduce::Schedule::Ring, allreduce::Schedule::Tree,
                                    allreduce::Schedule::HostStaged}) {
        const std::string name =
            s == allreduce::Schedule::HostStaged ? "host_staged" : allreduce::to_string(s);
        Op op;
        op.name = "allreduce " + name;
        t0 = Clock::now();
        {
          trace::Scope span("scuda.fill");
          allreduce::fill_gradients(*sys, grads, kGradElems, allreduce::DType::F64);
        }
        allreduce::AllReduceRun r;
        {
          trace::Scope span("allreduce." + name);
          r = allreduce::run_all_reduce(*sys, s, allreduce::DType::F64, grads, kGradElems);
        }
        const double timed = setup_s + seconds_between(t0, Clock::now());
        setup_s = 0;
        op.values.push_back({"allreduce/dgx1/g8/" + name + "/micros", exact(r.micros)});
        // Every device must hold the sum of one warm-up and one measured pass.
        for (int d = 0; d < kGpus; ++d) {
          const auto got = sys->read_f64(grads[static_cast<std::size_t>(d)], kGradElems);
          for (std::int64_t i = 0; i < kGradElems; ++i)
            if (got[static_cast<std::size_t>(i)] != allreduce::expected_f64(kGpus, i, 2)) {
              ++op.errors;
              break;
            }
        }
        add("allreduce", std::move(op), timed);
      }
      t0 = Clock::now();
      teardown(&sys);
      pass->wall_s += seconds_between(t0, Clock::now());
    }

    for (const PingPong& pp : pingpongs_) {
      Op op;
      op.name = pp.quads ? "pingpong quads" : "pingpong full";
      const auto t0 = Clock::now();
      MachineConfig cfg = dgx1(exec);
      cfg.noise_seed = 1 + noise_class;
      cfg.noise_amplitude = kPingPongNoise;
      auto sys = build(cfg);
      std::vector<vgpu::DevPtr> counters;
      for (int d = 0; d < kGpus; ++d) {
        counters.push_back(sys->malloc(d, 8));
        sys->fill_i64(counters.back(), {0});
      }
      double micros = 0;
      {
        trace::Scope span("scuda.run");
        sys->run([&](scuda::HostThread& h) {
          std::vector<int> devs;
          std::vector<scuda::LaunchParams> per_dev;
          for (int d = 0; d < kGpus; ++d) {
            devs.push_back(d);
            per_dev.push_back(scuda::LaunchParams{pp.progs[static_cast<std::size_t>(d)], 4,
                                                  128, 0,
                                                  {counters[static_cast<std::size_t>(d)].raw}});
          }
          const double start = h.now_us();
          sys->launch_cooperative_multi(h, devs, per_dev, pp.groups);
          for (int d = 0; d < kGpus; ++d) sys->device_synchronize(h, d);
          micros = h.now_us() - start;
        });
      }
      const double timed = seconds_between(t0, Clock::now());
      for (int d = 0; d < kGpus; ++d)
        if (sys->read_i64(counters[static_cast<std::size_t>(d)], 1)[0] !=
            pp.expected_count[static_cast<std::size_t>(d)])
          ++op.errors;
      op.values.push_back({"pingpong/" + std::string(pp.quads ? "quads" : "full") +
                               "/noise" + std::to_string(noise_class) + "/micros",
                           exact(micros)});
      const auto t1 = Clock::now();
      teardown(&sys);
      add("sgroup", std::move(op), timed + seconds_between(t1, Clock::now()));
    }
  }

  double serial_family_s(const Pass& serial, const std::string& family) const {
    double s = 0;
    for (std::size_t i = 0; i < serial.ops.size(); ++i)
      if (family_of_[i] == family) s += serial.ops[i].host_us * 1e-6;
    return s;
  }

  std::uint64_t noise_class_;
  std::vector<PingPong> pingpongs_;
  std::vector<std::string> family_of_;     // per op of the last run_ops
  int systems_per_pass_ = 0;
  std::map<std::string, double> traced_s_;  // family -> traced sharded host s
  std::vector<Op> serial_ops_;
};

}  // namespace

std::unique_ptr<Workload> make_sharded_8gpu(std::uint64_t seed) {
  return std::make_unique<Sharded>(seed);
}

}  // namespace perfbench
