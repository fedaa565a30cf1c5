// Whole-stack integration: realistic workflows on realistic platforms,
// checking cross-module behavior (scheduling quality relations, data
// movement, energy, memory pressure, cluster execution).
#include <gtest/gtest.h>

#include "core/runtime.hpp"
#include "helpers.hpp"
#include "obs/chrome_trace.hpp"
#include "sched/registry.hpp"
#include "trace/report.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "workflow/dagfile.hpp"
#include "workflow/generators.hpp"
#include "workflow/linalg.hpp"
#include "workflow/workflow.hpp"

namespace hetflow {
namespace {

const workflow::CodeletLibrary& lib() {
  static const workflow::CodeletLibrary instance =
      workflow::CodeletLibrary::standard();
  return instance;
}

TEST(Integration, CostAwareSchedulersBeatRandomOnEveryWorkflow) {
  const hw::Platform p = hw::make_hpc_node(8, 2, 0);
  for (const workflow::Workflow& wf :
       {workflow::make_montage(24), workflow::make_epigenomics(3, 6),
        workflow::make_ligo(16, 4)}) {
    const double random =
        workflow::run_workflow(p, "random", wf, lib()).makespan_s;
    for (const char* policy : {"mct", "dmda", "heft", "min-min"}) {
      const double cost_aware =
          workflow::run_workflow(p, policy, wf, lib()).makespan_s;
      EXPECT_LT(cost_aware, random * 1.05)
          << policy << " on " << wf.name();
    }
  }
}

TEST(Integration, MoreGpusNeverHurtCholeskyMuch) {
  // Monotone-ish scaling: 4 GPUs should be at least as good as 1 GPU.
  const workflow::Workflow wf = workflow::make_cholesky(12, 2048);
  const double one_gpu =
      workflow::run_workflow(hw::make_hpc_node(4, 1, 0), "dmda", wf, lib())
          .makespan_s;
  const double four_gpu =
      workflow::run_workflow(hw::make_hpc_node(4, 4, 0), "dmda", wf, lib())
          .makespan_s;
  EXPECT_LE(four_gpu, one_gpu * 1.02);
}

TEST(Integration, GpuPlatformBeatsCpuOnlyForDenseWork) {
  const workflow::Workflow wf = workflow::make_cholesky(10, 2048);
  const double cpu_only =
      workflow::run_workflow(hw::make_cpu_only(8), "dmda", wf, lib())
          .makespan_s;
  const double with_gpu =
      workflow::run_workflow(hw::make_hpc_node(8, 2, 0), "dmda", wf, lib())
          .makespan_s;
  EXPECT_LT(with_gpu, cpu_only / 3.0);
}

TEST(Integration, DataAwareSchedulingReducesTrafficOnHighCcr) {
  const hw::Platform p = hw::make_hpc_node(4, 2, 0);
  const workflow::Workflow wf =
      workflow::make_random_layered(8, 6, 4.0, 11);
  const auto mct = workflow::run_workflow(p, "mct", wf, lib());
  const auto dmda = workflow::run_workflow(p, "dmda", wf, lib());
  EXPECT_LE(dmda.makespan_s, mct.makespan_s * 1.01);
}

TEST(Integration, EnergyAwareSavesEnergyVersusPerformanceFirst) {
  const hw::Platform p = hw::make_hpc_node(8, 2, 0);
  const workflow::Workflow wf = workflow::make_montage(32);
  const auto perf = workflow::run_workflow(p, "energy-performance", wf, lib());
  const auto energy = workflow::run_workflow(p, "energy-energy", wf, lib());
  EXPECT_LT(energy.busy_energy_j(), perf.busy_energy_j());
}

TEST(Integration, TinyDeviceMemoryStillCompletesViaEviction) {
  // GPU memory smaller than the workflow footprint: the allocator must
  // evict and write back, and the run must still complete correctly.
  hw::PlatformBuilder b("tiny-vram");
  const auto host = b.add_memory_node("host", 4ull << 30);
  const auto vram = b.add_memory_node("vram", 24ull << 20);  // 24 MiB
  b.add_device("cpu0", hw::DeviceType::Cpu, 12.0, host);
  b.add_device("gpu0", hw::DeviceType::Gpu, 600.0, vram, 8e-6);
  b.add_link(host, vram, 16.0, 4e-6);
  const hw::Platform p = b.build();

  core::Runtime rt(p, sched::make_scheduler("dmda"));
  // 8 MiB tiles, 6x6 Cholesky: working set far exceeds 24 MiB.
  workflow::submit_cholesky_inplace(rt, 6, 1024,
                                    workflow::CodeletLibrary::standard());
  rt.wait_all();
  EXPECT_EQ(rt.stats().tasks_completed,
            workflow::cholesky_task_count(6));
  EXPECT_GT(rt.stats().data.evictions, 0u);
}

TEST(Integration, ClusterRunsLargeWorkflow) {
  const hw::Platform p = hw::make_cluster(3, 4, 1);
  const workflow::Workflow wf = workflow::make_cybershake(4, 20);
  const auto stats = workflow::run_workflow(p, "dmda", wf, lib());
  EXPECT_EQ(stats.tasks_completed, wf.task_count());
  EXPECT_GT(stats.mean_utilization(), 0.0);
}

TEST(Integration, EdgePlatformRunsSignalPipeline) {
  const hw::Platform p = hw::make_edge_node();
  core::Runtime rt(p, sched::make_scheduler("dmda"));
  const auto filter = lib().get("filter");
  const auto fft = lib().get("fft");
  auto samples = rt.register_data("samples", 4 << 20);
  auto filtered = rt.register_data("filtered", 4 << 20);
  auto spectrum = rt.register_data("spectrum", 1 << 20);
  rt.submit("filter", filter, 2e8,
            {{samples, data::AccessMode::Read},
             {filtered, data::AccessMode::Write}});
  rt.submit("fft", fft, 5e8,
            {{filtered, data::AccessMode::Read},
             {spectrum, data::AccessMode::Write}});
  rt.wait_all();
  EXPECT_EQ(rt.stats().tasks_completed, 2u);
  // DSP (20 GFLOPS, fft-efficient) should host the FFT.
  const auto dsps = p.devices_of_type(hw::DeviceType::Dsp);
  EXPECT_GE(rt.stats().devices[dsps[0]].tasks_completed, 1u);
}

TEST(Integration, ChromeTraceOfFullRunIsParseable) {
  const hw::Platform p = hw::make_workstation();
  core::Runtime rt(p, sched::make_scheduler("heft"));
  workflow::submit_workflow(rt, workflow::make_montage(12), lib());
  rt.wait_all();
  const util::Json doc =
      util::Json::parse(obs::chrome_trace_json(rt.tracer(), p, nullptr));
  EXPECT_GE(doc.at("traceEvents").size(),
            static_cast<std::size_t>(rt.stats().tasks_completed));
  const std::string report = trace::utilization_report(rt.tracer(), p);
  EXPECT_NE(report.find("gpu0"), std::string::npos);
}

TEST(Integration, DagfileToExecutionPipeline) {
  // Serialize a generated workflow, re-load it, run it: same makespan as
  // running the original (end-to-end format fidelity).
  const hw::Platform p = hw::make_hpc_node(4, 1, 0);
  const workflow::Workflow original = workflow::make_ligo(10, 5);
  const workflow::Workflow reloaded =
      workflow::parse_dagfile(workflow::to_dagfile(original));
  const double direct =
      workflow::run_workflow(p, "heft", original, lib()).makespan_s;
  const double roundtrip =
      workflow::run_workflow(p, "heft", reloaded, lib()).makespan_s;
  EXPECT_DOUBLE_EQ(direct, roundtrip);
}

TEST(Integration, NoiseShiftsButDoesNotBreakScheduling) {
  const hw::Platform p = hw::make_hpc_node(4, 2, 0);
  const workflow::Workflow wf = workflow::make_montage(20);
  core::RuntimeOptions options;
  options.noise_cv = 0.25;
  const auto noisy = workflow::run_workflow(p, "dmda", wf, lib(), options);
  const auto clean = workflow::run_workflow(p, "dmda", wf, lib());
  EXPECT_EQ(noisy.tasks_completed, wf.task_count());
  EXPECT_NE(noisy.makespan_s, clean.makespan_s);
  EXPECT_LT(noisy.makespan_s, clean.makespan_s * 3.0);
}

TEST(Integration, FaultInjectionAcrossWholeWorkflow) {
  const hw::Platform p = hw::make_hpc_node(4, 2, 0);
  core::RuntimeOptions options;
  options.failure_model = hw::FailureModel::uniform(0.5);
  options.failure_policy = core::FailurePolicy::Reschedule;
  const workflow::Workflow wf = workflow::make_epigenomics(2, 6);
  const auto stats = workflow::run_workflow(p, "dmda", wf, lib(), options);
  EXPECT_EQ(stats.tasks_completed, wf.task_count());
  const auto clean = workflow::run_workflow(p, "dmda", wf, lib());
  EXPECT_GE(stats.makespan_s, clean.makespan_s);
}

TEST(Integration, HistoryModelImprovesEstimatesWithinRun) {
  // With a deliberately wrong analytic model (efficiency set far from the
  // noise-free truth is impossible here, so instead check convergence):
  // after many repetitions the history mean matches the observed rate.
  const hw::Platform p = hw::make_cpu_only(2);
  core::RuntimeOptions options;
  options.noise_cv = 0.3;
  options.seed = 9;
  core::Runtime rt(p, sched::make_scheduler("mct"), options);
  const core::CodeletPtr codelet = hetflow::testing::cpu_only_codelet();
  for (int i = 0; i < 60; ++i) {
    rt.submit(util::format("t%d", i), codelet, 2e9, {});
  }
  rt.wait_all();
  ASSERT_TRUE(rt.history().calibrated(codelet->id(), hw::DeviceType::Cpu));
  // True mean rate: 2e9 flops at 6 GFLOP/s effective = 1/3 s, noise has
  // unit mean, so the history estimate converges to ~1/3 s.
  EXPECT_NEAR(rt.history().estimate(codelet->id(), hw::DeviceType::Cpu, 2e9),
              1.0 / 3.0, 0.05);
}

TEST(Integration, DeterministicEndToEnd) {
  const hw::Platform p = hw::make_hpc_node(4, 2, 1);
  core::RuntimeOptions options;
  options.noise_cv = 0.2;
  options.failure_model = hw::FailureModel::uniform(0.05);
  options.seed = 2026;
  const workflow::Workflow wf = workflow::make_cybershake(3, 8);
  const auto a = workflow::run_workflow(p, "dmda", wf, lib(), options);
  const auto b = workflow::run_workflow(p, "dmda", wf, lib(), options);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.failed_attempts, b.failed_attempts);
  EXPECT_EQ(a.transfers.bytes_moved, b.transfers.bytes_moved);
  EXPECT_DOUBLE_EQ(a.total_energy_j(), b.total_energy_j());
}

}  // namespace
}  // namespace hetflow
