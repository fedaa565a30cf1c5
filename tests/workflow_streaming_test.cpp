#include "workflow/streaming.hpp"

#include <gtest/gtest.h>

#include "hw/failure.hpp"
#include "hw/presets.hpp"

namespace hetflow::workflow {
namespace {

PeriodicPipeline sensing_pipeline(double period, double flops_scale = 1.0) {
  PeriodicPipeline pipeline;
  pipeline.name = "sense";
  pipeline.period_s = period;
  pipeline.stages = {
      StageSpec{"io", 1e8 * flops_scale, 1 << 20},
      StageSpec{"compute", 6e8 * flops_scale, 1 << 20},
      StageSpec{"reduce", 1e8 * flops_scale, 64 << 10},
  };
  return pipeline;
}

TEST(Streaming, ValidatesInput) {
  const hw::Platform p = hw::make_cpu_only(2);
  const auto lib = CodeletLibrary::standard();
  EXPECT_THROW(run_streaming(p, "mct", {sensing_pipeline(1.0)}, 0.0, lib),
               util::InternalError);
  PeriodicPipeline bad = sensing_pipeline(0.0);
  EXPECT_THROW(run_streaming(p, "mct", {bad}, 1.0, lib),
               util::InternalError);
  PeriodicPipeline empty;
  empty.name = "empty";
  empty.period_s = 1.0;
  EXPECT_THROW(run_streaming(p, "mct", {empty}, 1.0, lib),
               util::InternalError);
}

TEST(Streaming, InstanceCountMatchesHorizon) {
  const hw::Platform p = hw::make_cpu_only(4);
  const auto lib = CodeletLibrary::standard();
  const StreamingResult result =
      run_streaming(p, "mct", {sensing_pipeline(0.5)}, 5.0, lib);
  // Releases at 0, 0.5, ..., 4.5 -> 10 instances.
  EXPECT_EQ(result.total_instances(), 10u);
  EXPECT_EQ(result.pipelines.size(), 1u);
  EXPECT_EQ(result.pipelines[0].instances, 10u);
  EXPECT_DOUBLE_EQ(result.horizon_s, 5.0);
}

TEST(Streaming, UnderloadedSystemMissesNothing) {
  const hw::Platform p = hw::make_cpu_only(4);
  const auto lib = CodeletLibrary::standard();
  // Each instance needs ~0.13 s of compute; period 1 s on 4 cores.
  const StreamingResult result =
      run_streaming(p, "mct", {sensing_pipeline(1.0)}, 10.0, lib);
  EXPECT_EQ(result.total_misses(), 0u);
  EXPECT_DOUBLE_EQ(result.overall_miss_rate(), 0.0);
  EXPECT_GT(result.pipelines[0].mean_latency_s, 0.0);
  EXPECT_LE(result.pipelines[0].mean_latency_s,
            result.pipelines[0].max_latency_s);
}

TEST(Streaming, OverloadedSystemMissesDeadlines) {
  const hw::Platform p = hw::make_cpu_only(1);
  const auto lib = CodeletLibrary::standard();
  // ~0.13 s work per instance at period 0.05 s on one core: hopeless.
  const StreamingResult result =
      run_streaming(p, "mct", {sensing_pipeline(0.05)}, 2.0, lib);
  EXPECT_GT(result.overall_miss_rate(), 0.5);
  EXPECT_GT(result.makespan_s, result.horizon_s);
}

TEST(Streaming, ExplicitDeadlineTighterThanPeriod) {
  const hw::Platform p = hw::make_cpu_only(2);
  const auto lib = CodeletLibrary::standard();
  PeriodicPipeline pipeline = sensing_pipeline(1.0);
  pipeline.relative_deadline_s = 1e-6;  // unmeetable
  const StreamingResult result =
      run_streaming(p, "mct", {pipeline}, 3.0, lib);
  EXPECT_EQ(result.pipelines[0].deadline_misses,
            result.pipelines[0].instances);
}

TEST(Streaming, MultiplePipelinesTracked) {
  const hw::Platform p = hw::make_workstation();
  const auto lib = CodeletLibrary::standard();
  PeriodicPipeline fast = sensing_pipeline(0.25);
  fast.name = "fast";
  PeriodicPipeline slow = sensing_pipeline(1.0, 4.0);
  slow.name = "slow";
  const StreamingResult result =
      run_streaming(p, "dmda", {fast, slow}, 4.0, lib);
  ASSERT_EQ(result.pipelines.size(), 2u);
  EXPECT_EQ(result.pipelines[0].name, "fast");
  EXPECT_EQ(result.pipelines[0].instances, 16u);
  EXPECT_EQ(result.pipelines[1].instances, 4u);
}

TEST(Streaming, LatencyIncludesQueueingUnderLoad) {
  const hw::Platform p = hw::make_cpu_only(1);
  const auto lib = CodeletLibrary::standard();
  const StreamingResult relaxed =
      run_streaming(p, "mct", {sensing_pipeline(2.0)}, 8.0, lib);
  const StreamingResult tight =
      run_streaming(p, "mct", {sensing_pipeline(0.1)}, 8.0, lib);
  EXPECT_GT(tight.pipelines[0].mean_latency_s,
            relaxed.pipelines[0].mean_latency_s);
}

TEST(Streaming, DeterministicAcrossRuns) {
  const hw::Platform p = hw::make_workstation();
  const auto lib = CodeletLibrary::standard();
  core::RuntimeOptions options;
  options.noise_cv = 0.2;
  const StreamingResult a =
      run_streaming(p, "dmda", {sensing_pipeline(0.3)}, 3.0, lib, options);
  const StreamingResult b =
      run_streaming(p, "dmda", {sensing_pipeline(0.3)}, 3.0, lib, options);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.total_misses(), b.total_misses());
  EXPECT_DOUBLE_EQ(a.pipelines[0].mean_latency_s,
                   b.pipelines[0].mean_latency_s);
}

// Regression: static (full-graph) schedulers cannot absorb the tasks
// FailurePolicy::Reschedule hands back at run time. This used to die
// deep inside the policy (or stall the wait_all loop) with a bare
// assertion; the runtime now rejects the hand-back with a clear error
// the moment the first failed attempt would re-enter the scheduler.
TEST(Streaming, StaticSchedulerRejectsRescheduleAtHandBack) {
  const hw::Platform p = hw::make_workstation();
  const auto lib = CodeletLibrary::standard();
  core::RuntimeOptions options;
  // High enough that a failure is certain within the horizon.
  options.failure_model = hw::FailureModel::uniform(50.0);
  options.failure_policy = core::FailurePolicy::Reschedule;
  options.retry.max_attempts = 1000;
  for (const char* policy : {"heft", "cpop", "peft"}) {
    try {
      run_streaming(p, policy, {sensing_pipeline(0.5)}, 2.0, lib, options);
      FAIL() << policy << ": expected InvalidArgument";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "cannot accept dynamically submitted tasks"),
                std::string::npos)
          << policy << ": " << e.what();
    }
  }
}

// The same failure model is fine when recovery stays on-device (no task
// re-enters the scheduler unplanned), and fine for dynamic policies
// under Reschedule.
TEST(Streaming, FailureRecoveryStillWorksWhereSupported) {
  const hw::Platform p = hw::make_workstation();
  const auto lib = CodeletLibrary::standard();
  core::RuntimeOptions retry;
  retry.failure_model = hw::FailureModel::uniform(0.2);
  retry.failure_policy = core::FailurePolicy::RetrySameDevice;
  retry.retry.max_attempts = 100;
  const StreamingResult on_static =
      run_streaming(p, "heft", {sensing_pipeline(0.5)}, 2.0, lib, retry);
  EXPECT_EQ(on_static.total_instances(), 4u);

  core::RuntimeOptions resched = retry;
  resched.failure_policy = core::FailurePolicy::Reschedule;
  const StreamingResult on_dynamic =
      run_streaming(p, "dmda", {sensing_pipeline(0.5)}, 2.0, lib, resched);
  EXPECT_EQ(on_dynamic.total_instances(), 4u);
}

class StreamingPolicySweep : public ::testing::TestWithParam<const char*> {};

TEST_P(StreamingPolicySweep, AllPoliciesCompleteAllInstances) {
  const hw::Platform p = hw::make_workstation();
  const auto lib = CodeletLibrary::standard();
  const StreamingResult result =
      run_streaming(p, GetParam(), {sensing_pipeline(0.5)}, 3.0, lib);
  EXPECT_EQ(result.total_instances(), 6u);
}

INSTANTIATE_TEST_SUITE_P(Policies, StreamingPolicySweep,
                         ::testing::Values("eager", "mct", "dmda",
                                           "work-stealing", "heft", "cpop"));

}  // namespace
}  // namespace hetflow::workflow
