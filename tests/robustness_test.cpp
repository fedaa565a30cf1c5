// Robustness sweeps: every policy under adverse runtime options (noise +
// failures + tight memory), and byte-mutation fuzzing of the parsers
// (they must throw ParseError/Error, never crash or hang).
#include <gtest/gtest.h>

#include "core/runtime.hpp"
#include "helpers.hpp"
#include "sched/registry.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workflow/dagfile.hpp"
#include "workflow/generators.hpp"
#include "workflow/workflow.hpp"

namespace hetflow {
namespace {

class AdversePolicySweep : public ::testing::TestWithParam<std::string> {};

TEST_P(AdversePolicySweep, NoiseAndFailuresNeverBreakInvariants) {
  const hw::Platform platform = hw::make_hpc_node(4, 2, 0);
  const workflow::Workflow wf = workflow::make_montage(12);
  const auto lib = workflow::CodeletLibrary::standard();
  core::RuntimeOptions options;
  options.noise_cv = 0.4;
  options.failure_model = hw::FailureModel::uniform(0.3);
  options.failure_policy = core::FailurePolicy::Reschedule;
  options.seed = 77;

  core::Runtime rt(platform, sched::make_scheduler(GetParam()), options);
  workflow::submit_workflow(rt, wf, lib);
  rt.wait_all();
  EXPECT_EQ(rt.stats().tasks_completed, wf.task_count());
  hetflow::testing::expect_no_device_overlap(rt.tracer(), platform);
}

TEST_P(AdversePolicySweep, RetrySamePolicyAlsoCompletes) {
  const hw::Platform platform = hw::make_workstation();
  const workflow::Workflow wf = workflow::make_ligo(8, 4);
  const auto lib = workflow::CodeletLibrary::standard();
  core::RuntimeOptions options;
  options.failure_model = hw::FailureModel::uniform(0.5);
  options.failure_policy = core::FailurePolicy::RetrySameDevice;
  options.retry.max_attempts = 100;
  const auto stats = workflow::run_workflow(platform, GetParam(), wf, lib,
                                            options);
  EXPECT_EQ(stats.tasks_completed, wf.task_count());
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, AdversePolicySweep,
    ::testing::ValuesIn(sched::scheduler_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

hw::Platform tight_vram_platform() {
  hw::PlatformBuilder b("tight");
  const auto host = b.add_memory_node("host", 2ull << 30);
  const auto vram = b.add_memory_node("vram", 16ull << 20);  // tiny
  b.add_device("cpu0", hw::DeviceType::Cpu, 12.0, host);
  b.add_device("gpu0", hw::DeviceType::Gpu, 600.0, vram, 8e-6);
  b.add_link(host, vram, 16.0, 4e-6);
  return b.build();
}

TEST(TightMemory, EverySchedulerSurvivesEvictionPressure) {
  // Files of a few MiB against a 16 MiB device memory: heavy eviction
  // churn, but each individual working set fits.
  const hw::Platform platform = tight_vram_platform();
  const workflow::Workflow wf =
      workflow::make_random_layered(6, 4, 3.0, 5, 2e6);
  const auto lib = workflow::CodeletLibrary::standard();
  for (const std::string& policy : sched::scheduler_names()) {
    const auto stats = workflow::run_workflow(platform, policy, wf, lib);
    EXPECT_EQ(stats.tasks_completed, wf.task_count()) << policy;
  }
}

TEST(TightMemory, CostModelPoliciesRouteAroundOversizedWorkingSets) {
  // Files larger than the whole device memory: infeasible on the GPU.
  // Every cost-model policy must keep those tasks on the host.
  const hw::Platform platform = tight_vram_platform();
  const workflow::Workflow wf =
      workflow::make_random_layered(5, 3, 3.0, 5, 5e8);  // ~0.5 GB files
  const auto lib = workflow::CodeletLibrary::standard();
  for (const char* policy : {"mct", "dmda", "dmdas", "min-min", "max-min",
                             "sufferage", "heft", "cpop", "energy-edp",
                             "energy-performance", "energy-energy"}) {
    const auto stats = workflow::run_workflow(platform, policy, wf, lib);
    EXPECT_EQ(stats.tasks_completed, wf.task_count()) << policy;
    EXPECT_EQ(stats.devices[1].tasks_completed, 0u) << policy;  // gpu0
  }
}

TEST(FuzzLite, JsonByteMutationsNeverCrash) {
  const std::string base =
      R"({"name": "x", "values": [1, 2.5, true, null, "s\n"],
          "nested": {"k": -3e2}})";
  util::Rng rng(123);
  int parsed_ok = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string mutated = base;
    const std::size_t pos = rng.index(mutated.size());
    mutated[pos] = static_cast<char>(rng.uniform_int(32, 126));
    try {
      (void)util::Json::parse(mutated);
      ++parsed_ok;
    } catch (const util::Error&) {
      // expected for most mutations
    }
  }
  // Some mutations still parse (e.g. digit swaps) — but not all.
  EXPECT_GT(parsed_ok, 0);
  EXPECT_LT(parsed_ok, 3000);
}

TEST(FuzzLite, JsonTruncationsNeverCrash) {
  const std::string base =
      R"({"a": [1, {"b": "str"}, false], "c": 2})";
  for (std::size_t len = 0; len < base.size(); ++len) {
    try {
      (void)util::Json::parse(base.substr(0, len));
    } catch (const util::Error&) {
    }
  }
  SUCCEED();
}

TEST(FuzzLite, DagfileMutationsNeverCrash) {
  const std::string base = workflow::to_dagfile(workflow::make_ligo(3, 2));
  util::Rng rng(321);
  for (int trial = 0; trial < 1000; ++trial) {
    std::string mutated = base;
    const std::size_t pos = rng.index(mutated.size());
    mutated[pos] = static_cast<char>(rng.uniform_int(32, 126));
    try {
      (void)workflow::parse_dagfile(mutated);
    } catch (const util::Error&) {
    }
  }
  SUCCEED();
}

TEST(FuzzLite, DagfileLineShufflesParseOrThrow) {
  // Reordering lines keeps the format parseable or raises ParseError
  // (never UB): files may be declared after first use only implicitly.
  const std::string base = workflow::to_dagfile(workflow::make_montage(4));
  std::vector<std::string> lines = util::split(base, '\n');
  util::Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    rng.shuffle(lines);
    try {
      (void)workflow::parse_dagfile(util::join(lines, "\n"));
    } catch (const util::Error&) {
    }
  }
  SUCCEED();
}

TEST(Determinism, WholeStackBitExactAcrossManySeeds) {
  const hw::Platform platform = hw::make_hpc_node(4, 2, 1);
  const auto lib = workflow::CodeletLibrary::standard();
  for (std::uint64_t seed : {1ull, 99ull, 31337ull}) {
    core::RuntimeOptions options;
    options.seed = seed;
    options.noise_cv = 0.3;
    options.failure_model = hw::FailureModel::uniform(0.2);
    const workflow::Workflow wf = workflow::make_cybershake(2, 10);
    const auto a = workflow::run_workflow(platform, "dmdas", wf, lib,
                                          options);
    const auto b = workflow::run_workflow(platform, "dmdas", wf, lib,
                                          options);
    EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s) << "seed " << seed;
    EXPECT_EQ(a.failed_attempts, b.failed_attempts);
    EXPECT_EQ(a.transfers.bytes_moved, b.transfers.bytes_moved);
  }
}

}  // namespace
}  // namespace hetflow
