// Golden-trace regression suite: runs three pinned scenarios with the
// observability layer on and compares every serialized artifact —
// metrics snapshot (JSON + CSV), merged Chrome trace, scheduler decision
// log — byte for byte against the reference files checked in under
// tests/golden/. Any drift in an exporter, an instrumentation point, or
// the runtime's event order fails here first.
//
// To bless intentional changes, regenerate the references:
//
//   $ HETFLOW_REGEN_GOLDEN=1 ./obs_golden_test && git diff tests/golden/
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "cluster_fault_scenario.hpp"
#include "core/runtime.hpp"
#include "helpers.hpp"
#include "hw/presets.hpp"
#include "obs/chrome_trace.hpp"
#include "sched/registry.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "workflow/generators.hpp"
#include "workflow/workflow.hpp"

#ifndef HETFLOW_GOLDEN_DIR
#error "build must define HETFLOW_GOLDEN_DIR (see tests/CMakeLists.txt)"
#endif

namespace hetflow {
namespace {

std::string golden_path(const std::string& scenario,
                        const std::string& file) {
  return std::string(HETFLOW_GOLDEN_DIR) + "/" + scenario + "/" + file;
}

struct Artifacts {
  std::string metrics_json;
  std::string metrics_csv;
  std::string chrome_trace;
  std::string decisions;
};

Artifacts collect(const hw::Platform& platform, core::Runtime& runtime) {
  Artifacts out;
  out.metrics_json = runtime.recorder()->metrics().to_json_string();
  out.metrics_csv = runtime.recorder()->metrics().to_csv();
  out.chrome_trace =
      obs::chrome_trace_json(runtime.tracer(), platform, runtime.recorder());
  out.decisions = runtime.recorder()->decisions_jsonl(platform);
  return out;
}

void check_scenario(const std::string& scenario, const hw::Platform& platform,
                    core::Runtime& runtime) {
  const Artifacts artifacts = collect(platform, runtime);
  testing::expect_golden_file(golden_path(scenario, "metrics.json"),
                              artifacts.metrics_json);
  testing::expect_golden_file(golden_path(scenario, "metrics.csv"),
                              artifacts.metrics_csv);
  testing::expect_golden_file(golden_path(scenario, "chrome_trace.json"),
                              artifacts.chrome_trace);
  testing::expect_golden_file(golden_path(scenario, "decisions.jsonl"),
                              artifacts.decisions);
}

TEST(ObsGolden, MontageOnWorkstationWithDmda) {
  // The "clean run" reference: data-aware scheduling, real transfers and
  // prefetches, no failures.
  const hw::Platform p = hw::make_workstation();
  core::RuntimeOptions options;
  options.metrics = true;
  options.seed = 3;
  core::Runtime rt(p, sched::make_scheduler("dmda"), options);
  workflow::submit_workflow(rt, workflow::make_montage(12),
                            workflow::CodeletLibrary::standard());
  rt.wait_all();
  check_scenario("montage_dmda", p, rt);
}

TEST(ObsGolden, FaultInjectionOnCpuPairWithMct) {
  // The "faulty run" reference: retries, timeouts-free fail/requeue
  // cycles, and blacklist traffic flow through the event log.
  const hw::Platform p = hw::make_cpu_only(2);
  core::RuntimeOptions options;
  options.metrics = true;
  options.seed = 7;
  options.failure_model = hw::FailureModel::uniform(3.0);
  options.failure_policy = core::FailurePolicy::Reschedule;
  options.retry.max_attempts = 6;
  options.retry.on_exhausted = core::ExhaustionPolicy::Drop;
  options.retry.blacklist_after = 2;
  options.retry.probation_s = 0.5;
  core::Runtime rt(p, sched::make_scheduler("mct"), options);
  for (int i = 0; i < 12; ++i) {
    rt.submit(util::format("t%d", i), hetflow::testing::cpu_only_codelet(),
              2e9, {});
  }
  rt.wait_all();
  check_scenario("faulty_mct", p, rt);
}

TEST(ObsGolden, NodeFaultWithTimeoutsAndDropOnCluster) {
  // The "fault domain" reference: hung attempts cut by the watchdog, an
  // exhausted budget under Drop, blacklisting, and a transient node fault
  // that resurrects producers, re-seeds inputs and parks consumers — the
  // counters neither run above ever touches.
  const hw::Cluster cluster = hetflow::testing::fault_scenario_cluster();
  const std::unique_ptr<core::Runtime> rt =
      hetflow::testing::run_cluster_faults(cluster);
  const core::RunStats& stats = rt->stats();
  EXPECT_GT(stats.timeouts, 0u);
  EXPECT_GT(stats.tasks_lost, 0u);
  EXPECT_EQ(stats.node_failures, 1u);
  EXPECT_GT(stats.tasks_resurrected, 0u);
  EXPECT_GT(stats.data_reseeded, 0u);
  EXPECT_GT(stats.tasks_parked, 0u);
  check_scenario("cluster_node_fault", cluster.platform(), *rt);
}

// Sanity on the golden artifacts themselves (run in both modes): the
// Chrome trace must parse as JSON with the Perfetto-required fields, and
// the metrics snapshot must reconcile with RunStats — so a re-blessed
// reference can never be structurally broken.
TEST(ObsGolden, GoldenChromeTraceIsWellFormed) {
  const hw::Platform p = hw::make_workstation();
  core::RuntimeOptions options;
  options.metrics = true;
  options.seed = 3;
  core::Runtime rt(p, sched::make_scheduler("dmda"), options);
  workflow::submit_workflow(rt, workflow::make_montage(12),
                            workflow::CodeletLibrary::standard());
  rt.wait_all();
  const util::Json doc =
      util::Json::parse(obs::chrome_trace_json(rt.tracer(), p, rt.recorder()));
  ASSERT_TRUE(doc.contains("traceEvents"));
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  std::size_t spans = 0;
  std::size_t metas = 0;
  for (const util::Json& event : doc.at("traceEvents").as_array()) {
    const std::string ph = event.at("ph").as_string();
    if (ph == "X") {
      ++spans;
      EXPECT_TRUE(event.contains("dur"));
    }
    if (ph == "M") {
      ++metas;
    }
    EXPECT_TRUE(event.contains("pid"));
  }
  EXPECT_GE(spans, rt.stats().tasks_completed);
  EXPECT_GT(metas, p.device_count());  // process + devices + xfer tracks

  // Metrics reconcile exactly with the runtime's own accounting.
  const obs::MetricsRegistry& m = rt.recorder()->metrics();
  EXPECT_EQ(m.counter_sum("tasks_completed"),
            static_cast<double>(rt.stats().tasks_completed));
  EXPECT_EQ(m.counter_sum("bytes_transferred"),
            static_cast<double>(rt.stats().transfers.bytes_moved));
}

}  // namespace
}  // namespace hetflow
