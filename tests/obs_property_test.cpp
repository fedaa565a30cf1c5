// Cross-layer properties of the observability exports, checked for
// every instrumented scheduling policy:
//
//   1. The Chrome trace reconciles with RunStats: per device, the summed
//      durations of the exported "X" spans equal busy_seconds.
//   2. The metrics snapshot reconciles with RunStats — bitwise for the
//      second-valued counters, which are copied from the stats fields they
//      mirror — on clean runs and on a run through every fault path.
//   3. The decision log tells the truth: the LAST logged decision for
//      each task names the device the task actually ran on, as recorded
//      by the hetflow-verify audit snapshot.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "check/audit.hpp"
#include "cluster_fault_scenario.hpp"
#include "core/runtime.hpp"
#include "hw/presets.hpp"
#include "obs/chrome_trace.hpp"
#include "sched/registry.hpp"
#include "util/json.hpp"
#include "workflow/generators.hpp"
#include "workflow/workflow.hpp"

namespace hetflow {
namespace {

constexpr const char* kSchedulers[] = {"mct", "dmda", "dmdas",
                                       "work-stealing"};

/// Metrics on, and noise that keeps exec times irregular so accidental
/// reconciliations can't pass.
core::RuntimeOptions instrumented_options() {
  core::RuntimeOptions options;
  options.metrics = true;
  options.seed = 13;
  options.noise_cv = 0.15;
  return options;
}

/// An instrumented run of a generated workflow. (Runtime is not movable —
/// the scheduler context points back into it — so it lives on the heap.)
std::unique_ptr<core::Runtime> make_run(const hw::Platform& platform,
                                        const std::string& scheduler) {
  auto runtime = std::make_unique<core::Runtime>(
      platform, sched::make_scheduler(scheduler), instrumented_options());
  workflow::submit_workflow(*runtime, workflow::make_montage(10),
                            workflow::CodeletLibrary::standard());
  runtime->wait_all();
  return runtime;
}

TEST(ObsProperty, ChromeTraceSpanTimeEqualsRunStatsBusyTime) {
  const hw::Platform p = hw::make_workstation();
  for (const char* scheduler : kSchedulers) {
    const std::unique_ptr<core::Runtime> run = make_run(p, scheduler);
    core::Runtime& rt = *run;
    const util::Json doc = util::Json::parse(
        obs::chrome_trace_json(rt.tracer(), p, rt.recorder()));
    std::map<std::int64_t, double> span_seconds;
    for (const util::Json& event : doc.at("traceEvents").as_array()) {
      if (event.at("ph").as_string() != "X") {
        continue;
      }
      const auto tid =
          static_cast<std::int64_t>(event.at("tid").as_number());
      if (tid >= 1000) {
        continue;  // transfer tracks are not device busy time
      }
      span_seconds[tid] += event.at("dur").as_number() / 1e6;
    }
    for (hw::DeviceId d = 0; d < p.device_count(); ++d) {
      const double busy = rt.stats().devices[d].busy_seconds;
      // The trace round-trips timestamps through microseconds, so allow
      // only float noise proportional to the magnitude.
      EXPECT_NEAR(span_seconds[d], busy, 1e-9 * (1.0 + busy))
          << scheduler << " device " << p.device(d).name();
    }
  }
}

/// Every metrics counter that mirrors a RunStats field equals it —
/// bitwise for the second-valued ones — and the run-level attempt totals
/// are exactly the per-device sums.
void expect_counters_mirror_run_stats(const hw::Platform& platform,
                                      const core::Runtime& rt,
                                      const std::string& run) {
  const obs::MetricsRegistry& m = rt.recorder()->metrics();
  const core::RunStats& stats = rt.stats();
  std::uint64_t failed_attempts = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t blacklist_events = 0;
  for (const core::DeviceRunStats& d : stats.devices) {
    const std::string& device = platform.device(d.device).name();
    const obs::Labels labels = {{"device", device}};
    EXPECT_EQ(m.counter_value("busy_seconds", labels), d.busy_seconds)
        << run << " device " << device;
    EXPECT_EQ(m.counter_value("busy_energy_j", labels), d.busy_energy_j)
        << run << " device " << device;
    for (const auto& [name, value] :
         {std::pair{"tasks_completed", d.tasks_completed},
          std::pair{"failed_attempts", d.failed_attempts},
          std::pair{"timeouts", d.timeouts},
          std::pair{"blacklist_events", d.blacklist_events}}) {
      EXPECT_EQ(m.counter_value(name, labels), static_cast<double>(value))
          << run << " device " << device << " " << name;
    }
    failed_attempts += d.failed_attempts;
    timeouts += d.timeouts;
    blacklist_events += d.blacklist_events;
  }
  for (const auto& [name, value] :
       {std::pair{"node_failures", stats.node_failures},
        std::pair{"data_reseeded", stats.data_reseeded},
        std::pair{"tasks_resurrected", stats.tasks_resurrected},
        std::pair{"tasks_parked", stats.tasks_parked},
        std::pair{"tasks_lost", stats.tasks_lost}}) {
    EXPECT_EQ(m.counter_value(name, {}), static_cast<double>(value))
        << run << " " << name;
  }
  EXPECT_EQ(stats.failed_attempts, failed_attempts) << run;
  EXPECT_EQ(stats.timeouts, timeouts) << run;
  EXPECT_EQ(stats.blacklist_events, blacklist_events) << run;
}

TEST(ObsProperty, MetricsSnapshotReconcilesWithRunStats) {
  const hw::Platform p = hw::make_workstation();
  for (const char* scheduler : kSchedulers) {
    const std::unique_ptr<core::Runtime> run = make_run(p, scheduler);
    core::Runtime& rt = *run;
    const obs::MetricsRegistry& m = rt.recorder()->metrics();
    const core::RunStats& stats = rt.stats();

    expect_counters_mirror_run_stats(p, rt, scheduler);
    // No fault injection in this run: every task completes exactly once
    // and passes through the scheduler exactly once.
    EXPECT_EQ(m.counter_sum("tasks_completed"),
              static_cast<double>(stats.tasks_completed))
        << scheduler;
    EXPECT_EQ(m.counter_sum("failed_attempts"),
              static_cast<double>(stats.failed_attempts))
        << scheduler;
    EXPECT_EQ(m.counter_sum("bytes_transferred"),
              static_cast<double>(stats.transfers.bytes_moved))
        << scheduler;
    EXPECT_EQ(m.counter_sum("tasks_scheduled"),
              static_cast<double>(stats.tasks_completed))
        << scheduler;
  }

  // Timeouts, drops, blacklists and a node fault with resurrection,
  // reseeding and parking: every mirrored counter is exercised.
  const hw::Cluster cluster = hetflow::testing::fault_scenario_cluster();
  const std::unique_ptr<core::Runtime> faulty =
      hetflow::testing::run_cluster_faults(cluster);
  expect_counters_mirror_run_stats(cluster.platform(), *faulty,
                                   "cluster faults");
  EXPECT_EQ(faulty->recorder()->metrics().counter_sum("bytes_transferred"),
            static_cast<double>(faulty->stats().transfers.bytes_moved));
}

/// The LAST logged decision for each completed task names the device the
/// audit snapshot says it ran on (pull-mode policies log both the
/// enqueue-time and the hand-off decision).
void expect_last_decision_names_run_device(core::Runtime& rt,
                                           const std::string& label) {
  std::map<std::uint64_t, hw::DeviceId> logged;
  for (const obs::SchedDecision& d : rt.recorder()->decisions()) {
    logged[d.task] = d.winner;
  }
  ASSERT_FALSE(logged.empty()) << label;

  const check::AuditRecord audit = check::snapshot_audit(rt);
  std::size_t checked = 0;
  for (const check::TaskRecord& task : audit.run.tasks) {
    if (!task.completed) {
      continue;
    }
    const auto it = logged.find(task.id);
    ASSERT_NE(it, logged.end())
        << label << " never logged a decision for task " << task.id;
    EXPECT_EQ(static_cast<std::uint32_t>(it->second), task.device)
        << label << " decision log winner disagrees with the audit "
        << "for task " << task.id << " (" << task.name << ")";
    ++checked;
  }
  EXPECT_EQ(checked, rt.stats().tasks_completed) << label;
}

TEST(ObsProperty, LastDecisionWinnerIsTheDeviceTheTaskRanOn) {
  const hw::Platform p = hw::make_workstation();
  for (const char* scheduler : kSchedulers) {
    const std::unique_ptr<core::Runtime> run = make_run(p, scheduler);
    expect_last_decision_names_run_device(*run, scheduler);
  }

  // Under a 2-node cluster every inner policy sees its node's devices
  // numbered from 0; the log must still name flat platform ids, so tasks
  // placed on node 1 are checked against the devices they really ran on.
  const hw::Cluster cluster = hw::make_hpc_cluster(2, 4, 1);
  for (const char* scheduler : kSchedulers) {
    core::Runtime rt(cluster.platform(),
                     sched::make_cluster_scheduler(cluster, scheduler),
                     instrumented_options());
    workflow::submit_workflow_scattered(rt, workflow::make_montage(10),
                                        workflow::CodeletLibrary::standard(),
                                        testing::gateways(cluster));
    rt.wait_all();
    bool ran_on_node_1 = false;
    for (const hw::DeviceId device : cluster.devices_on(1)) {
      ran_on_node_1 |= rt.stats().devices[device].tasks_completed > 0;
    }
    ASSERT_TRUE(ran_on_node_1) << scheduler << " left cluster node 1 idle";
    expect_last_decision_names_run_device(
        rt, std::string("cluster:") + scheduler);
  }
}

TEST(ObsProperty, EveryDecisionRecordsFiniteCandidatePredictions) {
  const hw::Platform p = hw::make_workstation();
  for (const char* scheduler : kSchedulers) {
    const std::unique_ptr<core::Runtime> run = make_run(p, scheduler);
    core::Runtime& rt = *run;
    for (const obs::SchedDecision& d : rt.recorder()->decisions()) {
      EXPECT_FALSE(d.candidates.empty()) << scheduler;
      EXPECT_FALSE(d.reason.empty()) << scheduler;
      bool winner_is_candidate = false;
      for (const obs::DecisionCandidate& c : d.candidates) {
        EXPECT_TRUE(std::isfinite(c.predicted_finish_s)) << scheduler;
        if (c.device == d.winner) {
          winner_is_candidate = true;
        }
      }
      EXPECT_TRUE(winner_is_candidate)
          << scheduler << " chose a device it never scored (task " << d.task
          << ")";
    }
  }
}

}  // namespace
}  // namespace hetflow
