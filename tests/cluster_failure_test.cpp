// Whole-node fault domains: kill a cluster node mid-run and require the
// run to drain with zero lost tasks, an audit-clean directory, re-homed
// data, and no work dispatched to quarantined devices. Also pins the
// cluster-aware input staging (submit_workflow_scattered) that keeps a
// multi-node run from piling every staged file onto node 0.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "check/audit.hpp"
#include "check/cluster.hpp"
#include "check/invariants.hpp"
#include "cluster_fault_scenario.hpp"
#include "core/runtime.hpp"
#include "hw/cluster.hpp"
#include "obs/recorder.hpp"
#include "sched/cluster.hpp"
#include "trace/tracer.hpp"
#include "workflow/codelets.hpp"
#include "workflow/generators.hpp"
#include "workflow/workflow.hpp"

namespace hetflow {
namespace {

using hetflow::testing::gateways;
using hetflow::testing::make_fault;

/// Devices of `node` as a set for span filtering.
std::set<hw::DeviceId> device_set(const hw::Cluster& cluster,
                                  std::size_t node) {
  const std::vector<hw::DeviceId> ids = cluster.devices_on(node);
  return {ids.begin(), ids.end()};
}

void expect_audit_clean(const core::Runtime& runtime,
                        const hw::Cluster& cluster) {
  const check::CheckReport report = check::audit_run(runtime);
  EXPECT_TRUE(report.violations().empty()) << report.summary();
  const check::DirectoryRecord directory = check::snapshot_directory(
      cluster.platform(), runtime.data().registry(),
      runtime.data().directory());
  const std::vector<check::Violation> cluster_violations =
      check::check_cluster(check::snapshot_cluster(cluster), directory);
  EXPECT_TRUE(cluster_violations.empty());
}

void expect_all_completed(const core::Runtime& runtime,
                          const std::vector<core::TaskId>& ids) {
  for (core::TaskId id : ids) {
    EXPECT_EQ(runtime.task(id).state(), core::TaskState::Completed)
        << "task #" << id << " lost by the node failure";
  }
}

TEST(ClusterFailure, PermanentNodeLossLosesNoTasks) {
  const hw::Cluster cluster = hw::make_hpc_cluster(4, 4, 1);
  const double fault_at = 0.01;
  core::RuntimeOptions options;
  options.node_faults.push_back(make_fault(cluster, 0, fault_at));
  core::Runtime runtime(cluster.platform(),
                        sched::make_cluster_scheduler(cluster, "eager"),
                        options);
  const std::vector<core::TaskId> ids = workflow::submit_workflow_scattered(
      runtime, workflow::make_fork_join(16, 4, 0.5, 1),
      workflow::CodeletLibrary::standard(), gateways(cluster));
  runtime.wait_all();

  EXPECT_EQ(runtime.stats().node_failures, 1u);
  expect_all_completed(runtime, ids);
  expect_audit_clean(runtime, cluster);

  // A permanently failed node's devices never run anything again: every
  // successful span on them ended by the kill, and nothing starts after.
  const std::set<hw::DeviceId> dead = device_set(cluster, 0);
  for (const trace::Span& span : runtime.tracer().spans()) {
    if ((span.kind == trace::SpanKind::Exec ||
         span.kind == trace::SpanKind::FailedExec) &&
        dead.count(span.device) > 0) {
      EXPECT_LE(span.start, fault_at + 1e-9)
          << "quarantined device " << span.device << " received new work";
      if (span.kind == trace::SpanKind::Exec) {
        EXPECT_LE(span.end, fault_at + 1e-9)
            << "a successful span survived past the node kill";
      }
    }
  }
}

TEST(ClusterFailure, NodeLossResurrectsCompletedProducers) {
  const hw::Cluster cluster = hw::make_hpc_cluster(4, 4, 1);
  core::RuntimeOptions options;
  // By t=0.05 some stage-0 producers have completed with their outputs
  // resident only on node 0 — losing the node must re-run them.
  options.node_faults.push_back(make_fault(cluster, 0, 0.05));
  core::Runtime runtime(cluster.platform(),
                        sched::make_cluster_scheduler(cluster, "eager"),
                        options);
  const std::vector<core::TaskId> ids = workflow::submit_workflow_scattered(
      runtime, workflow::make_fork_join(16, 4, 0.5, 1),
      workflow::CodeletLibrary::standard(), gateways(cluster));
  runtime.wait_all();

  EXPECT_GE(runtime.stats().tasks_resurrected, 1u);
  expect_all_completed(runtime, ids);
  expect_audit_clean(runtime, cluster);
}

TEST(ClusterFailure, TransientNodeLossQuarantinesThenRejoins) {
  const hw::Cluster cluster = hw::make_hpc_cluster(4, 4, 1);
  const double fault_at = 0.01;
  const double recover = 0.05;
  core::RuntimeOptions options;
  options.node_faults.push_back(make_fault(cluster, 1, fault_at, recover));
  core::Runtime runtime(cluster.platform(),
                        sched::make_cluster_scheduler(cluster, "dmda"),
                        options);
  const std::vector<core::TaskId> ids = workflow::submit_workflow_scattered(
      runtime, workflow::make_random_layered(12, 6, 1.0, 1),
      workflow::CodeletLibrary::standard(), gateways(cluster));
  runtime.wait_all();

  EXPECT_EQ(runtime.stats().node_failures, 1u);
  expect_all_completed(runtime, ids);
  expect_audit_clean(runtime, cluster);

  // Nothing starts on the node inside its quarantine window.
  const std::set<hw::DeviceId> dead = device_set(cluster, 1);
  for (const trace::Span& span : runtime.tracer().spans()) {
    if ((span.kind == trace::SpanKind::Exec ||
         span.kind == trace::SpanKind::FailedExec) &&
        dead.count(span.device) > 0) {
      const bool inside_quarantine = span.start > fault_at + 1e-9 &&
                                     span.start < fault_at + recover - 1e-9;
      EXPECT_FALSE(inside_quarantine)
          << "device " << span.device << " ran at " << span.start
          << " inside the quarantine window";
    }
  }
}

TEST(ClusterFailure, LateFaultAfterDrainIsHarmless) {
  const hw::Cluster cluster = hw::make_hpc_cluster(2, 4, 1);
  core::RuntimeOptions options;
  // Far beyond the makespan: the fault event is cancelled at drain.
  options.node_faults.push_back(make_fault(cluster, 1, 1e9));
  core::Runtime runtime(cluster.platform(),
                        sched::make_cluster_scheduler(cluster, "eager"),
                        options);
  const std::vector<core::TaskId> ids = workflow::submit_workflow_scattered(
      runtime, workflow::make_fork_join(8, 2, 0.5, 1),
      workflow::CodeletLibrary::standard(), gateways(cluster));
  runtime.wait_all();
  EXPECT_EQ(runtime.stats().node_failures, 0u);
  expect_all_completed(runtime, ids);
}

// Regression: a node fault used to count a quarantine (and log a
// Blacklist event) for every device on the node, even one that was
// already quarantined — where DeviceHealth only extends the quarantine.
// RunStats::blacklist_events then exceeded the per-device sum.
TEST(ClusterFailure, NodeFaultDoesNotRecountQuarantinedDevice) {
  const hw::Cluster cluster = hw::make_hpc_cluster(2, 4, 1);
  const std::vector<hw::DeviceId> node1 = cluster.devices_on(1);
  const hw::DeviceId flaky = node1.front();
  const double fault_at = 0.03;
  core::RuntimeOptions options;
  options.metrics = true;
  // Every attempt on `flaky` dies at once: two failures trip the
  // blacklist, and the long probation keeps it quarantined when its node
  // dies.
  options.failure_model.set_device_rate(flaky, 1e6);
  options.failure_policy = core::FailurePolicy::Reschedule;
  options.retry.blacklist_after = 2;
  options.retry.probation_s = 100.0;
  options.node_faults.push_back(make_fault(cluster, 1, fault_at));
  core::Runtime runtime(cluster.platform(),
                        sched::make_cluster_scheduler(cluster, "eager"),
                        options);
  const std::vector<core::TaskId> ids = workflow::submit_workflow_scattered(
      runtime, workflow::make_fork_join(16, 4, 0.5, 1),
      workflow::CodeletLibrary::standard(), gateways(cluster));
  runtime.wait_all();
  expect_all_completed(runtime, ids);

  std::map<hw::DeviceId, std::vector<double>> blacklisted_at;
  for (const obs::Event& event : runtime.recorder()->events()) {
    if (event.kind == obs::EventKind::Blacklist) {
      blacklisted_at[static_cast<hw::DeviceId>(event.device)].push_back(
          event.time);
    }
  }
  // The scenario holds: `flaky` was quarantined before the fault (and
  // the long probation kept it so through the fault).
  ASSERT_FALSE(blacklisted_at[flaky].empty());
  ASSERT_LT(blacklisted_at[flaky].front(), fault_at);

  const core::RunStats& stats = runtime.stats();
  std::uint64_t per_device = 0;
  std::size_t events = 0;
  for (const core::DeviceRunStats& device : stats.devices) {
    per_device += device.blacklist_events;
    EXPECT_EQ(blacklisted_at[device.device].size(), device.blacklist_events)
        << "device " << device.device;
    events += blacklisted_at[device.device].size();
  }
  EXPECT_EQ(stats.blacklist_events, per_device);
  EXPECT_EQ(stats.blacklist_events, events);
  // The node's other devices entered quarantine with the node; `flaky`
  // was not counted again.
  EXPECT_EQ(stats.blacklist_events, node1.size());
}

TEST(ClusterFailure, StaticSchedulerRejectsNodeFaults) {
  const hw::Cluster cluster = hw::make_hpc_cluster(2, 4, 1);
  core::RuntimeOptions options;
  options.node_faults.push_back(make_fault(cluster, 0, 1.0));
  // heft plans the whole run up front and cannot re-plan around a node
  // loss; the runtime must refuse the combination loudly.
  EXPECT_THROW(core::Runtime(cluster.platform(),
                             sched::make_cluster_scheduler(cluster, "heft"),
                             options),
               InvalidArgument);
}

// Regression for the single-node staging assumption: submit_workflow
// homed every file on memory node 0, so cluster runs started with the
// whole input set behind one gateway. The scattered variant spreads
// files round-robin across the given homes.
TEST(ClusterFailure, ScatteredSubmitSpreadsInputHomes) {
  const hw::Cluster cluster = hw::make_hpc_cluster(4, 4, 1);
  const std::vector<hw::MemoryNodeId> homes = gateways(cluster);
  core::Runtime runtime(cluster.platform(),
                        sched::make_cluster_scheduler(cluster, "eager"));
  const workflow::Workflow wf = workflow::make_fork_join(16, 2, 0.5, 1);
  workflow::submit_workflow_scattered(runtime, wf,
                                      workflow::CodeletLibrary::standard(),
                                      homes);
  std::set<hw::MemoryNodeId> seen;
  const data::DataRegistry& registry = runtime.data().registry();
  for (std::size_t d = 0; d < registry.count(); ++d) {
    const hw::MemoryNodeId home =
        registry.handle(static_cast<data::DataId>(d)).home_node;
    EXPECT_NE(std::find(homes.begin(), homes.end(), home), homes.end())
        << "file homed off-gateway";
    seen.insert(home);
  }
  // Round-robin over 4 gateways with >= 4 files touches every gateway.
  EXPECT_EQ(seen.size(), homes.size());
}

}  // namespace
}  // namespace hetflow
