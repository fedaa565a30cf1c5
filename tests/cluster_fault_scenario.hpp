// A cluster run that drives every fault path of the runtime at once:
// fail-stop attempts, hung attempts cut short by the timeout watchdog,
// device blacklisting, an attempt budget that drops tasks, and one
// transient whole-node fault that resurrects completed producers,
// re-seeds staged inputs and parks consumers until their inputs are
// back. Shared by the golden suite (which pins its artifacts byte for
// byte) and the observability property suite (which reconciles its
// metrics snapshot with RunStats); the node-fault helpers also serve the
// cluster failure suite.
#pragma once

#include <memory>
#include <vector>

#include "core/runtime.hpp"
#include "hw/cluster.hpp"
#include "sched/cluster.hpp"
#include "workflow/generators.hpp"
#include "workflow/workflow.hpp"

namespace hetflow::testing {

/// Every device and memory node of cluster node `node`, failing at `at`
/// (negative `recover_after` = the node never comes back).
inline core::NodeFault make_fault(const hw::Cluster& cluster, std::size_t node,
                                  double at, double recover_after = -1.0) {
  core::NodeFault fault;
  fault.at = at;
  fault.devices = cluster.devices_on(node);
  const hw::ClusterNode& record = cluster.node(node);
  for (std::size_t m = 0; m < record.memory_count; ++m) {
    fault.memory_nodes.push_back(
        static_cast<hw::MemoryNodeId>(record.first_memory + m));
  }
  fault.recover_after = recover_after;
  return fault;
}

/// The cluster's gateway memory nodes: homes for scattered staged inputs.
inline std::vector<hw::MemoryNodeId> gateways(const hw::Cluster& cluster) {
  std::vector<hw::MemoryNodeId> homes;
  for (const hw::ClusterNode& node : cluster.nodes()) {
    homes.push_back(node.gateway);
  }
  return homes;
}

/// The cluster the fault scenario runs on: 2 nodes x (4 CPUs + 1 GPU).
inline hw::Cluster fault_scenario_cluster() {
  return hw::make_hpc_cluster(2, 4, 1);
}

/// Runs the fault scenario with metrics on; `cluster` must outlive the
/// returned runtime (it owns the platform). Seed 3 hits every path listed
/// above; the golden references pin that run.
inline std::unique_ptr<core::Runtime> run_cluster_faults(
    const hw::Cluster& cluster) {
  core::RuntimeOptions options;
  options.metrics = true;
  options.seed = 3;
  options.failure_model = hw::FailureModel::uniform(10.0);
  options.failure_model.set_hang_fraction(0.5);
  options.retry.timeout_s = 0.02;
  options.retry.max_attempts = 3;
  options.retry.on_exhausted = core::ExhaustionPolicy::Drop;
  options.retry.blacklist_after = 2;
  options.retry.probation_s = 0.005;
  options.node_faults.push_back(make_fault(cluster, 1, 0.01, 0.02));
  auto runtime = std::make_unique<core::Runtime>(
      cluster.platform(), sched::make_cluster_scheduler(cluster, "dmda"),
      options);
  workflow::submit_workflow_scattered(*runtime, workflow::make_montage(8),
                                      workflow::CodeletLibrary::standard(),
                                      gateways(cluster));
  runtime->wait_all();
  return runtime;
}

}  // namespace hetflow::testing
