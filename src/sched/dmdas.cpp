#include "sched/dmdas.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/recorder.hpp"
#include "perf/energy_model.hpp"
#include "sched/graph_utils.hpp"

namespace hetflow::sched {

void DmdasScheduler::prepare(const std::vector<core::Task*>& all_tasks) {
  if (all_tasks.empty()) {
    return;
  }
  const TaskGraphView view = TaskGraphView::build(ctx(), all_tasks);
  const std::vector<double> ranks = view.upward_ranks(ctx().platform());
  for (std::size_t i = 0; i < all_tasks.size(); ++i) {
    all_tasks[i]->set_priority(ranks[i]);
  }
}

void DmdasScheduler::on_task_ready(core::Task& task) {
  held_.push(&task);
}

core::Task* DmdasScheduler::on_device_idle(const hw::Device& device) {
  (void)device;
  flush();
  return nullptr;
}

void DmdasScheduler::flush() {
  obs::Recorder* recorder = ctx().recorder();
  while (!held_.empty()) {
    core::Task* task = held_.top();
    held_.pop();
    const hw::Device* best = nullptr;
    double best_completion = std::numeric_limits<double>::infinity();
    std::vector<obs::DecisionCandidate> candidates;
    // Skip quarantined devices; if every capable device is quarantined,
    // fall back to considering them all.
    for (const bool skip_blacklisted : {true, false}) {
      candidates.clear();
      for (const hw::Device& device : ctx().platform().devices()) {
        if (skip_blacklisted && ctx().device_blacklisted(device)) {
          continue;
        }
        // One exec estimate per candidate, shared by the completion
        // score and the decision-log energy column — the per-push
        // estimate_completion + estimate_energy pair used to derive the
        // same exec twice. Reassembles SchedContext::estimate_completion
        // exactly: max(avail, data_ready) + exec.
        const double exec = ctx().estimate_exec_seconds(*task, device);
        if (!std::isfinite(exec)) {
          continue;
        }
        const sim::SimTime avail = ctx().device_available_at(device);
        const sim::SimTime data_ready =
            ctx().estimate_data_ready(*task, device, avail);
        const double completion = std::max(avail, data_ready) + exec;
        if (recorder != nullptr) {
          candidates.push_back(
              {device.id(), completion,
               perf::EnergyModel::task_energy_j(
                   device, device.nominal_dvfs_index(), exec),
               ctx().device_blacklisted(device)});
        }
        if (completion < best_completion) {
          best_completion = completion;
          best = &device;
        }
      }
      if (best != nullptr) {
        break;
      }
    }
    HETFLOW_REQUIRE_MSG(best != nullptr, "dmdas: no eligible device");
    if (recorder != nullptr) {
      obs::SchedDecision decision;
      decision.task = task->id();
      decision.task_name = task->name();
      decision.time = ctx().now();
      decision.scheduler = name();
      decision.candidates = std::move(candidates);
      decision.winner = best->id();
      decision.reason = "priority order, min completion";
      ctx().record_decision(std::move(decision));
    }
    ctx().assign(*task, *best);
  }
}

}  // namespace hetflow::sched
