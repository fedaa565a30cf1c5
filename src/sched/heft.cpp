#include <cmath>
#include "sched/heft.hpp"

#include <algorithm>
#include <limits>

#include "sched/graph_utils.hpp"

namespace hetflow::sched {

// Edge byte counts come from TaskGraphView::edge_bytes — the one
// implementation shared with CPOP/PEFT, so all three rank identical
// communication volumes (a private duplicate here once diverged on
// Redux-mode edges).

void HeftScheduler::prepare(const std::vector<core::Task*>& all_tasks) {
  plans_.clear();
  device_sequence_.assign(ctx().platform().device_count(), {});
  next_to_release_.assign(ctx().platform().device_count(), 0);
  ready_held_.clear();
  // Size the per-task maps up front: at 10^5+ planned tasks, letting the
  // hash tables rehash their way up dominates plan time.
  plans_.reserve(all_tasks.size());
  ready_held_.reserve(all_tasks.size());
  planned_makespan_ = 0.0;
  if (all_tasks.empty()) {
    return;
  }

  const hw::Platform& platform = ctx().platform();
  const TaskGraphView view = TaskGraphView::build(ctx(), all_tasks);
  const std::vector<double> ranks = view.upward_ranks(platform);

  std::vector<std::size_t> order(all_tasks.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (ranks[a] != ranks[b]) {
      return ranks[a] > ranks[b];
    }
    return all_tasks[a]->id() < all_tasks[b]->id();  // deterministic ties
  });

  // EFT placement with insertion.
  InsertionTimeline timeline(platform.device_count());
  std::vector<double> actual_finish(all_tasks.size(), 0.0);
  std::vector<hw::DeviceId> placed_on(all_tasks.size(), 0);
  DataReady data_ready(view, platform, actual_finish, placed_on);

  for (std::size_t i : order) {
    core::Task& task = *all_tasks[i];
    data_ready.select(i);
    double best_eft = std::numeric_limits<double>::infinity();
    double best_start = 0.0;
    const hw::Device* best_device = nullptr;
    for (const hw::Device& device : platform.devices()) {
      const double exec = ctx().estimate_exec_seconds(task, device);
      if (!std::isfinite(exec)) {
        continue;
      }
      const double start =
          timeline.earliest_fit(device.id(), data_ready.at(device), exec);
      if (start + exec < best_eft) {
        best_eft = start + exec;
        best_start = start;
        best_device = &device;
      }
    }
    HETFLOW_REQUIRE_MSG(best_device != nullptr, "heft: no eligible device");
    actual_finish[i] = best_eft;
    placed_on[i] = best_device->id();
    task.set_priority(ranks[i]);
    timeline.book(best_device->id(), best_start, best_eft - best_start);
    planned_makespan_ = std::max(planned_makespan_, best_eft);
  }

  // Fix the per-device execution order by planned finish time (per-device
  // slots do not overlap, so finish order equals start order).
  std::vector<std::vector<std::pair<double, std::size_t>>> per_device(
      platform.device_count());
  for (std::size_t i = 0; i < all_tasks.size(); ++i) {
    per_device[placed_on[i]].push_back({actual_finish[i], i});
  }
  for (hw::DeviceId d = 0; d < per_device.size(); ++d) {
    std::sort(per_device[d].begin(), per_device[d].end());
    for (const auto& [finish, i] : per_device[d]) {
      plans_[all_tasks[i]->id()] = Plan{d, device_sequence_[d].size()};
      device_sequence_[d].push_back(all_tasks[i]);
    }
  }
}

hw::DeviceId HeftScheduler::planned_device(core::TaskId id) const {
  const auto it = plans_.find(id);
  HETFLOW_REQUIRE_MSG(it != plans_.end(), "no plan for task");
  return it->second.device;
}

void HeftScheduler::on_task_ready(core::Task& task) {
  const auto it = plans_.find(task.id());
  HETFLOW_REQUIRE_MSG(it != plans_.end(),
                      "heft: static scheduler cannot accept dynamically "
                      "submitted tasks (task ready without a plan)");
  ready_held_[task.id()] = true;
  release_available(it->second.device);
}

void HeftScheduler::release_available(hw::DeviceId device) {
  std::size_t& cursor = next_to_release_[device];
  std::vector<core::Task*>& sequence = device_sequence_[device];
  while (cursor < sequence.size()) {
    core::Task* task = sequence[cursor];
    const auto held = ready_held_.find(task->id());
    if (held == ready_held_.end()) {
      break;  // next planned task not ready yet — preserve HEFT order
    }
    if (held->second) {
      held->second = false;
      ctx().assign(*task, ctx().platform().device(device));
    }
    ++cursor;  // just released, or released past a blocked head earlier
  }
  if (!partial_graph_ || cursor >= sequence.size()) {
    return;
  }
  // Partial-graph mode (a per-node slice of a cluster DAG): the blocked
  // head may wait on a cross-slice parent whose release is itself queued
  // behind one of OUR held tasks — two independently planned slices can
  // order a cross-slice edge inconsistently, so holding everything
  // behind the head deadlocks the pair of plans. Release ready tasks
  // past the head in plan order instead; the head keeps its slot for
  // when it becomes ready.
  for (std::size_t j = cursor + 1; j < sequence.size(); ++j) {
    const auto held = ready_held_.find(sequence[j]->id());
    if (held != ready_held_.end() && held->second) {
      held->second = false;
      ctx().assign(*sequence[j], ctx().platform().device(device));
    }
  }
}

}  // namespace hetflow::sched
