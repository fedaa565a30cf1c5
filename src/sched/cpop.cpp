#include "sched/cpop.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "sched/graph_utils.hpp"

namespace hetflow::sched {

void CpopScheduler::prepare(const std::vector<core::Task*>& all_tasks) {
  plans_.clear();
  device_sequence_.assign(ctx().platform().device_count(), {});
  next_to_release_.assign(ctx().platform().device_count(), 0);
  ready_held_.clear();
  // Size the per-task maps up front: at 10^5+ planned tasks, letting the
  // hash tables rehash their way up dominates plan time.
  plans_.reserve(all_tasks.size());
  ready_held_.reserve(all_tasks.size());
  cp_device_ = 0;
  cp_size_ = 0;
  if (all_tasks.empty()) {
    return;
  }

  const hw::Platform& platform = ctx().platform();
  const TaskGraphView view = TaskGraphView::build(ctx(), all_tasks);
  const std::vector<double> up = view.upward_ranks(platform);
  const std::vector<double> down = view.downward_ranks(platform);

  std::vector<double> priority(view.size());
  double cp_priority = 0.0;
  for (std::size_t i = 0; i < view.size(); ++i) {
    priority[i] = up[i] + down[i];
    all_tasks[i]->set_priority(priority[i]);
    cp_priority = std::max(cp_priority, priority[i]);
  }

  // Critical path: ONE source-to-sink path of maximum priority. Walking
  // greedily (highest-priority successor, smallest id on ties) rather
  // than taking every tied task matters for workflows with identical
  // parallel branches — pinning all tied branches to one device would
  // serialize the whole graph.
  std::vector<bool> on_cp(view.size(), false);
  {
    std::size_t entry = view.size();
    for (std::size_t i = 0; i < view.size(); ++i) {
      if (view.graph().in_degree(i) == 0 &&
          priority[i] >= cp_priority * (1.0 - 1e-9) &&
          (entry == view.size() ||
           all_tasks[i]->id() < all_tasks[entry]->id())) {
        entry = i;
      }
    }
    for (std::size_t node = entry; node != view.size();) {
      on_cp[node] = true;
      ++cp_size_;
      std::size_t next = view.size();
      for (std::size_t succ : view.graph().successors(node)) {
        if (next == view.size() || priority[succ] > priority[next] ||
            (priority[succ] == priority[next] &&
             all_tasks[succ]->id() < all_tasks[next]->id())) {
          next = succ;
        }
      }
      node = next;
    }
  }

  // Critical-path processor: device minimizing the summed execution time
  // of the CP tasks (must support all of them).
  double best_total = std::numeric_limits<double>::infinity();
  for (const hw::Device& device : platform.devices()) {
    double total = 0.0;
    bool feasible = true;
    for (std::size_t i = 0; i < view.size(); ++i) {
      if (!on_cp[i]) {
        continue;
      }
      const double est = ctx().estimate_exec_seconds(*all_tasks[i], device);
      if (!std::isfinite(est)) {
        feasible = false;
        break;
      }
      total += est;
    }
    if (feasible && total < best_total) {
      best_total = total;
      cp_device_ = device.id();
    }
  }
  if (!std::isfinite(best_total)) {
    // No single device runs the whole CP (mixed-support kinds): fall back
    // to per-task EFT for everyone.
    std::fill(on_cp.begin(), on_cp.end(), false);
    cp_size_ = 0;
  }

  // Priority-ordered placement with insertion EFT; CP tasks pinned.
  std::vector<std::size_t> order(view.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (priority[a] != priority[b]) {
      return priority[a] > priority[b];
    }
    return all_tasks[a]->id() < all_tasks[b]->id();
  });

  InsertionTimeline timeline(platform.device_count());
  std::vector<double> finish(view.size(), 0.0);
  std::vector<hw::DeviceId> placed(view.size(), 0);
  // Process in topological-compatible priority order: CPOP's priority is
  // monotone along edges (rank_u + rank_d decreases from parent to child
  // only when off the CP), so enforce topology explicitly.
  const std::vector<std::size_t> topo = view.graph().topological_order();
  DataReady data_ready(view, platform, finish, placed);
  // Merge: stable placement by topo order but CP pinning preserved.
  for (std::size_t i : topo) {
    core::Task& task = *all_tasks[i];
    data_ready.select(i);
    const hw::Device* chosen = nullptr;
    double chosen_start = 0.0;
    double chosen_exec = 0.0;
    if (on_cp[i]) {
      const hw::Device& device = platform.device(cp_device_);
      chosen = &device;
      chosen_exec = ctx().estimate_exec_seconds(task, device);
      chosen_start = timeline.earliest_fit(device.id(), data_ready.at(device),
                                           chosen_exec);
    } else {
      double best_eft = std::numeric_limits<double>::infinity();
      for (const hw::Device& device : platform.devices()) {
        const double exec = ctx().estimate_exec_seconds(task, device);
        if (!std::isfinite(exec)) {
          continue;
        }
        const double start =
            timeline.earliest_fit(device.id(), data_ready.at(device), exec);
        if (start + exec < best_eft) {
          best_eft = start + exec;
          chosen = &device;
          chosen_start = start;
          chosen_exec = exec;
        }
      }
    }
    HETFLOW_REQUIRE_MSG(chosen != nullptr, "cpop: no eligible device");
    timeline.book(chosen->id(), chosen_start, chosen_exec);
    finish[i] = chosen_start + chosen_exec;
    placed[i] = chosen->id();
  }

  // Per-device release order by planned finish time.
  std::vector<std::vector<std::pair<double, std::size_t>>> per_device(
      platform.device_count());
  for (std::size_t i = 0; i < view.size(); ++i) {
    per_device[placed[i]].push_back({finish[i], i});
  }
  for (hw::DeviceId d = 0; d < per_device.size(); ++d) {
    std::sort(per_device[d].begin(), per_device[d].end());
    for (const auto& [t, i] : per_device[d]) {
      plans_[all_tasks[i]->id()] = Plan{d};
      device_sequence_[d].push_back(all_tasks[i]);
    }
  }
}

void CpopScheduler::on_task_ready(core::Task& task) {
  const auto it = plans_.find(task.id());
  HETFLOW_REQUIRE_MSG(it != plans_.end(),
                      "cpop: static scheduler cannot accept dynamically "
                      "submitted tasks (task ready without a plan)");
  ready_held_[task.id()] = true;
  release_available(it->second.device);
}

void CpopScheduler::release_available(hw::DeviceId device) {
  std::size_t& cursor = next_to_release_[device];
  std::vector<core::Task*>& sequence = device_sequence_[device];
  while (cursor < sequence.size()) {
    core::Task* task = sequence[cursor];
    const auto held = ready_held_.find(task->id());
    if (held == ready_held_.end()) {
      break;  // next planned task not ready yet — preserve plan order
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
  // Partial-graph mode: see HeftScheduler::release_available — slice
  // plans can order cross-slice edges inconsistently, so ready tasks
  // may pass a blocked head instead of deadlocking the pair of plans.
  for (std::size_t j = cursor + 1; j < sequence.size(); ++j) {
    const auto held = ready_held_.find(sequence[j]->id());
    if (held != ready_held_.end() && held->second) {
      held->second = false;
      ctx().assign(*sequence[j], ctx().platform().device(device));
    }
  }
}

}  // namespace hetflow::sched
