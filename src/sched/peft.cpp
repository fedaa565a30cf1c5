#include "sched/peft.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "perf/transfer_model.hpp"
#include "sched/graph_utils.hpp"

namespace hetflow::sched {

void PeftScheduler::prepare(const std::vector<core::Task*>& all_tasks) {
  plans_.clear();
  device_sequence_.assign(ctx().platform().device_count(), {});
  next_to_release_.assign(ctx().platform().device_count(), 0);
  ready_held_.clear();
  // Size the per-task maps up front: at 10^5+ planned tasks, letting the
  // hash tables rehash their way up dominates plan time.
  plans_.reserve(all_tasks.size());
  ready_held_.reserve(all_tasks.size());
  if (all_tasks.empty()) {
    return;
  }

  const hw::Platform& platform = ctx().platform();
  const std::size_t devices = platform.device_count();
  const TaskGraphView view = TaskGraphView::build(ctx(), all_tasks);
  const perf::TransferModel comm(platform);

  // Per-(task, device) execution estimates; infinity = unsupported.
  std::vector<std::vector<double>> exec(view.size(),
                                        std::vector<double>(devices));
  for (std::size_t i = 0; i < view.size(); ++i) {
    for (const hw::Device& device : platform.devices()) {
      exec[i][device.id()] =
          ctx().estimate_exec_seconds(*all_tasks[i], device);
    }
  }

  // Optimistic cost table, filled in reverse topological order.
  const std::vector<std::size_t> order = view.graph().topological_order();
  std::vector<std::vector<double>> oct(view.size(),
                                       std::vector<double>(devices, 0.0));
  // Mean comm time per edge t -> succ, looked up once per edge rather
  // than once per (edge, device).
  std::vector<double> succ_comm;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t t = *it;
    const std::vector<std::size_t>& succs = view.graph().successors(t);
    succ_comm.clear();
    for (std::size_t s : succs) {
      succ_comm.push_back(comm.mean_time_s(view.edge_bytes(t, s)));
    }
    for (std::size_t p = 0; p < devices; ++p) {
      double worst = 0.0;
      for (std::size_t k = 0; k < succs.size(); ++k) {
        const std::size_t s = succs[k];
        double best = std::numeric_limits<double>::infinity();
        for (std::size_t q = 0; q < devices; ++q) {
          if (!std::isfinite(exec[s][q])) {
            continue;
          }
          best = std::min(best, oct[s][q] + exec[s][q] +
                                    (q == p ? 0.0 : succ_comm[k]));
        }
        worst = std::max(worst, best);
      }
      oct[t][p] = worst;
    }
  }

  // Priority: mean OCT over devices that can run the task.
  std::vector<double> rank(view.size(), 0.0);
  for (std::size_t i = 0; i < view.size(); ++i) {
    double total = 0.0;
    std::size_t count = 0;
    for (std::size_t p = 0; p < devices; ++p) {
      if (std::isfinite(exec[i][p])) {
        total += oct[i][p];
        ++count;
      }
    }
    rank[i] = count > 0 ? total / static_cast<double>(count) : 0.0;
    all_tasks[i]->set_priority(rank[i]);
  }

  // Placement in topological order (priority fixes only tie-breaking
  // within a level; topology guarantees parents are placed first).
  InsertionTimeline timeline(devices);
  std::vector<double> finish(view.size(), 0.0);
  std::vector<hw::DeviceId> placed(view.size(), 0);
  DataReady data_ready(view, platform, finish, placed);
  for (std::size_t i : order) {
    data_ready.select(i);
    const hw::Device* best_device = nullptr;
    double best_score = std::numeric_limits<double>::infinity();
    double best_start = 0.0;
    double best_exec = 0.0;
    for (const hw::Device& device : platform.devices()) {
      if (!std::isfinite(exec[i][device.id()])) {
        continue;
      }
      const double start = timeline.earliest_fit(
          device.id(), data_ready.at(device), exec[i][device.id()]);
      const double eft = start + exec[i][device.id()];
      // PEFT's objective: finish time plus the optimistic remainder.
      const double score = eft + oct[i][device.id()];
      if (score < best_score) {
        best_score = score;
        best_device = &device;
        best_start = start;
        best_exec = exec[i][device.id()];
      }
    }
    HETFLOW_REQUIRE_MSG(best_device != nullptr, "peft: no eligible device");
    timeline.book(best_device->id(), best_start, best_exec);
    finish[i] = best_start + best_exec;
    placed[i] = best_device->id();
  }

  std::vector<std::vector<std::pair<double, std::size_t>>> per_device(
      devices);
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

void PeftScheduler::on_task_ready(core::Task& task) {
  const auto it = plans_.find(task.id());
  HETFLOW_REQUIRE_MSG(it != plans_.end(),
                      "peft: static scheduler cannot accept dynamically "
                      "submitted tasks (task ready without a plan)");
  ready_held_[task.id()] = true;
  release_available(it->second.device);
}

void PeftScheduler::release_available(hw::DeviceId device) {
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
