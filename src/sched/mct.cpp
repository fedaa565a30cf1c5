#include <cmath>
#include "sched/mct.hpp"

#include <limits>

#include "obs/recorder.hpp"

namespace hetflow::sched {

void MctScheduler::on_task_ready(core::Task& task) {
  obs::Recorder* recorder = ctx().recorder();
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
      const double exec = ctx().estimate_exec_seconds(task, device);
      if (!std::isfinite(exec)) {
        continue;
      }
      // Completion without the data-movement term — deliberately blind.
      const double completion = ctx().device_available_at(device) + exec;
      if (recorder != nullptr) {
        candidates.push_back({device.id(), completion,
                              ctx().estimate_energy(task, device),
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
  HETFLOW_REQUIRE_MSG(best != nullptr, "mct: no eligible device");
  if (recorder != nullptr) {
    obs::SchedDecision decision;
    decision.task = task.id();
    decision.task_name = task.name();
    decision.time = ctx().now();
    decision.scheduler = name();
    decision.candidates = std::move(candidates);
    decision.winner = best->id();
    decision.reason = "min completion (data-blind)";
    ctx().record_decision(std::move(decision));
  }
  ctx().assign(task, *best);
}

}  // namespace hetflow::sched
