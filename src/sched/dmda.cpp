#include <cmath>
#include "sched/dmda.hpp"

#include <limits>

#include "obs/recorder.hpp"

namespace hetflow::sched {

void DmdaScheduler::on_task_ready(core::Task& task) {
  obs::Recorder* recorder = ctx().recorder();
  const hw::Device* best = nullptr;
  double best_score = std::numeric_limits<double>::infinity();
  std::vector<obs::DecisionCandidate> candidates;
  constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
  // Quarantined devices are excluded outright (parking work on one
  // serializes behind its probation timer); if every capable device is
  // quarantined, fall back to considering them all.
  for (const bool skip_blacklisted : {true, false}) {
    candidates.clear();
    for (const hw::Device& device : ctx().platform().devices()) {
      if (skip_blacklisted && ctx().device_blacklisted(device)) {
        continue;
      }
      const double completion = ctx().estimate_completion(task, device);
      if (!std::isfinite(completion)) {
        continue;
      }
      if (recorder != nullptr) {
        candidates.push_back({device.id(), completion,
                              ctx().estimate_energy(task, device),
                              ctx().device_blacklisted(device)});
      }
      const double missing =
          static_cast<double>(ctx().missing_input_bytes(task, device));
      const double score = completion + locality_weight_ * missing / kGiB;
      if (score < best_score) {
        best_score = score;
        best = &device;
      }
    }
    if (best != nullptr) {
      break;
    }
  }
  HETFLOW_REQUIRE_MSG(best != nullptr, "dmda: no eligible device");
  if (recorder != nullptr) {
    obs::SchedDecision decision;
    decision.task = task.id();
    decision.task_name = task.name();
    decision.time = ctx().now();
    decision.scheduler = name();
    decision.candidates = std::move(candidates);
    decision.winner = best->id();
    decision.reason = "min completion + locality penalty";
    ctx().record_decision(std::move(decision));
  }
  ctx().assign(task, *best);
}

}  // namespace hetflow::sched
