// The cost-model cache (core/cost_cache.hpp) is a performance feature
// with a correctness contract: with memoize_costs on, every scheduler
// must make the exact same decisions it would make recomputing costs
// from scratch — proven here by byte comparison of every serialized
// artifact. The memoized engine must also pass the full end-of-run audit
// under every scheduler and under cancel-heavy fault injection.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "helpers.hpp"
#include "hw/failure.hpp"
#include "hw/presets.hpp"
#include "obs/chrome_trace.hpp"
#include "sched/registry.hpp"
#include "trace/report.hpp"
#include "workflow/generators.hpp"
#include "workflow/workflow.hpp"

namespace hetflow {
namespace {

/// Every byte-stable artifact one instrumented run can serialize.
struct Artifacts {
  std::string spans_csv;
  std::string metrics_json;
  std::string metrics_csv;
  std::string chrome_trace;
  std::string decisions;

  bool operator==(const Artifacts& other) const {
    return spans_csv == other.spans_csv &&
           metrics_json == other.metrics_json &&
           metrics_csv == other.metrics_csv &&
           chrome_trace == other.chrome_trace &&
           decisions == other.decisions;
  }
};

Artifacts run_cell(const std::string& scheduler, bool memoize,
                   bool use_history, std::uint64_t seed) {
  const hw::Platform p = hw::make_workstation();
  core::RuntimeOptions options;
  options.metrics = true;
  options.seed = seed;
  // Noise makes every recorded duration differ from the estimate, so the
  // history model recalibrates continuously — the hardest case for the
  // cache's generation-based invalidation.
  options.noise_cv = 0.2;
  options.use_history_model = use_history;
  options.memoize_costs = memoize;
  core::Runtime rt(p, sched::make_scheduler(scheduler), options);
  workflow::submit_workflow(rt, workflow::make_montage(10),
                            workflow::CodeletLibrary::standard());
  rt.wait_all();
  Artifacts out;
  out.spans_csv = trace::spans_to_csv(rt.tracer());
  out.metrics_json = rt.recorder()->metrics().to_json_string();
  out.metrics_csv = rt.recorder()->metrics().to_csv();
  out.chrome_trace = obs::chrome_trace_json(rt.tracer(), p, rt.recorder());
  out.decisions = rt.recorder()->decisions_jsonl(p);
  return out;
}

// The tentpole property: for EVERY registered scheduler, a memoized run
// serializes byte-identically to a direct-recompute run — span CSV,
// metrics JSON/CSV, Chrome trace and decision log. Any drift (a cached
// reciprocal instead of the exact division, a stale history entry) shows
// up as a first-divergence in one of these strings.
TEST(CostMemoization, MemoizedMatchesDirectAcrossAllSchedulers) {
  for (const std::string& scheduler : sched::scheduler_names()) {
    const Artifacts direct = run_cell(scheduler, false, true, 7);
    const Artifacts memoized = run_cell(scheduler, true, true, 7);
    EXPECT_TRUE(memoized == direct) << scheduler;
    // Spans always exist; decision logs only for the policies that emit
    // them (the list schedulers decide at plan time, off the hot path).
    EXPECT_FALSE(direct.spans_csv.empty()) << scheduler;
  }
}

// Same property with the history model off: only the analytic path
// (peak_gflops * efficiency denominator, launch overhead, DVFS scaling)
// is exercised, so a regression localizes to the static terms.
TEST(CostMemoization, MemoizedMatchesDirectOnStaticModelOnly) {
  for (const std::string& scheduler :
       {std::string("mct"), std::string("dmda"), std::string("heft"),
        std::string("energy-edp")}) {
    const Artifacts direct = run_cell(scheduler, false, false, 11);
    const Artifacts memoized = run_cell(scheduler, true, false, 11);
    EXPECT_TRUE(memoized == direct) << scheduler;
  }
}

// History recalibration invalidates the cache mid-run: two runs of the
// same seeded workload must agree with themselves (repeatability) and
// with the direct path even as record() bumps the model generation after
// every completion. A stale cache would freeze estimates at the first
// generation and diverge from the direct run's decisions.
TEST(CostMemoization, HistoryRecalibrationInvalidatesBetweenDecisions) {
  const Artifacts first = run_cell("dmdas", true, true, 3);
  const Artifacts second = run_cell("dmdas", true, true, 3);
  EXPECT_TRUE(first == second);
  const Artifacts direct = run_cell("dmdas", false, true, 3);
  EXPECT_TRUE(first == direct);
}

// Fault injection stacks retries and blacklisting on top of the cache;
// the memoized and direct paths must keep agreeing byte-for-byte when
// estimates feed the retry/requeue machinery, not just the happy path.
TEST(CostMemoization, MemoizedMatchesDirectUnderFaultInjection) {
  const auto run = [](bool memoize) {
    const hw::Platform p = hw::make_workstation();
    core::RuntimeOptions options;
    options.metrics = true;
    options.seed = 13;
    options.noise_cv = 0.3;
    options.failure_model = hw::FailureModel::uniform(0.3);
    options.memoize_costs = memoize;
    core::Runtime rt(p, sched::make_scheduler("dmda"), options);
    workflow::submit_workflow(rt, workflow::make_montage(10),
                              workflow::CodeletLibrary::standard());
    rt.wait_all();
    Artifacts out;
    out.spans_csv = trace::spans_to_csv(rt.tracer());
    out.metrics_json = rt.recorder()->metrics().to_json_string();
    out.metrics_csv = rt.recorder()->metrics().to_csv();
    out.chrome_trace = obs::chrome_trace_json(rt.tracer(), p, rt.recorder());
    out.decisions = rt.recorder()->decisions_jsonl(p);
    return out;
  };
  EXPECT_TRUE(run(true) == run(false));
}

// Full audit with the recorder on: every scheduler finishes a generated
// workflow with memoize_costs and metrics on (which also takes the
// recorder-aware dispatch path instead of the fused pull), with the
// end-of-run validator (race detector, coherence and trace invariants)
// live.
TEST(EngineAudit, ValidateCleanSweepAcrossAllSchedulers) {
  for (const std::string& scheduler : sched::scheduler_names()) {
    const hw::Platform p = hw::make_workstation();
    core::RuntimeOptions options;
    options.seed = 5;
    options.noise_cv = 0.1;
    options.validate = true;
    options.metrics = true;
    options.memoize_costs = true;
    core::Runtime rt(p, sched::make_scheduler(scheduler), options);
    const workflow::Workflow wf = workflow::make_montage(10);
    workflow::submit_workflow(rt, wf, workflow::CodeletLibrary::standard());
    ASSERT_NO_THROW(rt.wait_all()) << scheduler;
    EXPECT_EQ(rt.stats().tasks_completed, wf.tasks().size()) << scheduler;
  }
}

// Cancel-heavy fault run: with a per-attempt timeout every dispatch arms
// a watchdog that the completion path cancels (one carcass per
// successful attempt, many at a timestamp shared with other
// completions), and the fail-silent hang fraction makes the race go the
// other way too — the watchdog fires and cancels the hung completion
// event. Blacklisting and rescheduling ride on top. The full audit
// (validate) plus exact completion counts prove no cancelled event
// delivered and no task was lost; a second identical run proves the path
// is self-reproducible.
TEST(EngineAudit, CancelHeavyFaultRunValidatesCleanAndReproduces) {
  const auto run = [] {
    const hw::Platform p = hw::make_workstation();
    core::RuntimeOptions options;
    options.metrics = true;
    options.validate = true;
    options.seed = 29;
    options.noise_cv = 0.3;
    options.failure_model = hw::FailureModel::uniform(10.0);
    options.failure_model.set_hang_fraction(0.3);
    options.failure_policy = core::FailurePolicy::Reschedule;
    options.retry.max_attempts = 500;
    options.retry.timeout_s = 5.0;  // generous: successes finish inside it
    options.retry.backoff_base_s = 0.01;
    options.retry.blacklist_after = 3;
    options.retry.probation_s = 1.0;
    options.memoize_costs = true;
    core::Runtime rt(p, sched::make_scheduler("dmda"), options);
    const workflow::Workflow wf = workflow::make_montage(10);
    workflow::submit_workflow(rt, wf, workflow::CodeletLibrary::standard());
    rt.wait_all();
    EXPECT_EQ(rt.stats().tasks_completed, wf.tasks().size());
    EXPECT_GT(rt.stats().timeouts, 0u);
    return trace::spans_to_csv(rt.tracer()) +
           rt.recorder()->metrics().to_json_string();
  };
  EXPECT_EQ(run(), run());
}

// Explicit invalidation hook: invalidate_cost_cache() mid-stream must be
// harmless when the platform is unchanged (the refilled cache holds the
// same values), proven by comparing against an uninterrupted run.
TEST(CostMemoization, ExplicitInvalidationIsTransparent) {
  const auto run = [](bool poke) {
    const hw::Platform p = hw::make_workstation();
    core::RuntimeOptions options;
    options.metrics = true;
    options.seed = 23;
    core::Runtime rt(p, sched::make_scheduler("mct"), options);
    const workflow::Workflow wf = workflow::make_montage(10);
    workflow::submit_workflow(rt, wf, workflow::CodeletLibrary::standard());
    if (poke) {
      rt.invalidate_cost_cache();
    }
    rt.wait_all();
    return trace::spans_to_csv(rt.tracer());
  };
  EXPECT_EQ(run(true), run(false));
}

// Blacklist transitions must invalidate the memo: quarantine
// (Healthy -> Blacklisted), probation expiry (Blacklisted -> Probation)
// and recovery (Probation -> Healthy) each drop the cache, so no
// estimate computed against the pre-transition health state can be
// served afterwards. The invalidation counter proves each transition
// fired the hook; the stats cross-check proves transitions happened.
TEST(CostMemoization, BlacklistTransitionsInvalidateCache) {
  const hw::Platform p = hw::make_workstation();
  core::RuntimeOptions options;
  options.seed = 9;
  options.failure_model.set_rate(hw::DeviceType::Gpu, 60.0);
  options.failure_policy = core::FailurePolicy::Reschedule;
  options.retry.max_attempts = 500;
  options.retry.blacklist_after = 2;
  options.retry.probation_s = 2.0;
  options.memoize_costs = true;
  core::Runtime rt(p, sched::make_scheduler("mct"), options);
  const std::uint64_t before = rt.cost_cache().invalidations();
  for (int i = 0; i < 40; ++i) {
    rt.submit("t" + std::to_string(i), hetflow::testing::cpu_gpu_codelet(),
              4e9, {});
  }
  rt.wait_all();
  ASSERT_GT(rt.stats().blacklist_events, 0u);
  // Every quarantine invalidates once, and its matching probation /
  // recovery transition invalidates again — strictly more invalidations
  // than blacklist events.
  EXPECT_GT(rt.cost_cache().invalidations(),
            before + rt.stats().blacklist_events);
}

// The regression the hook closes: a memoized blacklist-heavy run must
// stay byte-identical to the direct-recompute path through quarantine,
// probation and recovery — a stale memo surviving a health transition
// would diverge in the decision log or span stream.
TEST(CostMemoization, MemoizedMatchesDirectUnderBlacklisting) {
  const auto run = [](bool memoize) {
    const hw::Platform p = hw::make_workstation();
    core::RuntimeOptions options;
    options.metrics = true;
    options.seed = 19;
    options.noise_cv = 0.2;
    options.failure_model.set_rate(hw::DeviceType::Gpu, 60.0);
    options.failure_policy = core::FailurePolicy::Reschedule;
    options.retry.max_attempts = 500;
    options.retry.blacklist_after = 2;
    options.retry.probation_s = 2.0;
    options.use_history_model = true;
    options.memoize_costs = memoize;
    core::Runtime rt(p, sched::make_scheduler("dmda"), options);
    for (int i = 0; i < 40; ++i) {
      rt.submit("t" + std::to_string(i), hetflow::testing::cpu_gpu_codelet(),
                4e9, {});
    }
    rt.wait_all();
    Artifacts out;
    out.spans_csv = trace::spans_to_csv(rt.tracer());
    out.metrics_json = rt.recorder()->metrics().to_json_string();
    out.metrics_csv = rt.recorder()->metrics().to_csv();
    out.chrome_trace = obs::chrome_trace_json(rt.tracer(), p, rt.recorder());
    out.decisions = rt.recorder()->decisions_jsonl(p);
    return out;
  };
  EXPECT_TRUE(run(true) == run(false));
}

// Capacity hints are pure reservation: a run with
// expected_tasks/expected_data set (even wildly wrong in either
// direction) serializes byte-identically to a run with no hints.
TEST(CapacityHints, HintsNeverChangeResults) {
  const auto run = [](std::size_t tasks_hint, std::size_t data_hint) {
    const hw::Platform p = hw::make_workstation();
    core::RuntimeOptions options;
    options.metrics = true;
    options.seed = 51;
    options.noise_cv = 0.2;
    options.expected_tasks = tasks_hint;
    options.expected_data = data_hint;
    core::Runtime rt(p, sched::make_scheduler("dmda"), options);
    workflow::submit_workflow(rt, workflow::make_montage(12),
                              workflow::CodeletLibrary::standard());
    rt.wait_all();
    return trace::spans_to_csv(rt.tracer()) +
           rt.recorder()->metrics().to_json_string();
  };
  const std::string no_hints = run(0, 0);
  EXPECT_EQ(no_hints, run(10000, 10000));  // over-estimate
  EXPECT_EQ(no_hints, run(3, 2));          // under-estimate
}

}  // namespace
}  // namespace hetflow
