// Checks the benchmark's tracing decorators are transparent:
//
//   1. TracingScheduler forwards every core::Scheduler virtual to the
//      wrapped policy, and the TracingContext it hands that policy
//      forwards every core::SchedContext virtual to the runtime's context,
//      returning the inner results unchanged;
//   2. on heft (static plan), dmdas (push) and eager (pull), a run through
//      the decorators reproduces the undecorated run bit for bit.
//
// Build with perfbench/CMakeLists.txt, then run perfbench_forwarding_test
// (or ctest in the build directory). Exits non-zero on the first failure.
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "hw/presets.hpp"
#include "layers.hpp"
#include "sched/registry.hpp"
#include "workflow/codelets.hpp"
#include "workflow/generators.hpp"
#include "workflow/linalg.hpp"
#include "workflow/workflow.hpp"

namespace {

using namespace hetflow;
using perfbench::Region;
using perfbench::SchedCounters;
using perfbench::TracingScheduler;

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

/// Runtime-side context stub: records each virtual called and returns a
/// distinct value from each, so a forwarder that drops or swaps a call
/// shows up.
class RecordingContext final : public core::SchedContext {
 public:
  explicit RecordingContext(const hw::Platform& platform)
      : platform_(&platform) {}

  RecordingContext(const RecordingContext&) = delete;
  RecordingContext& operator=(const RecordingContext&) = delete;

  /// Names of the virtuals called so far.
  mutable std::set<std::string> calls;

  const hw::Platform& platform() const override {
    note("platform");
    return *platform_;
  }
  sim::SimTime now() const override { return note("now"), 1.0; }
  const data::DataRegistry& data_registry() const override {
    note("data_registry");
    return registry_;
  }
  double estimate_exec_seconds(const core::Task&, const hw::Device&,
                               std::optional<std::size_t>) const override {
    return note("estimate_exec_seconds"), 2.0;
  }
  sim::SimTime device_available_at(const hw::Device&) const override {
    return note("device_available_at"), 3.0;
  }
  sim::SimTime estimate_data_ready(const core::Task&, const hw::Device&,
                                   sim::SimTime earliest) const override {
    return note("estimate_data_ready"), earliest + 4.0;
  }
  std::uint64_t missing_input_bytes(const core::Task&,
                                    const hw::Device&) const override {
    return note("missing_input_bytes"), 5;
  }
  sim::SimTime estimate_completion(const core::Task&, const hw::Device&,
                                   std::optional<std::size_t>) const override {
    return note("estimate_completion"), 6.0;
  }
  double estimate_energy(const core::Task&, const hw::Device&,
                         std::optional<std::size_t>) const override {
    return note("estimate_energy"), 7.0;
  }
  bool device_blacklisted(const hw::Device&) const override {
    return note("device_blacklisted"), true;
  }
  obs::Recorder* recorder() const noexcept override {
    note("recorder");
    return nullptr;
  }
  const data::CoherenceDirectory* coherence() const noexcept override {
    note("coherence");
    return nullptr;
  }
  std::size_t queue_length(const hw::Device&) const override {
    return note("queue_length"), 8;
  }
  std::size_t busy_device_count() const override {
    return note("busy_device_count"), 9;
  }
  void assign(core::Task&, const hw::Device&,
              std::optional<std::size_t>) override {
    note("assign");
  }

 private:
  void note(const char* name) const { calls.insert(name); }

  const hw::Platform* platform_;
  data::DataRegistry registry_;
};

/// Policy stub: records each virtual the decorator forwards to it.
class RecordingScheduler final : public core::Scheduler {
 public:
  explicit RecordingScheduler(std::set<std::string>& calls, core::Task& task)
      : calls_(&calls), task_(&task) {}

  std::string name() const override { return "recording"; }
  bool requires_full_graph() const noexcept override {
    calls_->insert("requires_full_graph");
    return true;
  }
  void set_partial_graph(bool partial) noexcept override {
    if (partial) {
      calls_->insert("set_partial_graph");
    }
  }
  void attach(core::SchedContext& ctx) override {
    core::Scheduler::attach(ctx);
    calls_->insert("attach");
  }
  void prepare(const std::vector<core::Task*>& tasks) override {
    if (tasks.size() == 1) {
      calls_->insert("prepare");
    }
  }
  void on_task_ready(core::Task&) override { calls_->insert("on_task_ready"); }
  core::Task* on_device_idle(const hw::Device&) override {
    calls_->insert("on_device_idle");
    return task_;
  }
  bool has_retained_work() const noexcept override {
    calls_->insert("has_retained_work");
    return false;
  }
  void on_task_complete(const core::Task&) override {
    calls_->insert("on_task_complete");
  }
  void on_task_failed(const core::Task&, hw::DeviceId device) override {
    if (device == 3) {
      calls_->insert("on_task_failed");
    }
  }

  /// The context the decorator handed over at attach().
  core::SchedContext& context() { return ctx(); }

 private:
  std::set<std::string>* calls_;
  core::Task* task_;
};

void test_forwarding() {
  const hw::Platform platform = hw::make_workstation();
  const hw::Device& device = platform.device(0);
  const core::CodeletPtr codelet =
      core::Codelet::make("k", {{hw::DeviceType::Cpu, 1.0}});
  core::Task task(0, "t", codelet, 1e9, {});

  std::set<std::string> sched_calls;
  auto inner = std::make_unique<RecordingScheduler>(sched_calls, task);
  RecordingScheduler* policy = inner.get();
  Region region(true);
  SchedCounters counters;
  TracingScheduler tracing(std::move(inner), &region, counters);
  RecordingContext runtime_ctx(platform);

  region.resume();
  CHECK(tracing.name() == "recording");
  CHECK(tracing.requires_full_graph());
  tracing.set_partial_graph(true);
  tracing.attach(runtime_ctx);
  tracing.prepare({&task});
  tracing.on_task_ready(task);
  CHECK(tracing.on_device_idle(device) == &task);
  CHECK(!tracing.has_retained_work());
  tracing.on_task_complete(task);
  tracing.on_task_failed(task, 3);
  const std::set<std::string> expected_sched = {
      "requires_full_graph", "set_partial_graph", "attach", "prepare",
      "on_task_ready", "on_device_idle", "has_retained_work",
      "on_task_complete", "on_task_failed"};
  CHECK(sched_calls == expected_sched);

  core::SchedContext& ctx = policy->context();
  CHECK(&ctx != &runtime_ctx);  // the policy sees the decorator's context
  CHECK(&ctx.platform() == &platform);
  CHECK(ctx.now() == 1.0);
  CHECK(&ctx.data_registry() == &runtime_ctx.data_registry());
  CHECK(ctx.estimate_exec_seconds(task, device) == 2.0);
  CHECK(ctx.device_available_at(device) == 3.0);
  CHECK(ctx.estimate_data_ready(task, device, 10.0) == 14.0);
  CHECK(ctx.missing_input_bytes(task, device) == 5);
  CHECK(ctx.estimate_completion(task, device) == 6.0);
  CHECK(ctx.estimate_energy(task, device) == 7.0);
  CHECK(ctx.device_blacklisted(device));
  CHECK(ctx.recorder() == nullptr);
  CHECK(ctx.coherence() == nullptr);
  CHECK(ctx.queue_length(device) == 8);
  CHECK(ctx.busy_device_count() == 9);
  ctx.assign(task, device);
  region.pause();
  const std::set<std::string> expected_ctx = {
      "platform", "now", "data_registry", "estimate_exec_seconds",
      "device_available_at", "estimate_data_ready", "missing_input_bytes",
      "estimate_completion", "estimate_energy", "device_blacklisted",
      "recorder", "coherence", "queue_length", "busy_device_count",
      "assign"};
  CHECK(runtime_ctx.calls == expected_ctx);

  CHECK(counters.ready_calls == 1);
  CHECK(counters.idle_calls == 1 && counters.idle_hits == 1);
  CHECK(counters.estimate_calls == 5);
  CHECK(counters.assign_calls == 1);
  double attributed = 0.0;
  for (std::size_t s = 0; s < static_cast<std::size_t>(perfbench::Slot::kCount);
       ++s) {
    attributed += region.self_s(static_cast<perfbench::Slot>(s));
  }
  CHECK(attributed > 0.0 && attributed <= region.timed_s() * (1 + 1e-12) &&
        attributed >= region.timed_s() * (1 - 1e-12));
}

/// Every simulated output of one run, for bitwise comparison.
std::vector<double> run(const std::string& scheduler, bool cholesky,
                        bool traced) {
  const hw::Platform platform = hw::make_hpc_node(16, 4);
  const workflow::CodeletLibrary library =
      workflow::CodeletLibrary::standard();
  Region region(traced);
  SchedCounters counters;
  std::unique_ptr<core::Scheduler> policy = sched::make_scheduler(scheduler, 7);
  if (traced) {
    policy = std::make_unique<TracingScheduler>(std::move(policy), &region,
                                                counters);
  }
  region.resume();
  core::Runtime rt(platform, std::move(policy));
  if (cholesky) {
    workflow::submit_cholesky_inplace(rt, 8, 2048, library);
  } else {
    workflow::submit_workflow(
        rt, workflow::make_random_layered(6, 40, 1.0, 7, 2e6), library);
  }
  rt.wait_all();
  region.pause();
  const core::RunStats& stats = rt.stats();
  std::vector<double> out = {
      stats.makespan_s,
      stats.total_energy_j(),
      static_cast<double>(stats.tasks_completed),
      static_cast<double>(stats.data.fetches),
      static_cast<double>(stats.data.evictions),
      static_cast<double>(stats.data.writebacks),
      static_cast<double>(stats.transfers.bytes_moved),
      static_cast<double>(rt.event_queue().executed()),
      static_cast<double>(rt.tracer().spans().size())};
  for (core::TaskId id = 0; id < rt.task_count(); ++id) {
    const core::Task& task = rt.task(id);
    out.push_back(static_cast<double>(task.device()));
    out.push_back(task.times().started);
    out.push_back(task.times().completed);
  }
  if (traced) {
    CHECK(counters.ready_calls == rt.task_count());
    CHECK(counters.assign_calls + counters.idle_hits == rt.task_count());
  }
  return out;
}

void test_fidelity() {
  for (const std::string scheduler : {"heft", "dmdas", "eager"}) {
    for (const bool cholesky : {true, false}) {
      const std::vector<double> plain = run(scheduler, cholesky, false);
      const std::vector<double> traced = run(scheduler, cholesky, true);
      bool same = plain.size() == traced.size();
      for (std::size_t i = 0; same && i < plain.size(); ++i) {
        same = std::bit_cast<std::uint64_t>(plain[i]) ==
               std::bit_cast<std::uint64_t>(traced[i]);
      }
      if (!same) {
        std::fprintf(stderr, "traced %s run (%s) differs from the plain one\n",
                     scheduler.c_str(), cholesky ? "cholesky" : "layered");
      }
      CHECK(same);
    }
  }
}

}  // namespace

int main() {
  test_forwarding();
  test_fidelity();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("perfbench_forwarding_test: all checks passed\n");
  return EXIT_SUCCESS;
}
