// Host-time attribution for the benchmark's traced run.
//
// Region measures the wall time of the benchmark's timed region, which is
// a sum of intervals (resume() .. pause()) so that result collection and
// output checks between iterations stay out of it. When tracing is on it
// also splits that time across Slots: each Slot is one public boundary of
// a hetflow module (the Runtime constructor, submit_workflow, a scheduler
// callback, ServeEngine::run_batch, ...). Attribution is by self time —
// a span nested inside another (SchedContext::assign called from a
// scheduler callback called from Runtime::wait_all) is charged to the
// innermost open span only — so the slot totals plus Slot::Bench
// (time outside every span) telescope exactly to the timed region.
//
// TracingScheduler / TracingContext are forwarding decorators around a
// core::Scheduler and the core::SchedContext the runtime hands it. They
// open spans only at boundaries that fire a few times per task at most
// (prepare, on_task_ready, on_device_idle, on_task_complete,
// on_task_failed, assign; on_device_idle is the busiest, about 3 calls
// per task under heft) and merely count the per-candidate cost-estimate
// queries, which fire tens of times per task: a clock read per estimate
// would distort the very callback time it is meant to split.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/sched_context.hpp"
#include "core/scheduler.hpp"

namespace perfbench {

enum class Slot : std::uint8_t {
  Bench = 0,        ///< inside the timed region, outside every span
  CoreConstruct,    ///< make_scheduler + core::Runtime constructor
  CoreSubmit,       ///< submit_workflow / submit_cholesky_inplace
  CoreRun,          ///< Runtime::wait_all, minus the spans nested in it
  CoreAssign,       ///< SchedContext::assign (runtime code under a policy)
  CoreTeardown,     ///< ~Runtime
  SchedPrepare,     ///< Scheduler::prepare
  SchedCallback,    ///< on_task_ready / on_device_idle / on_task_complete /
                    ///< on_task_failed
  ServeConstruct,   ///< ServeEngine constructor
  ServeAddTenant,   ///< ServeEngine::add_tenant
  ServeSubmit,      ///< ServeEngine::submit
  ServeRunBatch,    ///< ServeEngine::run_batch
  ServeTeardown,    ///< ~ServeEngine
  kCount,
};

/// Metric name of a slot's self time ("core.submit_s", ...).
const char* slot_metric(Slot slot) noexcept;

class Region {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Region(bool traced) : traced_(traced) {}

  bool traced() const noexcept { return traced_; }

  /// Opens an interval of the timed region (charged to Slot::Bench).
  void resume();
  /// Closes the interval. Every span must be closed by then.
  void pause();

  /// Span boundaries (traced regions only; see Span below).
  void enter(Slot slot);
  void leave();

  /// Wall seconds of every closed interval.
  double timed_s() const noexcept { return timed_s_; }
  /// Self seconds charged to `slot` (all zero when untraced).
  double self_s(Slot slot) const noexcept {
    return self_s_[static_cast<std::size_t>(slot)];
  }
  /// Seconds inside `slot`'s spans, nested spans included.
  double inclusive_s(Slot slot) const noexcept {
    return inclusive_s_[static_cast<std::size_t>(slot)];
  }

 private:
  void charge(Clock::time_point now);

  bool traced_;
  bool open_ = false;
  Clock::time_point interval_start_{};
  Clock::time_point last_{};
  double timed_s_ = 0.0;
  std::array<double, static_cast<std::size_t>(Slot::kCount)> self_s_{};
  std::array<double, static_cast<std::size_t>(Slot::kCount)> inclusive_s_{};
  struct Open {
    Slot slot;
    Clock::time_point start;
  };
  std::vector<Open> stack_;
};

/// RAII span; a no-op when `region` is null or untraced.
class Span {
 public:
  Span(Region* region, Slot slot)
      : region_(region != nullptr && region->traced() ? region : nullptr) {
    if (region_ != nullptr) {
      region_->enter(slot);
    }
  }
  ~Span() {
    if (region_ != nullptr) {
      region_->leave();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Region* region_;
};

/// Call counts gathered by the decorators.
struct SchedCounters {
  std::uint64_t ready_calls = 0;
  std::uint64_t idle_calls = 0;
  std::uint64_t idle_hits = 0;  ///< on_device_idle calls that returned a task
  /// estimate_exec_seconds + estimate_completion + estimate_energy +
  /// estimate_data_ready + missing_input_bytes.
  std::uint64_t estimate_calls = 0;
  std::uint64_t assign_calls = 0;
};

/// Forwards every core::SchedContext virtual to `inner`, counting the
/// cost-estimate queries and timing assign().
class TracingContext final : public hetflow::core::SchedContext {
 public:
  TracingContext(hetflow::core::SchedContext& inner, Region* region,
                 SchedCounters& counters)
      : inner_(&inner), region_(region), counters_(&counters) {}

  const hetflow::hw::Platform& platform() const override;
  hetflow::sim::SimTime now() const override;
  const hetflow::data::DataRegistry& data_registry() const override;
  double estimate_exec_seconds(
      const hetflow::core::Task& task, const hetflow::hw::Device& device,
      std::optional<std::size_t> dvfs) const override;
  hetflow::sim::SimTime device_available_at(
      const hetflow::hw::Device& device) const override;
  hetflow::sim::SimTime estimate_data_ready(
      const hetflow::core::Task& task, const hetflow::hw::Device& device,
      hetflow::sim::SimTime earliest) const override;
  std::uint64_t missing_input_bytes(
      const hetflow::core::Task& task,
      const hetflow::hw::Device& device) const override;
  hetflow::sim::SimTime estimate_completion(
      const hetflow::core::Task& task, const hetflow::hw::Device& device,
      std::optional<std::size_t> dvfs) const override;
  double estimate_energy(const hetflow::core::Task& task,
                         const hetflow::hw::Device& device,
                         std::optional<std::size_t> dvfs) const override;
  bool device_blacklisted(const hetflow::hw::Device& device) const override;
  hetflow::obs::Recorder* recorder() const noexcept override;
  const hetflow::data::CoherenceDirectory* coherence()
      const noexcept override;
  std::size_t queue_length(const hetflow::hw::Device& device) const override;
  std::size_t busy_device_count() const override;
  void assign(hetflow::core::Task& task, const hetflow::hw::Device& device,
              std::optional<std::size_t> dvfs) override;

 private:
  hetflow::core::SchedContext* inner_;
  Region* region_;
  SchedCounters* counters_;
};

/// Forwards every core::Scheduler virtual to `inner`; at attach() it hands
/// the inner policy a TracingContext over the runtime's context.
class TracingScheduler final : public hetflow::core::Scheduler {
 public:
  TracingScheduler(std::unique_ptr<hetflow::core::Scheduler> inner,
                   Region* region, SchedCounters& counters)
      : inner_(std::move(inner)), region_(region), counters_(&counters) {}
  // The wrapped policy holds a reference to context_.
  TracingScheduler(const TracingScheduler&) = delete;
  TracingScheduler& operator=(const TracingScheduler&) = delete;

  std::string name() const override;
  bool requires_full_graph() const noexcept override;
  void set_partial_graph(bool partial) noexcept override;
  void attach(hetflow::core::SchedContext& ctx) override;
  void prepare(const std::vector<hetflow::core::Task*>& all_tasks) override;
  void on_task_ready(hetflow::core::Task& task) override;
  hetflow::core::Task* on_device_idle(
      const hetflow::hw::Device& device) override;
  bool has_retained_work() const noexcept override;
  void on_task_complete(const hetflow::core::Task& task) override;
  void on_task_failed(const hetflow::core::Task& task,
                      hetflow::hw::DeviceId device) override;

 private:
  std::unique_ptr<hetflow::core::Scheduler> inner_;
  Region* region_;
  SchedCounters* counters_;
  std::optional<TracingContext> context_;
};

}  // namespace perfbench
