#include "layers.hpp"

#include <stdexcept>

namespace perfbench {

using hetflow::core::SchedContext;
using hetflow::core::Task;
using hetflow::hw::Device;
using hetflow::sim::SimTime;

const char* slot_metric(Slot slot) noexcept {
  switch (slot) {
    case Slot::Bench: return "bench.unattributed_s";
    case Slot::CoreConstruct: return "core.construct_s";
    case Slot::CoreSubmit: return "core.submit_s";
    case Slot::CoreRun: return "core.run_self_s";
    case Slot::CoreAssign: return "core.assign_s";
    case Slot::CoreTeardown: return "core.teardown_s";
    case Slot::SchedPrepare: return "sched.prepare_s";
    case Slot::SchedCallback: return "sched.callback_self_s";
    case Slot::ServeConstruct: return "serve.construct_s";
    case Slot::ServeAddTenant: return "serve.add_tenant_s";
    case Slot::ServeSubmit: return "serve.submit_s";
    case Slot::ServeRunBatch: return "serve.run_batch_s";
    case Slot::ServeTeardown: return "serve.teardown_s";
    case Slot::kCount: break;
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Region
// ---------------------------------------------------------------------------

void Region::resume() {
  if (open_) {
    throw std::logic_error("Region::resume on an open interval");
  }
  open_ = true;
  interval_start_ = Clock::now();
  last_ = interval_start_;
  stack_.assign(1, Open{Slot::Bench, interval_start_});
}

void Region::pause() {
  const Clock::time_point now = Clock::now();
  if (!open_ || stack_.size() != 1) {
    throw std::logic_error("Region::pause with a span still open");
  }
  charge(now);
  timed_s_ += std::chrono::duration<double>(now - interval_start_).count();
  open_ = false;
}

void Region::charge(Clock::time_point now) {
  self_s_[static_cast<std::size_t>(stack_.back().slot)] +=
      std::chrono::duration<double>(now - last_).count();
  last_ = now;
}

void Region::enter(Slot slot) {
  if (!open_) {
    throw std::logic_error("span opened outside the timed region");
  }
  const Clock::time_point now = Clock::now();
  charge(now);
  stack_.push_back(Open{slot, now});
}

void Region::leave() {
  const Clock::time_point now = Clock::now();
  charge(now);
  const Open& open = stack_.back();
  inclusive_s_[static_cast<std::size_t>(open.slot)] +=
      std::chrono::duration<double>(now - open.start).count();
  stack_.pop_back();
}

// ---------------------------------------------------------------------------
// TracingContext
// ---------------------------------------------------------------------------

const hetflow::hw::Platform& TracingContext::platform() const {
  return inner_->platform();
}
SimTime TracingContext::now() const { return inner_->now(); }
const hetflow::data::DataRegistry& TracingContext::data_registry() const {
  return inner_->data_registry();
}
double TracingContext::estimate_exec_seconds(
    const Task& task, const Device& device,
    std::optional<std::size_t> dvfs) const {
  ++counters_->estimate_calls;
  return inner_->estimate_exec_seconds(task, device, dvfs);
}
SimTime TracingContext::device_available_at(const Device& device) const {
  return inner_->device_available_at(device);
}
SimTime TracingContext::estimate_data_ready(const Task& task,
                                            const Device& device,
                                            SimTime earliest) const {
  ++counters_->estimate_calls;
  return inner_->estimate_data_ready(task, device, earliest);
}
std::uint64_t TracingContext::missing_input_bytes(const Task& task,
                                                  const Device& device) const {
  ++counters_->estimate_calls;
  return inner_->missing_input_bytes(task, device);
}
SimTime TracingContext::estimate_completion(
    const Task& task, const Device& device,
    std::optional<std::size_t> dvfs) const {
  ++counters_->estimate_calls;
  return inner_->estimate_completion(task, device, dvfs);
}
double TracingContext::estimate_energy(const Task& task, const Device& device,
                                       std::optional<std::size_t> dvfs) const {
  ++counters_->estimate_calls;
  return inner_->estimate_energy(task, device, dvfs);
}
bool TracingContext::device_blacklisted(const Device& device) const {
  return inner_->device_blacklisted(device);
}
hetflow::obs::Recorder* TracingContext::recorder() const noexcept {
  return inner_->recorder();
}
const hetflow::data::CoherenceDirectory* TracingContext::coherence()
    const noexcept {
  return inner_->coherence();
}
std::size_t TracingContext::queue_length(const Device& device) const {
  return inner_->queue_length(device);
}
std::size_t TracingContext::busy_device_count() const {
  return inner_->busy_device_count();
}
void TracingContext::assign(Task& task, const Device& device,
                            std::optional<std::size_t> dvfs) {
  ++counters_->assign_calls;
  Span span(region_, Slot::CoreAssign);
  inner_->assign(task, device, dvfs);
}

// ---------------------------------------------------------------------------
// TracingScheduler
// ---------------------------------------------------------------------------

std::string TracingScheduler::name() const { return inner_->name(); }
bool TracingScheduler::requires_full_graph() const noexcept {
  return inner_->requires_full_graph();
}
void TracingScheduler::set_partial_graph(bool partial) noexcept {
  inner_->set_partial_graph(partial);
}
void TracingScheduler::attach(SchedContext& ctx) {
  hetflow::core::Scheduler::attach(ctx);
  context_.emplace(ctx, region_, *counters_);
  inner_->attach(*context_);
}
void TracingScheduler::prepare(const std::vector<Task*>& all_tasks) {
  Span span(region_, Slot::SchedPrepare);
  inner_->prepare(all_tasks);
}
void TracingScheduler::on_task_ready(Task& task) {
  ++counters_->ready_calls;
  Span span(region_, Slot::SchedCallback);
  inner_->on_task_ready(task);
}
Task* TracingScheduler::on_device_idle(const Device& device) {
  ++counters_->idle_calls;
  Span span(region_, Slot::SchedCallback);
  Task* task = inner_->on_device_idle(device);
  if (task != nullptr) {
    ++counters_->idle_hits;
  }
  return task;
}
bool TracingScheduler::has_retained_work() const noexcept {
  return inner_->has_retained_work();
}
void TracingScheduler::on_task_complete(const Task& task) {
  Span span(region_, Slot::SchedCallback);
  inner_->on_task_complete(task);
}
void TracingScheduler::on_task_failed(const Task& task,
                                      hetflow::hw::DeviceId device) {
  Span span(region_, Slot::SchedCallback);
  inner_->on_task_failed(task, device);
}

}  // namespace perfbench
