#include "workloads.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "core/runtime.hpp"
#include "host_probe.hpp"
#include "hw/presets.hpp"
#include "layers.hpp"
#include "sched/registry.hpp"
#include "serve/engine.hpp"
#include "util/stats.hpp"
#include "workflow/codelets.hpp"
#include "workflow/generators.hpp"
#include "workflow/linalg.hpp"
#include "workflow/workflow.hpp"

namespace perfbench {
namespace {

using namespace hetflow;
using Clock = std::chrono::steady_clock;

/// Untraced runs set up this many times and report the median set-up time.
constexpr int kSetups = 3;
/// Traced runs time at least this many traced iterations (serve batch
/// percentiles need the samples), whatever --seconds says.
constexpr std::uint64_t kMinTracedIterations = 3;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Live heap in MiB: bytes in allocated chunks plus mmapped chunks. Unlike
/// RSS it does not count memory glibc retains after a free.
double live_heap_mb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Simulated outputs of one iteration, compared bit for bit between
/// iterations. Counts are stored as doubles (exact below 2^53).
class Outputs {
 public:
  void add(const char* name, double value) {
    values_.emplace_back(name, value);
  }

  double get(std::string_view name) const {
    for (const auto& [key, value] : values_) {
      if (name == key) {
        return value;
      }
    }
    throw std::logic_error("no output named " + std::string(name));
  }

  /// Appends one error per output that differs from `reference`.
  void compare(const Outputs& reference, const std::string& what,
               std::vector<std::string>& errors) const {
    if (values_.size() != reference.values_.size()) {
      errors.push_back(what + ": output count differs from the warm-up");
      return;
    }
    for (std::size_t i = 0; i < values_.size(); ++i) {
      const auto& [name, value] = values_[i];
      const double expected = reference.values_[i].second;
      if (std::bit_cast<std::uint64_t>(value) !=
          std::bit_cast<std::uint64_t>(expected)) {
        char message[160];
        std::snprintf(message, sizeof message,
                      ": %s = %.17g, warm-up gave %.17g", name, value,
                      expected);
        errors.push_back(what + message);
      }
    }
  }

 private:
  std::vector<std::pair<const char*, double>> values_;
};

/// Adds the p50 / p99 of the simulated job latencies (0 when empty).
void add_latency(Outputs& out, const util::Sample& latency) {
  out.add("job_latency_sim_p50_s",
          latency.empty() ? 0.0 : latency.quantile(0.5));
  out.add("job_latency_sim_p99_s",
          latency.empty() ? 0.0 : latency.quantile(0.99));
}

/// Host-side accumulators over a run's iterations.
struct Totals {
  std::uint64_t iterations = 0;
  double tasks = 0.0;    ///< simulated tasks completed
  double heap_mb = 0.0;  ///< peak live heap after wait_all / run_batch
  SchedCounters sched;
  std::vector<double> batch_ms;  ///< traced serve only: run_batch host ms
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One complete, fresh iteration timed on `region`.
  virtual Outputs run(Region& region, Totals& totals) = 0;
  /// Invariants one iteration's outputs must satisfy on their own.
  virtual void check(const Outputs& out, std::vector<std::string>& errors)
      const = 0;
  /// Seconds spent generating inputs during set-up.
  virtual double generate_s() const { return 0.0; }
};

// ---------------------------------------------------------------------------
// DAG workloads: one iteration = fresh Runtime, submit, wait_all, teardown.
// ---------------------------------------------------------------------------

class DagWorkload final : public Workload {
 public:
  using Submit = std::function<std::size_t(core::Runtime&)>;

  DagWorkload(std::string scheduler, std::uint64_t seed,
              std::size_t expected_tasks)
      : platform_(hw::make_hpc_node(16, 4)),
        library_(workflow::CodeletLibrary::standard()),
        scheduler_(std::move(scheduler)),
        seed_(seed),
        expected_tasks_(expected_tasks) {}

  void set_submit(Submit submit) { submit_ = std::move(submit); }
  void set_generate_s(double s) { generate_s_ = s; }
  double generate_s() const override { return generate_s_; }
  const workflow::CodeletLibrary& library() const { return library_; }

  Outputs run(Region& region, Totals& totals) override {
    core::RuntimeOptions options;
    options.seed = seed_;
    region.resume();
    std::optional<core::Runtime> rt;
    {
      Span span(&region, Slot::CoreConstruct);
      std::unique_ptr<core::Scheduler> scheduler =
          sched::make_scheduler(scheduler_, seed_);
      if (region.traced()) {
        scheduler = std::make_unique<TracingScheduler>(
            std::move(scheduler), &region, totals.sched);
      }
      rt.emplace(platform_, std::move(scheduler), options);
    }
    std::size_t submitted = 0;
    {
      Span span(&region, Slot::CoreSubmit);
      submitted = submit_(*rt);
    }
    {
      Span span(&region, Slot::CoreRun);
      rt->wait_all();
    }
    region.pause();
    totals.heap_mb = std::max(totals.heap_mb, live_heap_mb());
    Outputs out = collect(*rt, submitted);
    region.resume();
    {
      Span span(&region, Slot::CoreTeardown);
      rt.reset();
    }
    region.pause();
    ++totals.iterations;
    totals.tasks += out.get("tasks_completed");
    return out;
  }

  void check(const Outputs& out,
             std::vector<std::string>& errors) const override {
    const double expected = static_cast<double>(expected_tasks_);
    if (out.get("tasks_submitted") != expected ||
        out.get("tasks_completed") != expected ||
        out.get("tasks_in_completed_state") != expected) {
      errors.push_back("not every submitted task completed");
    }
    if (out.get("tasks_lost") != 0.0 || out.get("failed_attempts") != 0.0) {
      errors.push_back("tasks were lost or attempts failed");
    }
    const double makespan = out.get("makespan_sim_s");
    const double last = out.get("last_completion_sim_s");
    if (!(makespan > 0.0) || last > makespan) {
      errors.push_back("makespan does not cover the last task completion");
    }
    if (out.get("job_latency_sim_p99_s") > makespan ||
        out.get("job_latency_sim_p50_s") > out.get("job_latency_sim_p99_s")) {
      errors.push_back("task latency quantiles are inconsistent");
    }
  }

 private:
  static Outputs collect(const core::Runtime& rt, std::size_t submitted) {
    const core::RunStats& stats = rt.stats();
    util::Sample latency;
    double last_completion = 0.0;
    double in_completed_state = 0.0;
    for (core::TaskId id = 0; id < rt.task_count(); ++id) {
      const core::Task& task = rt.task(id);
      if (task.state() == core::TaskState::Completed) {
        in_completed_state += 1.0;
      }
      latency.add(task.times().completed - task.times().submitted);
      last_completion = std::max(last_completion, task.times().completed);
    }
    Outputs out;
    out.add("makespan_sim_s", stats.makespan_s);
    out.add("energy_sim_j", stats.total_energy_j());
    add_latency(out, latency);
    out.add("last_completion_sim_s", last_completion);
    out.add("tasks_submitted", static_cast<double>(submitted));
    out.add("tasks_completed", static_cast<double>(stats.tasks_completed));
    out.add("tasks_in_completed_state", in_completed_state);
    out.add("tasks_lost", static_cast<double>(stats.tasks_lost));
    out.add("failed_attempts", static_cast<double>(stats.failed_attempts));
    out.add("data.fetches", static_cast<double>(stats.data.fetches));
    out.add("data.prefetches", static_cast<double>(stats.data.prefetches));
    out.add("data.evictions", static_cast<double>(stats.data.evictions));
    out.add("data.writebacks", static_cast<double>(stats.data.writebacks));
    out.add("data.bytes_moved",
            static_cast<double>(stats.transfers.bytes_moved));
    out.add("sim.events_executed",
            static_cast<double>(rt.event_queue().executed()));
    out.add("sim.peak_pending",
            static_cast<double>(rt.event_queue().peak_pending()));
    out.add("trace.spans", static_cast<double>(rt.tracer().spans().size()));
    out.add("hw.device_util_mean", stats.mean_utilization());
    return out;
  }

  hw::Platform platform_;
  workflow::CodeletLibrary library_;
  std::string scheduler_;
  std::uint64_t seed_;
  std::size_t expected_tasks_;
  Submit submit_;
  double generate_s_ = 0.0;
};

std::unique_ptr<Workload> make_heft_layered(std::uint64_t seed) {
  constexpr std::size_t kLayers = 30;
  constexpr std::size_t kWidth = 1000;
  auto dag = std::make_unique<DagWorkload>("heft", seed, kLayers * kWidth);
  const Clock::time_point start = Clock::now();
  auto wf = std::make_shared<const workflow::Workflow>(
      workflow::make_random_layered(kLayers, kWidth, 1.0, seed, 2e6));
  dag->set_generate_s(seconds_since(start));
  const workflow::CodeletLibrary* library = &dag->library();
  dag->set_submit([wf, library](core::Runtime& rt) {
    return workflow::submit_workflow(rt, *wf, *library).size();
  });
  return dag;
}

std::unique_ptr<Workload> make_cholesky_dmdas(std::uint64_t seed) {
  constexpr std::size_t kTiles = 64;
  constexpr std::size_t kTileN = 2048;
  auto dag = std::make_unique<DagWorkload>(
      "dmdas", seed, workflow::cholesky_task_count(kTiles));
  const workflow::CodeletLibrary* library = &dag->library();
  dag->set_submit([library](core::Runtime& rt) {
    return workflow::submit_cholesky_inplace(rt, kTiles, kTileN, *library);
  });
  return dag;
}

// ---------------------------------------------------------------------------
// serve-100k: one iteration = one ServeEngine session of kRounds closed-loop
// rounds over kTenants tenants.
// ---------------------------------------------------------------------------

class ServeWorkload final : public Workload {
 public:
  static constexpr std::size_t kTenants = 100000;
  static constexpr std::size_t kRounds = 3;

  explicit ServeWorkload(std::uint64_t seed)
      : platform_(hw::make_hpc_node(16, 4)) {
    config_.seed = seed;
    config_.batch_limit = 4096;
    config_.backlog_cap = 4;
    config_.max_in_flight = 2;
    config_.admission.max_pending = 50000;
    config_.admission.defer_cap = 12500;
    config_.admission.policy = serve::BackpressurePolicy::Defer;
    job_.shape = serve::JobShape::Chain;
    job_.tasks = 2;
    job_.flops = 5e8;
    job_.bytes = 1 << 16;
  }

  Outputs run(Region& region, Totals& totals) override {
    region.resume();
    std::optional<serve::ServeEngine> engine;
    {
      Span span(&region, Slot::ServeConstruct);
      engine.emplace(platform_, config_);
    }
    {
      Span span(&region, Slot::ServeAddTenant);
      for (std::size_t i = 0; i < kTenants; ++i) {
        serve::TenantSpec spec;
        spec.weight = 1.0 + static_cast<double>(i % 3);
        engine->add_tenant(std::move(spec));
      }
    }
    std::size_t peak_pending = 0;
    double max_batch_makespan = 0.0;
    double released = 0.0;
    bool wedged = false;
    for (std::size_t round = 0; round < kRounds; ++round) {
      {
        Span span(&region, Slot::ServeSubmit);
        for (std::size_t i = 0; i < kTenants; ++i) {
          engine->submit(static_cast<serve::TenantId>(i), job_);
          peak_pending = std::max(peak_pending, engine->total_pending());
        }
      }
      while (engine->total_pending() > 0 && !wedged) {
        const double before = region.self_s(Slot::ServeRunBatch);
        serve::BatchResult batch;
        {
          Span span(&region, Slot::ServeRunBatch);
          batch = engine->run_batch();
        }
        region.pause();
        if (region.traced()) {
          totals.batch_ms.push_back(
              (region.self_s(Slot::ServeRunBatch) - before) * 1e3);
        }
        totals.heap_mb = std::max(totals.heap_mb, live_heap_mb());
        region.resume();
        max_batch_makespan = std::max(max_batch_makespan, batch.makespan_s);
        released += static_cast<double>(batch.released);
        wedged = batch.released == 0;
      }
    }
    region.pause();
    Outputs out = collect(*engine, peak_pending, max_batch_makespan,
                          released, wedged);
    region.resume();
    {
      Span span(&region, Slot::ServeTeardown);
      engine.reset();
    }
    region.pause();
    ++totals.iterations;
    totals.tasks += out.get("tasks_completed");
    return out;
  }

  void check(const Outputs& out,
             std::vector<std::string>& errors) const override {
    if (out.get("wedged") != 0.0 || out.get("pending_after_drain") != 0.0) {
      errors.push_back("serve session did not drain");
    }
    if (out.get("completed") != out.get("admitted") ||
        !(out.get("completed") > 0.0)) {
      errors.push_back("serve completed != admitted");
    }
    if (out.get("tasks_completed") !=
        out.get("completed") * static_cast<double>(job_.tasks)) {
      errors.push_back("serve task count does not match completed jobs");
    }
    if (out.get("submitted") != out.get("offered")) {
      errors.push_back("serve lost submissions");
    }
    const double pending_bound = static_cast<double>(
        config_.admission.max_pending + config_.admission.defer_cap);
    if (out.get("peak_pending") > pending_bound) {
      errors.push_back("serve peak pending exceeds max_pending + defer_cap");
    }
    // Structural wait bound in batches (as in bench/bench_serve_load.cpp):
    // a job is behind at most pending_bound others, released batch_limit
    // at a time, plus its tenant's own backlog, plus admission and
    // completion batches.
    const double wait_batches =
        pending_bound / static_cast<double>(config_.batch_limit) +
        static_cast<double>(config_.backlog_cap) /
            static_cast<double>(config_.max_in_flight) +
        2.0;
    if (out.get("job_latency_sim_p99_s") >
        wait_batches * out.get("max_batch_makespan_sim_s")) {
      errors.push_back("serve p99 latency exceeds the structural bound");
    }
  }

 private:
  static Outputs collect(const serve::ServeEngine& engine,
                         std::size_t peak_pending, double max_batch_makespan,
                         double released, bool wedged) {
    double submitted = 0, admitted = 0, deferred = 0, rejected = 0;
    double completed = 0, tasks_completed = 0;
    util::Sample latency;
    for (serve::TenantId t = 0; t < engine.tenant_count(); ++t) {
      const serve::TenantStats& stats = engine.stats(t);
      submitted += static_cast<double>(stats.submitted);
      admitted += static_cast<double>(stats.admitted);
      deferred += static_cast<double>(stats.deferred);
      rejected += static_cast<double>(stats.rejected);
      completed += static_cast<double>(stats.completed);
      tasks_completed += static_cast<double>(stats.tasks_completed);
      for (double x : stats.latency.values()) {
        latency.add(x);
      }
    }
    Outputs out;
    out.add("makespan_sim_s", engine.clock());
    add_latency(out, latency);
    out.add("latency_samples", static_cast<double>(latency.count()));
    out.add("offered", static_cast<double>(kTenants * kRounds));
    out.add("submitted", submitted);
    out.add("admitted", admitted);
    out.add("deferred", deferred);
    out.add("rejected", rejected);
    out.add("completed", completed);
    out.add("tasks_completed", tasks_completed);
    out.add("batches", static_cast<double>(engine.batches_run()));
    out.add("released", released);
    out.add("peak_pending", static_cast<double>(peak_pending));
    out.add("pending_after_drain", static_cast<double>(engine.total_pending()));
    out.add("max_batch_makespan_sim_s", max_batch_makespan);
    out.add("wedged", wedged ? 1.0 : 0.0);
    return out;
  }

  hw::Platform platform_;
  serve::ServeConfig config_;
  serve::JobSpec job_;
};

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

bool is_serve(const std::string& workload) { return workload == "serve-100k"; }

double completed_share(const std::string& workload, const Outputs& ref) {
  return is_serve(workload)
             ? ref.get("completed") / ref.get("offered")
             : ref.get("tasks_completed") / ref.get("tasks_submitted");
}

/// `speed` is the host-speed factor: HostProbe::kReferenceSeconds over the
/// run's mean probe time. A wall second on a host running `speed` times
/// the reference speed counts as `speed` reference seconds.
std::vector<Metric> end_to_end(const std::string& workload,
                               const Region& region, const Totals& totals,
                               double setup_s, double speed,
                               const Outputs& ref) {
  return {
      {"tasks_per_s", totals.tasks / (region.timed_s() * speed), "tasks/s"},
      {"setup_s", setup_s * speed, "s"},
      {"heap_mb", totals.heap_mb, "MiB"},
      {"makespan_sim_s", ref.get("makespan_sim_s"), "sim_s"},
      {"job_latency_sim_p50_s", ref.get("job_latency_sim_p50_s"), "sim_s"},
      {"job_latency_sim_p99_s", ref.get("job_latency_sim_p99_s"), "sim_s"},
      {"completed_share", completed_share(workload, ref), "ratio"},
  };
}

/// The highest batch percentile reported; a traced serve run records at
/// least kMinTracedIterations x 48 batches, so at least 14 lie beyond it.
constexpr double kBatchTailQuantile = 0.90;

std::vector<Metric> per_layer(const std::string& workload,
                              const Region& traced, const Totals& t,
                              const Region& plain, const Totals& p,
                              double generate_s, double probe_s,
                              const Outputs& ref,
                              std::vector<std::string>& errors) {
  const bool serve = is_serve(workload);
  const double n = static_cast<double>(t.iterations);
  const auto dag = [&](const char* name) {
    return serve ? 0.0 : ref.get(name);
  };
  const auto srv = [&](const char* name) {
    return serve ? ref.get(name) : 0.0;
  };
  const auto per_iteration = [n](std::uint64_t count) {
    return static_cast<double>(count) / n;
  };
  const double tasks = ref.get("tasks_completed");
  const double timed = traced.timed_s() / n;
  const double plain_timed =
      plain.timed_s() / static_cast<double>(p.iterations);

  std::vector<Metric> m;
  double attributed = 0.0;
  for (std::size_t s = 0; s < static_cast<std::size_t>(Slot::kCount); ++s) {
    const double self = traced.self_s(static_cast<Slot>(s)) / n;
    attributed += self;
    m.push_back({slot_metric(static_cast<Slot>(s)), self, "s"});
  }
  if (std::abs(attributed - timed) > 1e-9 * std::max(1.0, timed)) {
    errors.push_back("layer self times do not sum to the timed region");
  }
  m.push_back({"bench.timed_s", timed, "s"});
  m.push_back({"bench.iterations", n, "count"});
  m.push_back({"bench.trace_overhead", timed / plain_timed - 1.0, "ratio"});
  m.push_back({"host.peak_rss_mb", peak_rss_mb(), "MiB"});
  m.push_back({"host.probe_ms", probe_s * 1e3, "ms"});
  m.push_back({"workflow.generate_s", generate_s, "s"});
  m.push_back({"core.wait_all_s", traced.inclusive_s(Slot::CoreRun) / n, "s"});
  m.push_back({"core.assign_calls", per_iteration(t.sched.assign_calls),
               "count"});
  m.push_back({"sched.ready_calls", per_iteration(t.sched.ready_calls),
               "count"});
  m.push_back({"sched.idle_calls", per_iteration(t.sched.idle_calls),
               "count"});
  m.push_back({"sched.idle_hit_ratio",
               t.sched.idle_calls == 0 ? 0.0
                   : static_cast<double>(t.sched.idle_hits) /
                         static_cast<double>(t.sched.idle_calls),
               "ratio"});
  m.push_back({"sched.estimate_calls", per_iteration(t.sched.estimate_calls),
               "count"});
  m.push_back({"sched.estimates_per_task",
               serve ? 0.0 : per_iteration(t.sched.estimate_calls) / tasks,
               "1/task"});
  m.push_back({"data.fetches", dag("data.fetches"), "count"});
  m.push_back({"data.prefetches", dag("data.prefetches"), "count"});
  m.push_back({"data.evictions", dag("data.evictions"), "count"});
  m.push_back({"data.writebacks", dag("data.writebacks"), "count"});
  m.push_back({"data.bytes_moved_gb", dag("data.bytes_moved") / 1e9, "GB"});
  m.push_back({"data.evictions_per_fetch",
               serve || dag("data.fetches") == 0.0 ? 0.0
                   : dag("data.evictions") / dag("data.fetches"),
               "ratio"});
  m.push_back({"sim.events_executed", dag("sim.events_executed"), "count"});
  m.push_back({"sim.events_per_task",
               serve ? 0.0 : dag("sim.events_executed") / tasks, "1/task"});
  m.push_back({"sim.peak_pending", dag("sim.peak_pending"), "count"});
  m.push_back({"hw.device_util_mean", dag("hw.device_util_mean"), "ratio"});
  m.push_back({"hw.energy_sim_j", dag("energy_sim_j"), "J"});
  m.push_back({"trace.spans", dag("trace.spans"), "count"});

  double batch_p50 = 0.0;
  double batch_tail = 0.0;
  if (!t.batch_ms.empty()) {
    util::Sample batches;
    for (double x : t.batch_ms) {
      batches.add(x);
    }
    batch_p50 = batches.quantile(0.5);
    batch_tail = batches.quantile(kBatchTailQuantile);
  }
  m.push_back({"serve.batch_host_ms_p50", batch_p50, "ms"});
  m.push_back({"serve.batch_host_ms_p90", batch_tail, "ms"});
  m.push_back({"serve.batch_samples", static_cast<double>(t.batch_ms.size()),
               "count"});
  m.push_back({"serve.admitted", srv("admitted"), "count"});
  m.push_back({"serve.deferred", srv("deferred"), "count"});
  m.push_back({"serve.rejected", srv("rejected"), "count"});
  m.push_back({"serve.peak_pending", srv("peak_pending"), "count"});
  m.push_back({"serve.jobs_per_batch",
               serve ? srv("released") / srv("batches") : 0.0, "jobs/batch"});
  return m;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "heft-layered") {
    return make_heft_layered(seed);
  }
  if (name == "cholesky-dmdas") {
    return make_cholesky_dmdas(seed);
  }
  if (name == "serve-100k") {
    return std::make_unique<ServeWorkload>(seed);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"heft-layered",
                                                 "cholesky-dmdas",
                                                 "serve-100k"};
  return names;
}

RunResult run_workload(const RunConfig& config) {
  RunResult result;
  std::vector<std::string>& errors = result.errors;

  // The host probe runs after every warm-up and every timed iteration,
  // outside both the set-up time and the timed region.
  HostProbe probe;
  double probe_s = 0.0;
  int probes = 0;
  const auto run_probe = [&] {
    probe_s += probe.run();
    ++probes;
  };

  // Set-up: inputs, platform and one untimed warm-up iteration whose
  // outputs are the reference every later iteration must reproduce.
  const int setups = config.trace ? 1 : kSetups;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  std::optional<Outputs> reference;
  for (int i = 0; i < setups; ++i) {
    workload.reset();
    const Clock::time_point start = Clock::now();
    workload = make_workload(config.workload, config.seed);
    Region warmup(false);
    Totals discard;
    Outputs out = workload->run(warmup, discard);
    setup_s.push_back(seconds_since(start));
    run_probe();
    workload->check(out, errors);
    if (reference) {
      out.compare(*reference, "set-up " + std::to_string(i), errors);
    } else {
      reference = std::move(out);
    }
  }

  // Timed iterations. Traced runs alternate traced and untraced
  // iterations, so drift in host speed hits both alike and their ratio
  // gives the tracing overhead.
  Region traced(true);
  Region plain(false);
  Totals traced_totals;
  Totals plain_totals;
  const Clock::time_point loop_start = Clock::now();
  for (std::uint64_t i = 0;; ++i) {
    const bool trace_this = config.trace && i % 2 == 0;
    Outputs out = trace_this ? workload->run(traced, traced_totals)
                             : workload->run(plain, plain_totals);
    ++result.attempted;
    run_probe();
    workload->check(out, errors);
    out.compare(*reference,
                std::string(trace_this ? "traced" : "timed") +
                    " iteration " + std::to_string(i),
                errors);
    if (!errors.empty()) {
      return result;
    }
    const bool enough_traced = !config.trace ||
        (traced_totals.iterations >= kMinTracedIterations &&
         plain_totals.iterations >= 1);
    if (seconds_since(loop_start) >= config.seconds && enough_traced) {
      break;
    }
  }

  const double mean_probe_s = probe_s / probes;
  const double speed = HostProbe::kReferenceSeconds / mean_probe_s;
  if (config.trace) {
    result.metrics = per_layer(config.workload, traced, traced_totals, plain,
                               plain_totals, workload->generate_s(),
                               mean_probe_s, *reference, errors);
  } else {
    result.metrics = end_to_end(config.workload, plain, plain_totals,
                                median(setup_s), speed, *reference);
    result.wall = {
        {"tasks_per_s", plain_totals.tasks / plain.timed_s(), "tasks/s"},
        {"setup_s", median(setup_s), "s"},
        {"probe_ms", mean_probe_s * 1e3, "ms"},
        {"speed_factor", speed, "ratio"},
    };
  }
  for (const Metric& metric : result.metrics) {
    if (!std::isfinite(metric.value)) {
      errors.push_back("metric " + metric.name + " is not finite");
    }
  }
  return result;
}

}  // namespace perfbench
