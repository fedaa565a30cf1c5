// Core hot-path overhead — tasks/second through the full
// submit → dependency release → schedule → complete path on synthetic
// DAGs of 10^5–10^6 near-zero-cost tasks (the paper's "runtime overhead
// stays negligible as workflows grow" claim, measured instead of
// assumed). Three shapes stress different parts of the bookkeeping:
//
//   chain    — 1 handle, every task RW: pure sequential release, the
//              event queue and completion path dominate;
//   fanout   — one producer, N-2 readers, one RW sink: huge dependent
//              lists and a WAR fan-in with N-2 parents;
//   layered  — W-wide layers, each task writes its own handle and reads
//              K=3 handles of the previous layer: the realistic regime
//              (registration, dependency inference, coherence directory
//              all at full tilt);
//   burst    — repeated barrier + wide fan-out on one handle: with 8
//              identical CPUs and identical task costs, completions land
//              8-at-a-time on identical timestamps, so the event queue's
//              FIFO tie-break and the per-completion scheduler pump run
//              on every event.
//
// Host wall-clock is the measurand (simulated results stay seed-exact;
// checked by the determinism suites, not here). Each (shape, size) runs
// 5 times (once under --smoke); its row is the median run, with the
// tasks/s min and max across the repeats. Emits BENCH_core.json so the
// throughput trajectory is tracked across PRs (tools/bench_diff.py
// compares two such files).
//
// Usage: bench_core_overhead [--smoke] [--tasks N[,N...]]
//                            [--validate] [--metrics]
//   --smoke     CI mode: one 10^4-task size per shape + the HEFT sanity
//               run at 10^4 (exit non-zero on zero throughput, a failed
//               count cross-check, or a blown HEFT time bound).
//   --validate  run every workload with the end-of-run audit enabled
//               (also via HETFLOW_BENCH_VALIDATE=1).
//   --metrics   run with the observability layer on (also via
//               HETFLOW_BENCH_METRICS=1). Both skew throughput; the
//               recorded BENCH_core.json runs keep them off.
//
// hetflow-lint: allow-file(det-wallclock)  — wall time is the measurand
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/runtime.hpp"
#include "hw/presets.hpp"
#include "sched/registry.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace hetflow;

/// Set by --validate / --metrics (or the HETFLOW_BENCH_* env hooks).
bool g_validate = false;
bool g_metrics = false;

core::RuntimeOptions lean_options(std::size_t expected_tasks = 0,
                                  std::size_t expected_data = 0) {
  core::RuntimeOptions options;
  options.record_trace = false;      // measuring the runtime, not the tracer
  options.use_history_model = false; // static cost model only
  // Capacity hints: generators know their exact task/handle counts, so
  // the pools are pre-faulted in the (untimed) constructor — the timed
  // region measures steady-state per-task cost, not one-time allocation.
  options.expected_tasks = expected_tasks;
  options.expected_data = expected_data;
  options.validate = g_validate;
  options.metrics = g_metrics;
  return options;
}

core::CodeletPtr noop_codelet() {
  // ~1 us per task on a preset CPU core: the codelet cost is negligible
  // next to per-task bookkeeping, which is what this bench isolates.
  static const core::CodeletPtr codelet =
      core::Codelet::make("noop", {{hw::DeviceType::Cpu, 1.0}});
  return codelet;
}

constexpr double kNoopFlops = 1e3;

struct ShapeResult {
  std::string shape;
  std::size_t tasks = 0;
  double submit_s = 0.0;  ///< wall seconds in the submit loop
  double run_s = 0.0;     ///< wall seconds in wait_all()
  std::uint64_t events = 0;
  std::size_t peak_pending = 0;
  std::uint64_t completed = 0;
  /// Runs behind this row (the row itself is the median run by total
  /// time) and the tasks/s range across them.
  std::size_t repeats = 1;
  double tasks_per_s_min = 0.0;
  double tasks_per_s_max = 0.0;

  double total_s() const { return submit_s + run_s; }
  double tasks_per_s() const {
    return total_s() > 0.0 ? static_cast<double>(tasks) / total_s() : 0.0;
  }
};

double wall_since(std::chrono::steady_clock::time_point begin) {
  // Host-side throughput bench: wall time is the measurand.
  // hetflow-lint: allow(det-wallclock)
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(now - begin).count();
}

// --- synthetic DAG generators ---------------------------------------------

/// chain: task i RW-accesses the single handle -> depends on task i-1.
ShapeResult run_chain(const hw::Platform& platform, std::size_t n) {
  core::Runtime rt(platform, sched::make_scheduler("eager"),
                   lean_options(n, 1));
  const data::DataId h = rt.register_data("h", 1024);
  // hetflow-lint: allow(det-wallclock)
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    rt.submit("c", noop_codelet(), kNoopFlops,
              {{h, data::AccessMode::ReadWrite}});
  }
  ShapeResult out{"chain", n};
  out.submit_s = wall_since(t0);
  // hetflow-lint: allow(det-wallclock)
  const auto t1 = std::chrono::steady_clock::now();
  rt.wait_all();
  out.run_s = wall_since(t1);
  out.events = rt.event_queue().executed();
  out.peak_pending = rt.event_queue().peak_pending();
  out.completed = rt.stats().tasks_completed;
  return out;
}

/// fanout: one writer, n-2 parallel readers, one RW sink (WAR fan-in).
ShapeResult run_fanout(const hw::Platform& platform, std::size_t n) {
  core::Runtime rt(platform, sched::make_scheduler("eager"),
                   lean_options(n, 1));
  const data::DataId h = rt.register_data("h", 1024);
  // hetflow-lint: allow(det-wallclock)
  const auto t0 = std::chrono::steady_clock::now();
  rt.submit("root", noop_codelet(), kNoopFlops,
            {{h, data::AccessMode::Write}});
  for (std::size_t i = 0; i + 2 < n; ++i) {
    rt.submit("r", noop_codelet(), kNoopFlops, {{h, data::AccessMode::Read}});
  }
  rt.submit("sink", noop_codelet(), kNoopFlops,
            {{h, data::AccessMode::ReadWrite}});
  ShapeResult out{"fanout", n};
  out.submit_s = wall_since(t0);
  // hetflow-lint: allow(det-wallclock)
  const auto t1 = std::chrono::steady_clock::now();
  rt.wait_all();
  out.run_s = wall_since(t1);
  out.events = rt.event_queue().executed();
  out.peak_pending = rt.event_queue().peak_pending();
  out.completed = rt.stats().tasks_completed;
  return out;
}

/// layered: width-W layers; each task writes its own handle and reads 3
/// deterministic-random handles from the previous layer.
ShapeResult run_layered(const hw::Platform& platform, std::size_t n,
                        const std::string& scheduler = "eager",
                        std::size_t width = 1024) {
  core::Runtime rt(platform, sched::make_scheduler(scheduler),
                   lean_options(n, n));
  util::Rng rng(7);
  std::vector<data::DataId> prev;
  std::vector<data::DataId> current;
  // hetflow-lint: allow(det-wallclock)
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t made = 0;
  while (made < n) {
    const std::size_t w = std::min(width, n - made);
    current.clear();
    for (std::size_t i = 0; i < w; ++i) {
      const data::DataId own = rt.register_data("d", 1024);
      // Stack-built access list: submit() takes a span, so the hot loop
      // allocates nothing per task.
      data::Access accesses[4];
      std::size_t count = 0;
      for (std::size_t k = 0; k < 3 && !prev.empty(); ++k) {
        const auto pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(prev.size()) - 1));
        // Same rng stream, but a repeated pick is dropped: an access list
        // must not name a handle twice (hetflow-verify access-mode rule).
        bool seen = false;
        for (std::size_t j = 0; j < count; ++j) {
          seen = seen || accesses[j].data == prev[pick];
        }
        if (!seen) {
          accesses[count++] = {prev[pick], data::AccessMode::Read};
        }
      }
      accesses[count++] = {own, data::AccessMode::Write};
      rt.submit("l", noop_codelet(), kNoopFlops,
                std::span<const data::Access>(accesses, count));
      current.push_back(own);
      ++made;
    }
    prev.swap(current);
  }
  ShapeResult out{"layered", n};
  out.submit_s = wall_since(t0);
  // hetflow-lint: allow(det-wallclock)
  const auto t1 = std::chrono::steady_clock::now();
  rt.wait_all();
  out.run_s = wall_since(t1);
  out.events = rt.event_queue().executed();
  out.peak_pending = rt.event_queue().peak_pending();
  out.completed = rt.stats().tasks_completed;
  return out;
}

/// burst: repeated (barrier RW, W readers) rounds on a single handle.
/// Every reader in a round has identical cost and the preset CPUs are
/// identical, so one completion event fires per device at the exact same
/// timestamp — the event queue spends the whole run breaking same-time
/// ties, and each completion pumps every device's scheduler.
ShapeResult run_burst(const hw::Platform& platform, std::size_t n,
                      std::size_t width = 512) {
  core::Runtime rt(platform, sched::make_scheduler("eager"),
                   lean_options(n, 1));
  const data::DataId h = rt.register_data("h", 1024);
  // hetflow-lint: allow(det-wallclock)
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t made = 0;
  while (made < n) {
    rt.submit("b", noop_codelet(), kNoopFlops,
              {{h, data::AccessMode::ReadWrite}});
    ++made;
    const std::size_t w = std::min(width, n - made);
    for (std::size_t i = 0; i < w; ++i) {
      rt.submit("w", noop_codelet(), kNoopFlops,
                {{h, data::AccessMode::Read}});
      ++made;
    }
  }
  ShapeResult out{"burst", n};
  out.submit_s = wall_since(t0);
  // hetflow-lint: allow(det-wallclock)
  const auto t1 = std::chrono::steady_clock::now();
  rt.wait_all();
  out.run_s = wall_since(t1);
  out.events = rt.event_queue().executed();
  out.peak_pending = rt.event_queue().peak_pending();
  out.completed = rt.stats().tasks_completed;
  return out;
}

/// Runs `measure` `repeats` times and returns the median run by total
/// time, carrying the tasks/s range and the smallest completion count
/// over all runs (so one short run still fails the exact-count check).
template <typename Measure>
ShapeResult median_of(std::size_t repeats, Measure measure) {
  std::vector<ShapeResult> runs;
  for (std::size_t i = 0; i < repeats; ++i) {
    runs.push_back(measure());
  }
  std::sort(runs.begin(), runs.end(),
            [](const ShapeResult& a, const ShapeResult& b) {
              return a.total_s() < b.total_s();
            });
  ShapeResult median = runs[runs.size() / 2];
  median.repeats = repeats;
  median.tasks_per_s_min = runs.back().tasks_per_s();
  median.tasks_per_s_max = runs.front().tasks_per_s();
  for (const ShapeResult& run : runs) {
    median.completed = std::min(median.completed, run.completed);
  }
  return median;
}

util::Json to_json(const ShapeResult& r) {
  util::Json row = util::Json::object();
  row["shape"] = r.shape;
  row["tasks"] = r.tasks;
  row["submit_s"] = r.submit_s;
  row["run_s"] = r.run_s;
  row["total_s"] = r.total_s();
  row["tasks_per_s"] = r.tasks_per_s();
  row["repeats"] = r.repeats;
  row["tasks_per_s_min"] = r.tasks_per_s_min;
  row["tasks_per_s_max"] = r.tasks_per_s_max;
  row["events_executed"] = static_cast<std::size_t>(r.events);
  row["event_peak_pending"] = r.peak_pending;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hetflow;
  bool smoke = false;
  std::string shape_filter;
  std::vector<std::size_t> sizes = {100000, 1000000};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      sizes = {10000};
    } else if (std::strcmp(argv[i], "--tasks") == 0 && i + 1 < argc) {
      sizes.clear();
      for (const std::string& part : util::split(argv[++i], ',')) {
        sizes.push_back(static_cast<std::size_t>(std::stoull(part)));
      }
    } else if (std::strcmp(argv[i], "--validate") == 0) {
      g_validate = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      g_metrics = true;
    } else if (std::strcmp(argv[i], "--shape") == 0 && i + 1 < argc) {
      shape_filter = argv[++i];  // profiling aid: run one shape only
    } else {
      std::cerr << "usage: bench_core_overhead [--smoke] [--tasks N[,N...]]"
                   " [--shape NAME] [--validate] [--metrics]\n";
      return 2;
    }
  }
  g_validate = g_validate || bench::validate_requested();
  g_metrics = g_metrics || bench::metrics_requested();

  std::cout << "\n=== Core overhead — tasks/second through "
               "submit -> release -> schedule -> complete ===\n\n";

  const hw::Platform platform = hw::make_cpu_only(8);
  // Smoke runs are a sanity check, not a measurement: one run each.
  const std::size_t repeats = smoke ? 1 : 5;
  util::Table table({"shape", "tasks", "submit s", "run s", "total s",
                     "tasks/s", "min", "max", "events"});
  util::Json runs = util::Json::array();
  bool ok = true;

  std::vector<ShapeResult> results;
  const auto wanted = [&](const char* name) {
    return shape_filter.empty() || shape_filter == name;
  };
  for (std::size_t n : sizes) {
    if (wanted("chain")) {
      results.push_back(
          median_of(repeats, [&] { return run_chain(platform, n); }));
    }
    if (wanted("fanout")) {
      results.push_back(
          median_of(repeats, [&] { return run_fanout(platform, n); }));
    }
    if (wanted("layered")) {
      results.push_back(
          median_of(repeats, [&] { return run_layered(platform, n); }));
    }
    if (wanted("burst")) {
      results.push_back(
          median_of(repeats, [&] { return run_burst(platform, n); }));
    }
  }
  for (const ShapeResult& r : results) {
    // Every submitted task must have completed: a silent loss at scale is
    // exactly the class of bug this bench exists to flush out.
    if (r.completed != r.tasks || r.tasks_per_s() <= 0.0) {
      std::cerr << "FAIL: " << r.shape << " at " << r.tasks << " tasks: "
                << r.completed << " completed, " << r.tasks_per_s()
                << " tasks/s\n";
      ok = false;
    }
    table.add_row({r.shape, std::to_string(r.tasks),
                   util::format("%.3f", r.submit_s),
                   util::format("%.3f", r.run_s),
                   util::format("%.3f", r.total_s()),
                   util::format("%.0f", r.tasks_per_s()),
                   util::format("%.0f", r.tasks_per_s_min),
                   util::format("%.0f", r.tasks_per_s_max),
                   std::to_string(r.events)});
    runs.push_back(to_json(r));
  }
  table.print(std::cout);

  // A --shape run is a profiling aid: no HEFT sanity, no JSON (a partial
  // file must never masquerade as a full BENCH_core.json).
  if (!shape_filter.empty()) {
    return ok ? 0 : 1;
  }

  // HEFT static-planning sanity bound: a 10^5-task layered DAG must plan
  // and run without quadratic blowup. The bound is deliberately loose —
  // it catches complexity regressions (minutes), not jitter.
  const std::size_t heft_tasks = smoke ? 10000 : 100000;
  const double heft_bound_s = smoke ? 60.0 : 120.0;
  // hetflow-lint: allow(det-wallclock)
  const auto heft_begin = std::chrono::steady_clock::now();
  const ShapeResult heft = run_layered(platform, heft_tasks, "heft");
  const double heft_wall_s = wall_since(heft_begin);
  const bool heft_ok =
      heft.completed == heft.tasks && heft_wall_s <= heft_bound_s;
  std::cout << "\nheft plan+run, layered " << heft_tasks << " tasks: "
            << util::format("%.2f s", heft_wall_s) << " (bound "
            << util::format("%.0f s", heft_bound_s) << ") — "
            << (heft_ok ? "ok" : "FAIL") << "\n";
  ok = ok && heft_ok;

  util::Json doc = util::Json::object();
  doc["bench"] = "core_overhead";
  doc["smoke"] = smoke;
  doc["runs"] = runs;
  util::Json heft_doc = util::Json::object();
  heft_doc["tasks"] = heft_tasks;
  heft_doc["wall_s"] = heft_wall_s;
  heft_doc["bound_s"] = heft_bound_s;
  heft_doc["ok"] = heft_ok;
  doc["heft_sanity"] = heft_doc;
  std::ofstream out("BENCH_core.json");
  out << doc.dump_pretty() << '\n';
  std::cout << "\nwrote BENCH_core.json\n";
  return ok ? 0 : 1;
}
