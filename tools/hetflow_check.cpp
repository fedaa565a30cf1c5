// hetflow_check — offline auditor for hetflow runs and workflow files.
//
//   $ hetflow_check --dag pipeline.dag            # structural DAG audit
//   $ hetflow_check --trace trace.json            # Chrome-trace timeline audit
//   $ hetflow_check --audit audit.json            # full run audit (see
//                                                 #   hetflow_run --audit-out)
//   $ hetflow_check --workflow montage:64 --platform hpc:8,2,0 --sched dmda
//                                                 # execute + validate
//   $ hetflow_check --selftest                    # prove the detectors fire
//
// Exit status: 0 = all checks passed, 1 = violations found, 2 = usage.
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "check/audit.hpp"
#include "check/audit_file.hpp"
#include "check/dag.hpp"
#include "check/invariants.hpp"
#include "check/race.hpp"
#include "core/runtime.hpp"
#include "sched/registry.hpp"
#include "serve/audit.hpp"
#include "sim/event_queue.hpp"
#include "util/cli.hpp"
#include "workflow/dagfile.hpp"
#include "workflow/spec.hpp"
#include "workflow/workflow.hpp"

namespace {

using namespace hetflow;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw Error("cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int report_and_exit_code(const check::CheckReport& report) {
  std::cout << report.summary();
  return report.passed() ? 0 : 1;
}

int audit_dag(const std::string& path) {
  const workflow::Workflow wf = workflow::load_dagfile(path);
  check::CheckReport report;
  report.merge(check::check_workflow(wf));
  report.note_check("workflow tasks", wf.task_count());
  std::cout << wf.describe() << '\n';
  return report_and_exit_code(report);
}

int audit_trace(const std::string& path) {
  const check::RunRecord run = check::parse_chrome_trace(read_file(path));
  check::CheckReport report;
  report.merge(check::check_trace(run));
  report.note_check("trace spans", run.spans.size());
  return report_and_exit_code(report);
}

int audit_file(const std::string& path) {
  const check::AuditRecord record = check::load_audit(path);
  check::CheckReport report;
  std::size_t pairs = 0;
  report.merge(check::check_races(record.run, &pairs));
  report.note_check("conflicting access pairs", pairs);
  report.merge(check::check_trace(record.run));
  report.note_check("trace spans", record.run.spans.size());
  report.merge(check::check_directory(record.directory));
  report.note_check("directory replicas", record.directory.states.size());
  return report_and_exit_code(report);
}

int audit_live_run(const util::Cli& cli) {
  const workflow::Workflow wf = workflow::make_workflow_from_spec(
      cli.value("workflow"), cli.number("scale"));
  const hw::Platform platform =
      workflow::make_platform_from_spec(cli.value("platform"));
  core::RuntimeOptions options;
  options.seed = static_cast<std::uint64_t>(cli.number("seed"));
  core::Runtime runtime(
      platform, sched::make_scheduler(cli.value("sched"), options.seed),
      options);
  workflow::submit_workflow(runtime, wf,
                            workflow::CodeletLibrary::standard());
  runtime.wait_all();
  std::cout << wf.describe() << '\n';
  return report_and_exit_code(check::audit_run(runtime));
}

// --- intentional-violation selftest --------------------------------------
// Seeds one record per violation class and verifies the matching checker
// fires; proves the detectors are not vacuous (wired as a CTest).

check::RunRecord clean_two_writer_run() {
  check::RunRecord run;
  run.device_count = 2;
  run.node_count = 2;
  run.device_memory_node = {0, 1};
  run.handle_bytes = {1024};
  run.handle_home = {0};
  check::TaskRecord w0{0, "w0", {{0, data::AccessMode::Write}}, {}, 0, 0.0,
                       1.0, true};
  check::TaskRecord w1{1,   "w1", {{0, data::AccessMode::Write}}, {0}, 1,
                       1.0, 2.0, true};
  run.tasks = {w0, w1};
  run.spans = {{0, "w0", 0, 0.0, 1.0, trace::SpanKind::Exec},
               {1, "w1", 1, 1.0, 2.0, trace::SpanKind::Exec}};
  return run;
}

bool expect(bool ok, const std::string& what) {
  std::cout << (ok ? "  pass  " : "  FAIL  ") << what << '\n';
  return ok;
}

int selftest() {
  bool ok = true;
  std::cout << "hetflow_check selftest (intentional violations):\n";

  // 0. A correct record is clean — the detectors don't cry wolf.
  {
    const check::RunRecord run = clean_two_writer_run();
    ok &= expect(check::check_races(run).empty() &&
                     check::check_trace(run).empty(),
                 "serialized writers accepted as clean");
  }
  // 1. conflicting-overlap: drop the WAW edge and overlap the writers.
  {
    check::RunRecord run = clean_two_writer_run();
    run.tasks[1].dependencies.clear();
    run.tasks[1].start = 0.5;
    run.spans[1].start = 0.5;
    const auto violations = check::check_races(run);
    ok &= expect(!violations.empty() &&
                     violations[0].kind ==
                         check::ViolationKind::ConflictingOverlap,
                 "overlapping unordered writers -> conflicting-overlap");
  }
  // 2. coherence-state: two Modified owners of one handle.
  {
    check::DirectoryRecord dir;
    dir.node_count = 2;
    dir.handle_bytes = {1024};
    dir.capacity_bytes = {4096, 4096};
    dir.states = {data::ReplicaState::Modified, data::ReplicaState::Modified};
    dir.claimed_resident_bytes = {1024, 1024};
    const auto violations = check::check_directory(dir);
    ok &= expect(!violations.empty() &&
                     violations[0].kind ==
                         check::ViolationKind::CoherenceState,
                 "two Modified owners -> coherence-state");
  }
  // 3. capacity: resident bytes exceed the node's capacity.
  {
    check::DirectoryRecord dir;
    dir.node_count = 1;
    dir.handle_bytes = {4096, 4096};
    dir.capacity_bytes = {6000};
    dir.states = {data::ReplicaState::Shared, data::ReplicaState::Shared};
    dir.claimed_resident_bytes = {8192};
    bool found = false;
    for (const check::Violation& violation : check::check_directory(dir)) {
      found |= violation.kind == check::ViolationKind::CapacityExceeded;
    }
    ok &= expect(found, "over-capacity node -> capacity-exceeded");
  }
  // 4. time-monotonicity: a span that ends before it starts.
  {
    check::RunRecord run = clean_two_writer_run();
    run.spans[1].end = run.spans[1].start - 0.25;
    bool found = false;
    for (const check::Violation& violation : check::check_trace(run)) {
      found |= violation.kind == check::ViolationKind::TimeMonotonicity;
    }
    ok &= expect(found, "span ending before start -> time-monotonicity");
  }
  // 5. serve fairness: the monitor's mirror must flag a release that
  // skips the lexicographic argmin, a batch that released nothing with
  // work pending, a drain that ends non-empty, and per-batch accounting
  // drift — and accept a sequence that follows the rule.
  {
    serve::FairnessMonitor clean;
    clean.add_tenant(2.0, 0, 4);
    clean.add_tenant(1.0, 0, 4);
    clean.on_admit(0);
    clean.on_admit(1);
    clean.begin_batch();
    clean.on_release(0);  // ids tie on zero consumption -> tenant 0
    clean.on_release(1);
    clean.end_batch(2, 2);
    clean.on_consume(0, 1.0);
    clean.on_consume(1, 1.0);
    clean.reconcile_batch(2, 2, 2.0, 2.0);
    clean.on_drained(0);
    ok &= expect(clean.passed(), "rule-following serve run accepted");

    serve::FairnessMonitor unfair;
    unfair.add_tenant(1.0, 0, 4);
    unfair.add_tenant(1.0, 5, 4);  // higher tier must release first
    unfair.on_admit(0);
    unfair.on_admit(1);
    unfair.begin_batch();
    unfair.on_release(0);
    ok &= expect(
        unfair.report().count(check::ViolationKind::FairShare) == 1,
        "release skipping the priority tier -> fair-share");

    serve::FairnessMonitor wedged;
    wedged.add_tenant(1.0, 0, 4);
    wedged.on_admit(0);
    wedged.begin_batch();
    wedged.end_batch(0, 1);
    wedged.on_drained(1);
    ok &= expect(
        wedged.report().count(check::ViolationKind::AdmissionWedge) == 2,
        "empty batch with backlog + non-empty drain -> admission-wedge");

    serve::FairnessMonitor drifted;
    drifted.reconcile_batch(3, 3, 1.0, 1.5);
    ok &= expect(
        drifted.report().count(check::ViolationKind::TenantAccounting) == 1,
        "device-seconds drift -> tenant-accounting");

    // Starvation: two same-tier tenants stay continuously backlogged
    // while only one is ever served, so their weighted consumptions
    // drift past the bounded-deficit limit.
    serve::FairnessMonitor starved;
    starved.add_tenant(1.0, 0, 1);
    starved.add_tenant(1.0, 0, 1);
    for (int batch = 0; batch < 8; ++batch) {
      // Both tenants keep work queued at every batch boundary (the
      // starvation window requires it), but the biased feed releases and
      // credits only tenant 0 — a sequence the real engine never emits.
      starved.on_admit(0);
      starved.on_admit(0);
      starved.on_admit(1);
      starved.begin_batch();
      starved.on_release(0);
      starved.end_batch(1, 3);
      starved.on_consume(0, 1.0);
    }
    ok &= expect(
        starved.report().count(check::ViolationKind::Starvation) > 0,
        "one-sided service under shared backlog -> starvation");
  }
  // 6. event-queue bookkeeping: cancel-heavy traffic must keep the lazy-
  // deletion heap consistent and bounded (carcasses are compacted away
  // once they outnumber half the live events).
  {
    sim::EventQueue queue;
    std::size_t fired = 0;
    std::vector<sim::EventId> ids;
    for (int i = 0; i < 1000; ++i) {
      ids.push_back(queue.schedule_at(static_cast<double>(i) + 1.0,
                                      [&fired] { ++fired; }));
    }
    ok &= expect(queue.debug_consistent() && queue.pending() == 1000,
                 "1000 scheduled events -> consistent bookkeeping");
    for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
      queue.cancel(ids[i]);
    }
    ok &= expect(queue.pending() == 1 && queue.debug_consistent(),
                 "999 cancellations -> one live event, still consistent");
    ok &= expect(queue.heap_entries() < 500,
                 "carcass compaction bounds the heap after mass cancel");
    queue.run();
    ok &= expect(fired == 1 && queue.empty() && queue.debug_consistent(),
                 "surviving event fires once; queue drains clean");
  }
  std::cout << (ok ? "selftest passed\n" : "selftest FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("hetflow_check",
                "audit hetflow runs, traces and workflow files for "
                "schedule races and invariant violations");
  cli.add_option("dag", "", "audit a .dag workflow file");
  cli.add_option("trace", "",
                 "audit a Chrome trace (hetflow_run --chrome-trace) file");
  cli.add_option("audit", "", "audit a full run snapshot "
                 "(hetflow_run --audit-out)");
  cli.add_option("workflow", "",
                 "run this workflow spec under full validation");
  cli.add_option("platform", "workstation",
                 "platform spec for --workflow mode");
  cli.add_option("sched", "dmda", "scheduler for --workflow mode");
  cli.add_option("seed", "42", "simulation seed for --workflow mode");
  cli.add_option("scale", "1", "workflow size multiplier");
  cli.add_flag("selftest",
               "seed one violation per class and verify detection");

  try {
    cli.parse(argc, argv);
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n\n" << cli.usage();
    return 2;
  }
  if (cli.help_requested()) {
    std::cout << cli.usage();
    return 0;
  }

  try {
    if (cli.flag("selftest")) {
      return selftest();
    }
    if (!cli.value("dag").empty()) {
      return audit_dag(cli.value("dag"));
    }
    if (!cli.value("trace").empty()) {
      return audit_trace(cli.value("trace"));
    }
    if (!cli.value("audit").empty()) {
      return audit_file(cli.value("audit"));
    }
    if (!cli.value("workflow").empty()) {
      return audit_live_run(cli);
    }
    std::cerr << "error: pick one of --dag, --trace, --audit, --workflow "
                 "or --selftest\n\n"
              << cli.usage();
    return 2;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
