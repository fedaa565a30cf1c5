// hetflow-verify end-to-end: RuntimeOptions::validate wired through
// submit() and wait_all(), audit snapshots, and the JSON round trip.
#include "check/audit.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "check/audit_file.hpp"
#include "helpers.hpp"
#include "obs/chrome_trace.hpp"
#include "sched/mct.hpp"
#include "sched/registry.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "workflow/generators.hpp"
#include "workflow/workflow.hpp"

namespace hetflow::check {
namespace {

using hetflow::testing::cpu_gpu_codelet;
using hetflow::testing::cpu_only_codelet;

core::RuntimeOptions validating_options() {
  core::RuntimeOptions options;
  options.validate = true;
  return options;
}

TEST(RuntimeValidate, CleanChainPassesValidation) {
  const hw::Platform p = hw::make_cpu_only(4);
  core::Runtime rt(p, std::make_unique<sched::MctScheduler>(),
                   validating_options());
  const auto d = rt.register_data("acc", 1024);
  for (int i = 0; i < 4; ++i) {
    rt.submit(util::format("link%d", i), cpu_only_codelet(), 1e9,
              {{d, data::AccessMode::ReadWrite}});
  }
  EXPECT_NO_THROW(rt.wait_all());
  EXPECT_EQ(rt.stats().tasks_completed, 4u);
}

TEST(RuntimeValidate, GpuOffloadWithTransfersPassesValidation) {
  const hw::Platform p = hw::make_workstation();
  core::Runtime rt(p, std::make_unique<sched::MctScheduler>(),
                   validating_options());
  const auto a = rt.register_data("a", 4 << 20);
  const auto b = rt.register_data("b", 4 << 20);
  rt.submit("produce", cpu_gpu_codelet(), 8e9, {{a, data::AccessMode::Write}});
  rt.submit("transform", cpu_gpu_codelet(), 8e9,
            {{a, data::AccessMode::Read}, {b, data::AccessMode::Write}});
  rt.submit("reduce", cpu_gpu_codelet(), 8e9, {{b, data::AccessMode::Read}});
  EXPECT_NO_THROW(rt.wait_all());
}

TEST(RuntimeValidate, DuplicateHandleInAccessListIsRejectedAtSubmit) {
  const hw::Platform p = hw::make_cpu_only(2);
  core::Runtime rt(p, std::make_unique<sched::MctScheduler>(),
                   validating_options());
  const auto d = rt.register_data("d", 1024);
  EXPECT_THROW(rt.submit("dup", cpu_only_codelet(), 1e9,
                         {{d, data::AccessMode::Read},
                          {d, data::AccessMode::Write}}),
               ValidationError);
}

TEST(RuntimeValidate, DuplicateAccessIsAcceptedWithoutValidate) {
  // Without validate the legacy behavior stands (last access wins in the
  // dependency inference) — the checker must be strictly opt-in.
  const hw::Platform p = hw::make_cpu_only(2);
  core::Runtime rt(p, std::make_unique<sched::MctScheduler>());
  const auto d = rt.register_data("d", 1024);
  EXPECT_NO_THROW(rt.submit("dup", cpu_only_codelet(), 1e9,
                            {{d, data::AccessMode::Read},
                             {d, data::AccessMode::Write}}));
  rt.wait_all();
}

TEST(RuntimeAudit, AuditOfCompletedRunPasses) {
  const hw::Platform p = hw::make_workstation();
  core::Runtime rt(p, std::make_unique<sched::MctScheduler>());
  const auto d = rt.register_data("d", 1 << 20);
  rt.submit("w", cpu_gpu_codelet(), 4e9, {{d, data::AccessMode::Write}});
  rt.submit("r", cpu_gpu_codelet(), 4e9, {{d, data::AccessMode::Read}});
  rt.wait_all();
  const CheckReport report = audit_run(rt);
  EXPECT_TRUE(report.passed()) << report.summary();
}

TEST(RuntimeAudit, SnapshotCapturesTasksTopologyAndSpans) {
  const hw::Platform p = hw::make_workstation();
  core::Runtime rt(p, std::make_unique<sched::MctScheduler>());
  const auto d = rt.register_data("d", 1 << 20);
  rt.submit("w", cpu_gpu_codelet(), 4e9, {{d, data::AccessMode::Write}});
  rt.submit("r", cpu_gpu_codelet(), 4e9, {{d, data::AccessMode::Read}});
  rt.wait_all();

  const RunRecord run = snapshot_run(rt);
  EXPECT_EQ(run.tasks.size(), 2u);
  EXPECT_EQ(run.device_count, p.device_count());
  EXPECT_EQ(run.node_count, p.memory_node_count());
  EXPECT_EQ(run.handle_count(), 1u);
  EXPECT_FALSE(run.spans.empty());
  // The RAW edge w -> r must appear in the snapshot.
  ASSERT_EQ(run.tasks[1].dependencies.size(), 1u);
  EXPECT_EQ(run.tasks[1].dependencies[0], run.tasks[0].id);
  EXPECT_TRUE(run.tasks[0].completed);
  EXPECT_LE(run.tasks[0].end, run.tasks[1].start + 1e-9);
}

TEST(RuntimeAudit, AuditJsonRoundTripsAndStaysClean) {
  const hw::Platform p = hw::make_workstation();
  core::Runtime rt(p, std::make_unique<sched::MctScheduler>());
  const auto a = rt.register_data("a", 1 << 20);
  const auto b = rt.register_data("b", 2 << 20);
  rt.submit("w", cpu_gpu_codelet(), 4e9, {{a, data::AccessMode::Write}});
  rt.submit("t", cpu_gpu_codelet(), 4e9,
            {{a, data::AccessMode::Read}, {b, data::AccessMode::Write}});
  rt.wait_all();

  const AuditRecord original = snapshot_audit(rt);
  const AuditRecord parsed = parse_audit_json(to_audit_json(original));

  EXPECT_EQ(parsed.run.tasks.size(), original.run.tasks.size());
  EXPECT_EQ(parsed.run.device_count, original.run.device_count);
  EXPECT_EQ(parsed.run.handle_bytes, original.run.handle_bytes);
  EXPECT_EQ(parsed.run.spans.size(), original.run.spans.size());
  EXPECT_EQ(parsed.directory.states, original.directory.states);
  EXPECT_EQ(parsed.directory.claimed_resident_bytes,
            original.directory.claimed_resident_bytes);
  for (std::size_t i = 0; i < original.run.tasks.size(); ++i) {
    const TaskRecord& want = original.run.tasks[i];
    const TaskRecord& got = parsed.run.tasks[i];
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.dependencies, want.dependencies);
    EXPECT_EQ(got.device, want.device);
    EXPECT_DOUBLE_EQ(got.start, want.start);
    EXPECT_DOUBLE_EQ(got.end, want.end);
    ASSERT_EQ(got.accesses.size(), want.accesses.size());
    for (std::size_t j = 0; j < want.accesses.size(); ++j) {
      EXPECT_EQ(got.accesses[j].data, want.accesses[j].data);
      EXPECT_EQ(got.accesses[j].mode, want.accesses[j].mode);
    }
  }

  // A faithful round trip audits clean, same as the live run.
  EXPECT_TRUE(check_races(parsed.run).empty());
  EXPECT_TRUE(check_trace(parsed.run).empty());
  EXPECT_TRUE(check_directory(parsed.directory).empty());
}

TEST(RuntimeAudit, ParseRejectsMalformedDocuments) {
  EXPECT_ANY_THROW(parse_audit_json("not json"));
  EXPECT_ANY_THROW(parse_audit_json("{}"));
  EXPECT_ANY_THROW(
      parse_audit_json(R"({"format":"something-else","version":1})"));
}

TEST(RuntimeAudit, CorruptedSnapshotIsCaughtNotVacuouslyAccepted) {
  // Take a real run's snapshot, break it, and make sure the checkers
  // notice — guards against a detector that silently checks nothing.
  const hw::Platform p = hw::make_cpu_only(4);
  core::Runtime rt(p, std::make_unique<sched::MctScheduler>());
  const auto d = rt.register_data("d", 1024);
  for (int i = 0; i < 3; ++i) {
    rt.submit(util::format("w%d", i), cpu_only_codelet(), 1e9,
              {{d, data::AccessMode::ReadWrite}});
  }
  rt.wait_all();

  RunRecord run = snapshot_run(rt);
  ASSERT_EQ(run.tasks.size(), 3u);
  // Drop every dependency edge and force the first two intervals to
  // overlap: a genuine unordered conflicting overlap.
  for (TaskRecord& task : run.tasks) {
    task.dependencies.clear();
  }
  run.tasks[1].start = run.tasks[0].start;
  run.tasks[1].end = run.tasks[0].end;
  const auto violations = check_races(run);
  bool found = false;
  for (const Violation& violation : violations) {
    found |= violation.kind == ViolationKind::ConflictingOverlap;
  }
  EXPECT_TRUE(found);
}

// --- span loaders: the offline --trace / --audit inputs ------------------

/// Longer than any small-string buffer, so the name lives on the heap and
/// a view into a destroyed parse buffer is a use-after-free ASan reports.
constexpr const char* kDoctoredName = "doctored-span-ends-before-it-starts";

bool names_span(const std::vector<Violation>& violations) {
  for (const Violation& violation : violations) {
    if (violation.message.find(kDoctoredName) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(ChromeTraceLoader, MergedTraceOfFaultyGpuRunReadsBackClean) {
  // Failed spans, transfer tracks, instants and decision flows all in one
  // document: only the exec/failed spans come back, in emission order.
  const hw::Platform p = hw::make_hpc_node(4, 2, 0);
  core::RuntimeOptions options;
  options.metrics = true;
  options.seed = 3;
  options.failure_model = hw::FailureModel::uniform(5.0);
  core::Runtime rt(p, sched::make_scheduler("dmda", options.seed), options);
  workflow::submit_workflow(rt, workflow::make_montage(16),
                            workflow::CodeletLibrary::standard());
  rt.wait_all();
  const std::string json =
      obs::chrome_trace_json(rt.tracer(), p, rt.recorder());
  bool transfer_track = false;
  const util::Json doc = util::Json::parse(json);
  for (const util::Json& event : doc.at("traceEvents").as_array()) {
    transfer_track |= event.contains("tid") &&
                      event.at("tid").as_number() >=
                          static_cast<double>(obs::kTransferTidBase);
  }
  ASSERT_TRUE(transfer_track) << "expected a transfer track in the document";

  const RunRecord run = parse_chrome_trace(json);
  EXPECT_EQ(run.device_count, p.device_count());
  ASSERT_EQ(run.spans.size(), rt.tracer().spans().size());
  std::size_t failed = 0;
  for (std::size_t i = 0; i < run.spans.size(); ++i) {
    const trace::Span& want = rt.tracer().spans()[i];
    EXPECT_EQ(run.spans[i].name, want.name);
    EXPECT_EQ(run.spans[i].task_id, want.task_id);
    EXPECT_EQ(run.spans[i].device, want.device);
    EXPECT_EQ(run.spans[i].kind, want.kind);
    failed += want.kind == trace::SpanKind::FailedExec ? 1 : 0;
  }
  EXPECT_GT(failed, 0u);
  EXPECT_TRUE(check_trace(run).empty());
}

TEST(ChromeTraceLoader, DoctoredSpanIsReportedByNameAfterTheDocumentIsGone) {
  std::string json =
      R"({"traceEvents":[)"
      R"({"ph":"M","name":"process_name","pid":1,"args":{"name":"p"}},)"
      R"({"ph":"M","name":"thread_name","pid":1,"tid":0,"args":{"name":"cpu0"}},)"
      R"({"ph":"M","name":"thread_name","pid":1,"tid":1000,"args":{"name":"x"}},)"
      R"({"ph":"X","name":"xfer","pid":1,"tid":1000,"ts":0,"dur":5,"args":{}},)"
      R"({"ph":"i","s":"t","name":"retry","pid":1,"tid":0,"ts":1,"args":{}},)"
      R"({"ph":"X","name":"NAME","pid":1,"tid":0,"ts":2000000,"dur":-1000000,)"
      R"("args":{"task":3,"kind":"exec"}}]})";
  json.replace(json.find("NAME"), 4, kDoctoredName);
  RunRecord run = parse_chrome_trace(json);
  json.assign(json.size(), '#');  // scribble over the source text
  EXPECT_EQ(run.device_count, 1u);
  ASSERT_EQ(run.spans.size(), 1u);
  EXPECT_EQ(run.spans[0].task_id, 3u);
  EXPECT_TRUE(names_span(check_trace(run)));
}

TEST(ChromeTraceLoader, RejectsDocumentsWithoutEvents) {
  EXPECT_ANY_THROW(parse_chrome_trace("[]"));
  EXPECT_ANY_THROW(parse_chrome_trace(R"({"displayTimeUnit":"ms"})"));
  EXPECT_ANY_THROW(parse_chrome_trace(
      R"({"traceEvents":[{"ph":"X","name":"a","pid":1,"tid":0,"ts":0,)"
      R"("dur":1,"args":{"kind":"bogus"}}]})"));
  EXPECT_ANY_THROW(parse_chrome_trace(
      R"({"traceEvents":[{"ph":"X","name":"a","pid":1,"tid":-1,"ts":0,)"
      R"("dur":1,"args":{"kind":"exec"}}]})"));
}

TEST(RuntimeAudit, DoctoredAuditSpanIsReportedByNameAfterParsing) {
  AuditRecord doctored;
  doctored.run.device_count = 1;
  doctored.run.spans.push_back(
      trace::Span{0, kDoctoredName, 0, 2.0, 1.0, trace::SpanKind::Exec});
  std::optional<AuditRecord> parsed =
      parse_audit_json(to_audit_json(doctored));
  // Copies share the name store, so the copy outlives the original.
  const RunRecord copy = parsed->run;
  parsed.reset();
  EXPECT_TRUE(names_span(check_trace(copy)));
}

}  // namespace
}  // namespace hetflow::check
