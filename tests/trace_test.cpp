#include "trace/tracer.hpp"

#include <gtest/gtest.h>

#include "core/runtime.hpp"
#include "helpers.hpp"
#include "hw/presets.hpp"
#include "obs/chrome_trace.hpp"
#include "sched/mct.hpp"
#include "trace/report.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace hetflow::trace {
namespace {

TEST(Tracer, DisabledDropsSpans) {
  Tracer tracer(false);
  tracer.add(Span{0, "t", 0, 0.0, 1.0, SpanKind::Exec});
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_FALSE(tracer.enabled());
}

TEST(Tracer, CollectsSpans) {
  Tracer tracer;
  tracer.add(Span{1, "a", 0, 0.0, 1.0, SpanKind::Exec});
  tracer.add(Span{2, "b", 1, 0.5, 2.0, SpanKind::FailedExec});
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_DOUBLE_EQ(tracer.spans()[1].duration(), 1.5);
  tracer.clear();
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(Tracer, ChromeJsonIsValidJson) {
  const hw::Platform p = hw::make_workstation();
  Tracer tracer;
  tracer.add(Span{1, "gemm", 0, 0.0, 0.5, SpanKind::Exec});
  tracer.add(Span{2, "fft", 4, 0.1, 0.3, SpanKind::FailedExec});
  const std::string json = obs::chrome_trace_json(tracer, p, nullptr);
  const util::Json doc = util::Json::parse(json);
  ASSERT_TRUE(doc.contains("traceEvents"));
  const auto& events = doc.at("traceEvents").as_array();
  // Process metadata + one thread-name event per device + 2 spans.
  EXPECT_EQ(events.size(), 1 + p.device_count() + 2);
  // Find the gemm event and check its fields.
  bool found = false;
  for (const auto& event : events) {
    if (event.contains("name") && event.at("name").as_string() == "gemm") {
      found = true;
      EXPECT_EQ(event.at("ph").as_string(), "X");
      EXPECT_DOUBLE_EQ(event.at("ts").as_number(), 0.0);
      EXPECT_DOUBLE_EQ(event.at("dur").as_number(), 0.5e6);
      EXPECT_EQ(event.at("args").at("kind").as_string(), "exec");
    }
  }
  EXPECT_TRUE(found);
}

TEST(Tracer, SpanKindTagsRoundTrip) {
  for (const SpanKind kind :
       {SpanKind::Exec, SpanKind::FailedExec, SpanKind::Overhead}) {
    EXPECT_EQ(span_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_STREQ(to_string(SpanKind::FailedExec), "failed");
  EXPECT_FALSE(span_kind_from_string("exec ").has_value());
  EXPECT_FALSE(span_kind_from_string("").has_value());
}

TEST(Tracer, AsciiGanttShowsDeviceRows) {
  const hw::Platform p = hw::make_workstation();
  Tracer tracer;
  tracer.add(Span{1, "t", 0, 0.0, 1.0, SpanKind::Exec});
  tracer.add(Span{2, "u", 4, 0.0, 0.5, SpanKind::FailedExec});
  const std::string gantt = tracer.ascii_gantt(p, 40);
  EXPECT_NE(gantt.find("cpu0"), std::string::npos);
  EXPECT_NE(gantt.find("gpu0"), std::string::npos);
  EXPECT_NE(gantt.find('#'), std::string::npos);
  EXPECT_NE(gantt.find('x'), std::string::npos);
}

TEST(Tracer, EmptyGantt) {
  const hw::Platform p = hw::make_workstation();
  const Tracer tracer;
  EXPECT_EQ(tracer.ascii_gantt(p), "(empty trace)\n");
}

TEST(Tracer, InstantRunGanttRendersWithoutDividingByZero) {
  // Every span is zero-length at t = 0, so the makespan is 0; the chart
  // must still render device rows (marks in the first column) instead of
  // dividing by zero or degrading to "(empty trace)".
  const hw::Platform p = hw::make_workstation();
  Tracer tracer;
  tracer.add(Span{1, "t", 0, 0.0, 0.0, SpanKind::Exec});
  tracer.add(Span{2, "u", 4, 0.0, 0.0, SpanKind::FailedExec});
  const std::string gantt = tracer.ascii_gantt(p, 40);
  EXPECT_EQ(gantt.find("(empty trace)"), std::string::npos);
  EXPECT_NE(gantt.find("cpu0"), std::string::npos);
  EXPECT_NE(gantt.find('#'), std::string::npos);
  EXPECT_NE(gantt.find('x'), std::string::npos);
  EXPECT_EQ(gantt.find("inf"), std::string::npos);
  EXPECT_EQ(gantt.find("nan"), std::string::npos);
}

TEST(Report, UtilizationAggregates) {
  const hw::Platform p = hw::make_workstation();
  Tracer tracer;
  tracer.add(Span{1, "a", 0, 0.0, 1.0, SpanKind::Exec});
  tracer.add(Span{2, "b", 0, 1.0, 2.0, SpanKind::Exec});
  tracer.add(Span{3, "c", 0, 2.0, 2.5, SpanKind::FailedExec});
  tracer.add(Span{4, "d", 4, 0.0, 4.0, SpanKind::Exec});
  const auto utils = utilization(tracer, p);
  ASSERT_EQ(utils.size(), p.device_count());
  EXPECT_EQ(utils[0].task_count, 2u);
  EXPECT_EQ(utils[0].failed_count, 1u);
  EXPECT_DOUBLE_EQ(utils[0].busy_seconds, 2.5);
  EXPECT_DOUBLE_EQ(utils[0].utilization, 2.5 / 4.0);
  // Failed-attempt time is busy but not useful: the 0.5 s FailedExec span
  // lands in wasted, the two Exec spans in useful.
  EXPECT_DOUBLE_EQ(utils[0].useful_seconds, 2.0);
  EXPECT_DOUBLE_EQ(utils[0].wasted_seconds, 0.5);
  EXPECT_DOUBLE_EQ(utils[0].useful_utilization, 2.0 / 4.0);
  EXPECT_DOUBLE_EQ(utils[0].wasted_utilization, 0.5 / 4.0);
  EXPECT_DOUBLE_EQ(utils[4].utilization, 1.0);
  EXPECT_DOUBLE_EQ(utils[4].wasted_seconds, 0.0);
  EXPECT_EQ(utils[1].task_count, 0u);
}

TEST(Report, UsefulPlusWastedEqualsBusy) {
  const hw::Platform p = hw::make_workstation();
  Tracer tracer;
  tracer.add(Span{1, "a", 0, 0.0, 1.0, SpanKind::Exec});
  tracer.add(Span{2, "a", 0, 1.0, 1.75, SpanKind::FailedExec});
  tracer.add(Span{2, "a", 0, 1.75, 2.75, SpanKind::Exec});
  tracer.add(Span{3, "o", 0, 2.75, 3.0, SpanKind::Overhead});
  const auto utils = utilization(tracer, p);
  EXPECT_DOUBLE_EQ(utils[0].useful_seconds + utils[0].wasted_seconds,
                   utils[0].busy_seconds);
  EXPECT_DOUBLE_EQ(utils[0].useful_seconds, 2.0);
  EXPECT_DOUBLE_EQ(utils[0].wasted_seconds, 1.0);  // retry + overhead
  EXPECT_DOUBLE_EQ(utils[0].useful_utilization + utils[0].wasted_utilization,
                   utils[0].utilization);
}

TEST(Report, InjectedFailuresShowUpAsWastedTime) {
  // End-to-end regression for the useful/wasted split: a run with fault
  // injection must report non-zero wasted time on the device that hosted
  // the failed attempts, and useful + wasted must still cover busy.
  const hw::Platform p = hw::make_cpu_only(1);
  core::RuntimeOptions options;
  options.failure_model = hw::FailureModel::uniform(2.0);
  options.failure_policy = core::FailurePolicy::RetrySameDevice;
  options.seed = 7;
  core::Runtime rt(p, std::make_unique<sched::MctScheduler>(), options);
  for (int i = 0; i < 10; ++i) {
    rt.submit(util::format("t%d", i), hetflow::testing::cpu_only_codelet(),
              3e9, {});
  }
  rt.wait_all();
  ASSERT_GT(rt.stats().failed_attempts, 0u);
  const auto utils = utilization(rt.tracer(), p);
  EXPECT_GT(utils[0].wasted_seconds, 0.0);
  EXPECT_GT(utils[0].useful_seconds, 0.0);
  EXPECT_DOUBLE_EQ(utils[0].useful_seconds + utils[0].wasted_seconds,
                   utils[0].busy_seconds);
  const std::string table = utilization_report(rt.tracer(), p);
  EXPECT_NE(table.find("useful%"), std::string::npos);
}

TEST(Report, SpansToCsv) {
  Tracer tracer;
  tracer.add(Span{3, "ge,mm", 1, 0.25, 0.75, SpanKind::Exec});
  tracer.add(Span{4, "fft", 0, 1.0, 1.5, SpanKind::FailedExec});
  const std::string csv = spans_to_csv(tracer);
  EXPECT_NE(csv.find("task,name,device,start_s,end_s,kind"),
            std::string::npos);
  EXPECT_NE(csv.find("3,\"ge,mm\",1,0.250000000,0.750000000,exec"),
            std::string::npos);
  EXPECT_NE(csv.find("4,fft,0,1.000000000,1.500000000,failed"),
            std::string::npos);
}

TEST(Report, RenderedTableMentionsDevices) {
  const hw::Platform p = hw::make_workstation();
  Tracer tracer;
  tracer.add(Span{1, "a", 0, 0.0, 1.0, SpanKind::Exec});
  const std::string table = utilization_report(tracer, p);
  EXPECT_NE(table.find("cpu0"), std::string::npos);
  EXPECT_NE(table.find("useful%"), std::string::npos);
  EXPECT_NE(table.find("wasted%"), std::string::npos);
}

}  // namespace
}  // namespace hetflow::trace
