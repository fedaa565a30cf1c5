// Shared fixtures for runtime/scheduler tests.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "hw/presets.hpp"
#include "sched/registry.hpp"
#include "trace/tracer.hpp"

namespace hetflow::testing {

inline core::CodeletPtr cpu_only_codelet(double efficiency = 0.5) {
  return core::Codelet::make("cpu-only",
                             {{hw::DeviceType::Cpu, efficiency}});
}

inline core::CodeletPtr cpu_gpu_codelet(double cpu_eff = 0.5,
                                        double gpu_eff = 0.8) {
  return core::Codelet::make(
      "cpu-gpu", {{hw::DeviceType::Cpu, cpu_eff},
                  {hw::DeviceType::Gpu, gpu_eff}});
}

/// Asserts that no two successful execution spans overlap on any device.
inline void expect_no_device_overlap(const trace::Tracer& tracer,
                                     const hw::Platform& platform) {
  for (const hw::Device& device : platform.devices()) {
    std::vector<std::pair<double, double>> intervals;
    for (const trace::Span& span : tracer.spans()) {
      if (span.device == device.id()) {
        intervals.push_back({span.start, span.end});
      }
    }
    std::sort(intervals.begin(), intervals.end());
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      EXPECT_LE(intervals[i - 1].second, intervals[i].first + 1e-9)
          << "overlap on " << device.name();
    }
  }
}

/// Start/end times per task id from the trace (successful attempts only).
inline std::map<std::uint64_t, std::pair<double, double>> exec_windows(
    const trace::Tracer& tracer) {
  std::map<std::uint64_t, std::pair<double, double>> windows;
  for (const trace::Span& span : tracer.spans()) {
    if (span.kind == trace::SpanKind::Exec) {
      windows[span.task_id] = {span.start, span.end};
    }
  }
  return windows;
}

/// Byte-exact comparison of `actual` against the reference checked in at
/// `path` or, when HETFLOW_REGEN_GOLDEN is set to anything but "0",
/// re-blessing of that reference from `actual`.
inline void expect_golden_file(const std::string& path,
                               const std::string& actual) {
  const char* regen = std::getenv("HETFLOW_REGEN_GOLDEN");
  if (regen != nullptr && *regen != '\0' && std::string(regen) != "0") {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream expected;
  if (in.good()) {
    expected << in.rdbuf();
  }
  ASSERT_FALSE(expected.str().empty())
      << "missing golden file " << path
      << " — run with HETFLOW_REGEN_GOLDEN=1 to create it";
  EXPECT_EQ(actual, expected.str())
      << path << " drifted from its golden reference; if the change is "
         "intentional, regenerate with HETFLOW_REGEN_GOLDEN=1 and review "
         "the diff";
}

}  // namespace hetflow::testing
