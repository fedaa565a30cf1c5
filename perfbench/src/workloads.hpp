// The benchmark's workloads: what each one runs, measures and checks.
// See perfbench/README.md for why each workload exists and what every
// metric means.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  /// Timed iterations (DAG runs or serve sessions) whose outputs were
  /// checked.
  std::uint64_t attempted = 0;
  /// Mismatches and violated invariants; any entry makes the run fail.
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  /// Untraced runs: the host times before host-speed scaling, and the
  /// probe figures that scaled them.
  std::vector<Metric> wall;
};

/// "heft-layered", "cholesky-dmdas", "serve-100k".
const std::vector<std::string>& workload_names();

/// Runs one workload for `config.seconds` of timed iterations. With
/// config.trace the metrics are the per-layer split, otherwise the
/// end-to-end metrics.
RunResult run_workload(const RunConfig& config);

}  // namespace perfbench
