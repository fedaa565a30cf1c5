// hetflow_perfbench — the repository benchmark's measuring binary.
//
//   hetflow_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints a header line (workload, seed, host fingerprint), for untraced
// runs a {"wall": ...} line with the host times before host-speed scaling,
// and, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer split. Exits 1 (metrics empty) when any simulated output fails
// its check, 2 on bad arguments. perfbench/run.py builds and runs it.
#include <sys/personality.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Shortest decimal that reads back as exactly `value`.
std::string json_number(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return ec == std::errc() ? std::string(buf, end) : "null";
}

std::string json_metrics(const std::vector<perfbench::Metric>& metrics) {
  std::string out;
  for (const perfbench::Metric& m : metrics) {
    out += (out.empty() ? "" : ", ") + json_string(m.name) +
           ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

int usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: hetflow_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return usage(("missing value for " + arg).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (!(config.seconds > 0.0)) {
        return usage("--seconds must be positive");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        return usage("--trace takes 0 or 1");
      }
      config.trace = value == "1";
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      return usage(("bad number for " + arg).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::workload_names()) {
    known = known || name == config.workload;
  }
  if (!have_workload || !known) {
    return usage("--workload must be heft-layered, cholesky-dmdas or "
                 "serve-100k");
  }

  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"host\": {\"nproc\": %ld, \"cpu_model\": %s, \"compiler\": %s, "
      "\"flags\": %s, \"build_type\": %s, \"randomized_layout\": %s}}\n",
      json_string(config.workload).c_str(),
      static_cast<unsigned long long>(config.seed),
      json_number(config.seconds).c_str(), config.trace ? 1 : 0,
      sysconf(_SC_NPROCESSORS_ONLN), json_string(cpu_model()).c_str(),
      json_string(PERFBENCH_COMPILER).c_str(),
      json_string(PERFBENCH_FLAGS).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(),
      (personality(0xffffffff) & ADDR_NO_RANDOMIZE) != 0 ? "false" : "true");
  std::fflush(stdout);

  perfbench::RunResult result;
  try {
    result = perfbench::run_workload(config);
  } catch (const std::exception& e) {
    result.errors.push_back(std::string("exception: ") + e.what());
  }
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "check failed: %s\n", error.c_str());
  }
  const bool correct = result.errors.empty();
  const std::string metrics = correct ? json_metrics(result.metrics) : "";
  if (correct && !result.wall.empty()) {
    std::printf("{\"wall\": {%s}}\n", json_metrics(result.wall).c_str());
  }
  // A run stops at the first iteration that fails its checks.
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %d, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(
                  std::max<std::uint64_t>(result.attempted, 1)),
              correct ? 0 : 1, metrics.c_str());
  return correct ? 0 : 1;
}
