// HostProbe — a fixed piece of reference work that measures how fast the
// host runs right now.
//
// The benchmark's host is shared: identical hetflow iterations run up to 2x
// slower or faster in phases lasting from seconds to minutes, as other
// tenants load the machine's shared caches. Run totals alone then spread
// more between runs than any useful regression bound. The probe is timed
// between iterations (outside the timed region) and its mean time gives
// the run's host-speed factor; perfbench/README.md says how the end-to-end
// host times are scaled by it.
//
// The work mirrors what makes hetflow's iterations drift: a sort of 64k
// doubles (512 KiB, cache-resident, branchy) and 400k random inserts into
// an 8 MiB open-addressing table (cache- and memory-latency-bound). It uses
// no hetflow code, so a change to hetflow cannot move it, and its buffers
// are mmapped once, so it neither allocates from nor shows in the heap that
// heap_mb measures.
#pragma once

#include <cstddef>
#include <cstdint>

namespace perfbench {

class HostProbe {
 public:
  /// Typical probe time on the reference host (4-vCPU shared VM, g++ 12.2,
  /// -O3): converts probe measurements into a host-speed factor.
  static constexpr double kReferenceSeconds = 0.0105;

  HostProbe();
  ~HostProbe();
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// Runs the reference work once and returns its wall seconds.
  double run();

 private:
  static constexpr std::size_t kSortValues = std::size_t{1} << 16;
  static constexpr std::size_t kTableSlots = std::size_t{1} << 20;
  static constexpr std::size_t kInserts = 400000;

  void* memory_ = nullptr;
  std::size_t bytes_ = 0;
  double* sort_ = nullptr;
  std::uint64_t* table_ = nullptr;
  /// Folds in one value of every run, so the work cannot be elided.
  std::uint64_t checksum_ = 0;
};

}  // namespace perfbench
