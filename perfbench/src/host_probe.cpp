#include "host_probe.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <new>

namespace perfbench {

namespace {

constexpr std::uint64_t kLcgMul = 6364136223846793005ull;
constexpr std::uint64_t kLcgAdd = 1442695040888963407ull;

}  // namespace

HostProbe::HostProbe()
    : bytes_(kSortValues * sizeof(double) +
             kTableSlots * sizeof(std::uint64_t)) {
  memory_ = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (memory_ == MAP_FAILED) {
    throw std::bad_alloc();
  }
  sort_ = static_cast<double*>(memory_);
  table_ = reinterpret_cast<std::uint64_t*>(sort_ + kSortValues);
}

HostProbe::~HostProbe() { munmap(memory_, bytes_); }

double HostProbe::run() {
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t state = 7;
  for (std::size_t i = 0; i < kSortValues; ++i) {
    state = state * kLcgMul + 1;
    sort_[i] = static_cast<double>(state >> 11);
  }
  std::sort(sort_, sort_ + kSortValues);

  std::memset(table_, 0, kTableSlots * sizeof(std::uint64_t));
  std::uint64_t key = 99;
  for (std::size_t i = 0; i < kInserts; ++i) {
    key = key * kLcgMul + kLcgAdd;
    std::size_t slot = (key >> 20) & (kTableSlots - 1);
    while (table_[slot] != 0 && table_[slot] != key) {
      slot = (slot + 1) & (kTableSlots - 1);
    }
    table_[slot] = key;
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  checksum_ += static_cast<std::uint64_t>(sort_[kSortValues / 2]) +
               table_[key & (kTableSlots - 1)];
  return seconds;
}

}  // namespace perfbench
