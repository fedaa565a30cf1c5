// Shared machinery for the list schedulers that rank or plan over the
// open task graph (HEFT, CPOP, PEFT, critical-path, dmdas): a dense-index
// view of the graph with edge byte counts and per-task mean execution
// costs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/scheduler.hpp"
#include "util/graph.hpp"

namespace hetflow::sched {

class TaskGraphView {
 public:
  /// Builds the view over `tasks` (dependencies to tasks outside the set
  /// — already completed in earlier waves — are ignored). A dependency
  /// listed twice yields two edges, each with the edge's bytes.
  static TaskGraphView build(const core::SchedContext& ctx,
                             const std::vector<core::Task*>& tasks);

  const std::vector<core::Task*>& tasks() const noexcept { return tasks_; }
  const util::Digraph& graph() const noexcept { return graph_; }
  std::size_t size() const noexcept { return tasks_.size(); }

  /// Mean finite execution estimate across devices, per task index.
  const std::vector<double>& mean_exec() const noexcept { return mean_exec_; }

  /// Bytes flowing over dependency edge a -> b (0 if there is no edge).
  /// Scans b's predecessor list.
  std::uint64_t edge_bytes(std::size_t a, std::size_t b) const;
  /// Bytes over each edge into `child`, aligned with
  /// graph().predecessors(child).
  std::span<const std::uint64_t> in_edge_bytes(std::size_t child) const {
    return std::span<const std::uint64_t>(edge_bytes_)
        .subspan(in_edge_begin_[child],
                 in_edge_begin_[child + 1] - in_edge_begin_[child]);
  }

  /// HEFT upward ranks using mean exec + mean communication costs.
  std::vector<double> upward_ranks(const hw::Platform& platform) const;
  /// Downward ranks (CPOP needs rank_u + rank_d).
  std::vector<double> downward_ranks(const hw::Platform& platform) const;

 private:
  std::vector<core::Task*> tasks_;
  util::Digraph graph_;
  /// Edge bytes, child by child, each child's run aligned with its
  /// predecessor list; child c's run starts at in_edge_begin_[c].
  std::vector<std::uint64_t> edge_bytes_;
  std::vector<std::size_t> in_edge_begin_;
  std::vector<double> mean_exec_;
};

/// Data-ready time of one task on each memory node, given when and where
/// its already placed parents finish: the latest parent finish plus, for
/// a parent on another node, the edge's transfer time. HEFT, CPOP and
/// PEFT probe every device, but the answer depends only on the device's
/// memory node, so each node is computed once per task, on first use.
class DataReady {
 public:
  /// `finish` and `placed` are the caller's per-task planned finish
  /// times and devices; select() reads them in place, without copying.
  DataReady(const TaskGraphView& view, const hw::Platform& platform,
            const std::vector<double>& finish,
            const std::vector<hw::DeviceId>& placed);

  /// Switches to task `task`; all of its parents must be placed.
  void select(std::size_t task);
  /// Data-ready time of the selected task on `device`'s memory node.
  double at(const hw::Device& device);

 private:
  struct Parent {
    double finish;
    hw::MemoryNodeId node;
    std::uint64_t bytes;
  };

  const TaskGraphView& view_;
  const hw::Platform& platform_;
  const std::vector<double>& finish_;
  const std::vector<hw::DeviceId>& placed_;
  std::vector<Parent> parents_;  ///< the selected task's parents, in order
  std::vector<double> ready_;    ///< per memory node, valid where known_
  std::vector<char> known_;
};

/// Per-device timeline for insertion-based EFT placement: finds the
/// earliest gap of `duration` at or after `ready`, and books it.
///
/// Each device keeps its slots sorted by start, plus a summary per block
/// of kBlock consecutive slots: the latest end in the block, and an upper
/// bound on any duration that fits one of the block's inner gaps. A probe
/// binary-searches to the first slot ending after `ready`, then skips
/// whole blocks whose bound rules a fit out, and tests slot by slot only
/// inside a block that might fit. The summary only prunes: every fit is
/// still decided by `cursor + duration <= slot.start`, so a probe returns
/// the same start, bit for bit, as a scan of every slot.
class InsertionTimeline {
 public:
  explicit InsertionTimeline(std::size_t device_count)
      : lanes_(device_count) {}

  /// Earliest start achievable on `device` (does not book). Requires
  /// duration >= 0.
  double earliest_fit(hw::DeviceId device, double ready,
                      double duration) const;
  /// Books [start, start + duration) on `device`. Requires start >= 0 and
  /// duration >= 0 (the block bounds assume non-negative times).
  void book(hw::DeviceId device, double start, double duration);

 private:
  static constexpr std::size_t kBlock = 32;

  struct Slot {
    double start;
    double end;
  };
  struct Block {
    double max_end;    ///< latest end among the block's slots
    double fit_bound;  ///< no duration above this fits an inner gap
  };
  struct Lane {
    std::vector<Slot> slots;    ///< sorted by start
    std::vector<Block> blocks;  ///< blocks[b] covers slots [b*kBlock, ...)
  };

  /// Recomputes the summaries of `lane`'s blocks from `first` onward.
  static void refresh(Lane& lane, std::size_t first);

  std::vector<Lane> lanes_;
};

}  // namespace hetflow::sched
