#include "sched/graph_utils.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "perf/transfer_model.hpp"

namespace hetflow::sched {

TaskGraphView TaskGraphView::build(const core::SchedContext& ctx,
                                   const std::vector<core::Task*>& tasks) {
  TaskGraphView view;
  view.tasks_ = tasks;
  view.graph_.resize(tasks.size());
  view.mean_exec_.assign(tasks.size(), 0.0);
  view.in_edge_begin_.reserve(tasks.size() + 1);

  // Task id -> view index, as a table over the ids' range: the open tasks
  // of a wave are nearly contiguous ids, so the table stays about the
  // size of the view and a lookup is one load.
  constexpr std::size_t kAbsent = std::numeric_limits<std::size_t>::max();
  core::TaskId lo = std::numeric_limits<core::TaskId>::max();
  core::TaskId hi = 0;
  for (const core::Task* task : tasks) {
    lo = std::min(lo, task->id());
    hi = std::max(hi, task->id());
  }
  std::vector<std::size_t> index(tasks.empty() ? 0 : hi - lo + 1, kAbsent);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    index[tasks[i]->id() - lo] = i;
  }

  const data::DataRegistry& registry = ctx.data_registry();
  // Workflow DAGs are sparse — a couple of parents per task.
  view.edge_bytes_.reserve(tasks.size() * 2);
  for (std::size_t child = 0; child < tasks.size(); ++child) {
    view.in_edge_begin_.push_back(view.edge_bytes_.size());
    for (core::TaskId parent_id : tasks[child]->dependencies) {
      const std::size_t parent = parent_id < lo || parent_id > hi
                                     ? kAbsent
                                     : index[parent_id - lo];
      if (parent == kAbsent) {
        continue;  // parent completed in an earlier wave
      }
      view.graph_.add_edge(parent, child);
      // Edge payload: handles the parent writes that the child reads.
      std::uint64_t bytes = 0;
      for (const data::Access& out : tasks[parent]->accesses()) {
        if (!data::is_write(out.mode) && !data::is_redux(out.mode)) {
          continue;
        }
        for (const data::Access& in : tasks[child]->accesses()) {
          if (data::is_read(in.mode) && in.data == out.data) {
            bytes += registry.handle(in.data).bytes;
            break;
          }
        }
      }
      view.edge_bytes_.push_back(bytes);
    }
  }
  view.in_edge_begin_.push_back(view.edge_bytes_.size());

  for (std::size_t i = 0; i < tasks.size(); ++i) {
    double total = 0.0;
    std::size_t count = 0;
    for (const hw::Device& device : ctx.platform().devices()) {
      const double est = ctx.estimate_exec_seconds(*tasks[i], device);
      if (std::isfinite(est)) {
        total += est;
        ++count;
      }
    }
    HETFLOW_REQUIRE_MSG(count > 0, "task runs on no device");
    view.mean_exec_[i] = total / static_cast<double>(count);
  }
  return view;
}

std::uint64_t TaskGraphView::edge_bytes(std::size_t a, std::size_t b) const {
  const std::vector<std::size_t>& parents = graph_.predecessors(b);
  for (std::size_t k = 0; k < parents.size(); ++k) {
    if (parents[k] == a) {
      return edge_bytes_[in_edge_begin_[b] + k];
    }
  }
  return 0;
}

// Both ranks walk each node's in-edges, whose bytes sit beside the
// predecessor list, instead of looking up every out-edge's bytes. The
// recurrences take a max over the same set of terms either way, so the
// ranks are bit-identical to util::Digraph's successor-side versions.

std::vector<double> TaskGraphView::upward_ranks(
    const hw::Platform& platform) const {
  const perf::TransferModel comm(platform);
  std::vector<double> rank(size(), 0.0);
  std::vector<double> best(size(), 0.0);  // max over successors so far
  const std::vector<std::size_t> order = graph_.topological_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t node = *it;
    rank[node] = mean_exec_[node] + best[node];
    const std::vector<std::size_t>& parents = graph_.predecessors(node);
    const std::span<const std::uint64_t> bytes = in_edge_bytes(node);
    for (std::size_t k = 0; k < parents.size(); ++k) {
      best[parents[k]] = std::max(best[parents[k]],
                                  comm.mean_time_s(bytes[k]) + rank[node]);
    }
  }
  return rank;
}

std::vector<double> TaskGraphView::downward_ranks(
    const hw::Platform& platform) const {
  const perf::TransferModel comm(platform);
  std::vector<double> rank(size(), 0.0);
  for (const std::size_t node : graph_.topological_order()) {
    const std::vector<std::size_t>& parents = graph_.predecessors(node);
    const std::span<const std::uint64_t> bytes = in_edge_bytes(node);
    for (std::size_t k = 0; k < parents.size(); ++k) {
      const std::size_t parent = parents[k];
      rank[node] = std::max(rank[node], rank[parent] + mean_exec_[parent] +
                                            comm.mean_time_s(bytes[k]));
    }
  }
  return rank;
}

DataReady::DataReady(const TaskGraphView& view, const hw::Platform& platform,
                     const std::vector<double>& finish,
                     const std::vector<hw::DeviceId>& placed)
    : view_(view),
      platform_(platform),
      finish_(finish),
      placed_(placed),
      ready_(platform.memory_node_count(), 0.0),
      known_(platform.memory_node_count(), 0) {}

void DataReady::select(std::size_t task) {
  parents_.clear();
  const std::vector<std::size_t>& parents = view_.graph().predecessors(task);
  const std::span<const std::uint64_t> bytes = view_.in_edge_bytes(task);
  for (std::size_t k = 0; k < parents.size(); ++k) {
    parents_.push_back({finish_[parents[k]],
                        platform_.device(placed_[parents[k]]).memory_node(),
                        bytes[k]});
  }
  std::fill(known_.begin(), known_.end(), 0);
}

double DataReady::at(const hw::Device& device) {
  const hw::MemoryNodeId node = device.memory_node();
  if (known_[node] == 0) {
    double ready = 0.0;
    for (const Parent& parent : parents_) {
      double arrival = parent.finish;
      if (parent.node != node) {
        arrival += platform_.transfer_time_s(parent.node, node, parent.bytes);
      }
      ready = std::max(ready, arrival);
    }
    ready_[node] = ready;
    known_[node] = 1;
  }
  return ready_[node];
}

double InsertionTimeline::earliest_fit(hw::DeviceId device, double ready,
                                       double duration) const {
  const Lane& lane = lanes_[device];
  const std::vector<Slot>& slots = lane.slots;
  // Slots are sorted and non-overlapping, so their end times are ordered
  // too; skip straight past every slot that ends at or before `ready` —
  // none of them can host or constrain a fit that starts at >= ready.
  // (A zero-length slot exactly at `ready` is skipped as well: the scan
  // below then finds the same gap at `ready` the full scan would.)
  std::size_t i = static_cast<std::size_t>(
      std::partition_point(
          slots.begin(), slots.end(),
          [ready](const Slot& slot) { return slot.end <= ready; }) -
      slots.begin());
  double cursor = ready;
  const std::size_t n = slots.size();
  while (i < n) {
    const std::size_t block_end = std::min(n, (i / kBlock + 1) * kBlock);
    // At a block's first slot, the whole block can be passed over when
    // neither that slot's own gap (tested exactly) nor any inner gap
    // (bounded by fit_bound) can hold the task. Passing over a slot only
    // raises the cursor to its end, so the block raises it to max_end.
    if (i % kBlock == 0) {
      const Block& block = lane.blocks[i / kBlock];
      if (block.fit_bound < duration && cursor + duration > slots[i].start) {
        cursor = std::max(cursor, block.max_end);
        i = block_end;
        continue;
      }
    }
    for (; i < block_end; ++i) {
      if (cursor + duration <= slots[i].start) {
        return cursor;
      }
      cursor = std::max(cursor, slots[i].end);
    }
  }
  return cursor;
}

void InsertionTimeline::book(hw::DeviceId device, double start,
                             double duration) {
  HETFLOW_REQUIRE_MSG(start >= 0.0 && duration >= 0.0,
                      "timeline slots need a non-negative start and length");
  Lane& lane = lanes_[device];
  const Slot inserted{start, start + duration};
  const auto at = std::upper_bound(lane.slots.begin(), lane.slots.end(),
                                   inserted, [](const Slot& a, const Slot& b) {
                                     return a.start < b.start;
                                   });
  const auto index = static_cast<std::size_t>(at - lane.slots.begin());
  lane.slots.insert(at, inserted);
  refresh(lane, index / kBlock);
}

void InsertionTimeline::refresh(Lane& lane, std::size_t first) {
  const std::vector<Slot>& slots = lane.slots;
  const std::size_t n = slots.size();
  lane.blocks.resize((n + kBlock - 1) / kBlock);
  for (std::size_t b = first; b < lane.blocks.size(); ++b) {
    const std::size_t lo = b * kBlock;
    const std::size_t hi = std::min(n, lo + kBlock);
    double max_end = slots[lo].end;
    double max_gap = -std::numeric_limits<double>::infinity();
    for (std::size_t j = lo + 1; j < hi; ++j) {
      max_end = std::max(max_end, slots[j].end);
      max_gap = std::max(max_gap, slots[j].start - slots[j - 1].end);
    }
    // A fit at inner slot j needs cursor + d <= start[j] with cursor >=
    // end[j-1] >= 0; in exact arithmetic that implies start[j] - end[j-1]
    // >= d. Rounding the sum and the difference moves each by at most
    // 2^-53 of start[j], so the bound adds 2^-48 of the block's latest
    // start (16 or more ulps of any start in the block): pruning stays
    // conservative, and a gap a few ulps short of d goes to the exact test.
    lane.blocks[b] = {max_end, max_gap + slots[hi - 1].start * 0x1p-48};
  }
}

}  // namespace hetflow::sched
