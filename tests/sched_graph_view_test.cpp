// TaskGraphView against a brute-force recomputation. Each wave's view is
// rebuilt from first principles — a parent is an edge when it is in the
// view, an edge carries the bytes of every handle the parent writes and
// the child reads — and the view's predecessor lists, per-edge bytes and
// edge_bytes() lookups must match it exactly. The ranks, which the view
// computes from its in-edges, must equal util::Digraph's successor-side
// recurrences bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/runtime.hpp"
#include "helpers.hpp"
#include "perf/transfer_model.hpp"
#include "sched/graph_utils.hpp"
#include "workflow/codelets.hpp"
#include "workflow/generators.hpp"
#include "workflow/workflow.hpp"

namespace hetflow::sched {
namespace {

using data::AccessMode;

/// Runs every task on the first device that supports it, and hands each
/// wave's open tasks to a check before execution starts.
class ViewProbe final : public core::Scheduler {
 public:
  using Check = std::function<void(const core::SchedContext&,
                                   const std::vector<core::Task*>&)>;
  explicit ViewProbe(Check check) : check_(std::move(check)) {}

  std::string name() const override { return "view-probe"; }
  void prepare(const std::vector<core::Task*>& all_tasks) override {
    check_(ctx(), all_tasks);
  }
  void on_task_ready(core::Task& task) override {
    for (const hw::Device& device : ctx().platform().devices()) {
      if (task.codelet().supports(device.type())) {
        ctx().assign(task, device);
        return;
      }
    }
    FAIL() << "no device runs task " << task.id();
  }

 private:
  Check check_;
};

/// Bytes of every handle `parent` writes (or reduces into) that `child`
/// reads.
std::uint64_t brute_bytes(const data::DataRegistry& registry,
                          const core::Task& parent, const core::Task& child) {
  std::uint64_t bytes = 0;
  for (const data::Access& out : parent.accesses()) {
    if (!data::is_write(out.mode) && !data::is_redux(out.mode)) {
      continue;
    }
    const bool read = std::any_of(
        child.accesses().begin(), child.accesses().end(),
        [&](const data::Access& in) {
          return data::is_read(in.mode) && in.data == out.data;
        });
    if (read) {
      bytes += registry.handle(out.data).bytes;
    }
  }
  return bytes;
}

/// Checks `view` (built over `tasks`) against the brute-force graph and
/// returns the number of edges it has.
std::size_t expect_matches_brute_force(const core::SchedContext& ctx,
                                       const std::vector<core::Task*>& tasks,
                                       const TaskGraphView& view) {
  std::map<core::TaskId, std::size_t> index;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    index[tasks[i]->id()] = i;
  }
  std::size_t edges = 0;
  for (std::size_t child = 0; child < tasks.size(); ++child) {
    std::vector<std::size_t> parents;
    for (const core::TaskId id : tasks[child]->dependencies) {
      if (index.count(id) != 0) {
        parents.push_back(index.at(id));
      }
    }
    EXPECT_EQ(view.graph().predecessors(child), parents)
        << "task " << tasks[child]->id();
    const auto bytes = view.in_edge_bytes(child);
    EXPECT_EQ(bytes.size(), parents.size());
    for (std::size_t k = 0; k < parents.size() && k < bytes.size(); ++k) {
      const std::uint64_t expected =
          brute_bytes(ctx.data_registry(), *tasks[parents[k]], *tasks[child]);
      EXPECT_EQ(bytes[k], expected);
      EXPECT_EQ(view.edge_bytes(parents[k], child), expected);
    }
    edges += parents.size();
  }
  EXPECT_EQ(view.graph().edge_count(), edges);
  return edges;
}

/// The view's ranks against util::Digraph's successor-side recurrences
/// over the same edge costs, compared with ==.
void expect_ranks_match_successor_recurrence(const core::SchedContext& ctx,
                                             const TaskGraphView& view) {
  const perf::TransferModel comm(ctx.platform());
  const auto edge_cost = [&](std::size_t a, std::size_t b) {
    return comm.mean_time_s(view.edge_bytes(a, b));
  };
  EXPECT_EQ(view.upward_ranks(ctx.platform()),
            view.graph().upward_ranks(view.mean_exec(), edge_cost));
  EXPECT_EQ(view.downward_ranks(ctx.platform()),
            view.graph().downward_ranks(view.mean_exec(), edge_cost));
}

TEST(TaskGraphView, MatchesBruteForceAcrossWaves) {
  const hw::Platform platform = hw::make_cpu_only(2);
  std::vector<std::size_t> edges_per_check;
  std::size_t wave = 0;
  const auto check = [&](const core::SchedContext& ctx,
                         const std::vector<core::Task*>& tasks) {
    ++wave;
    const TaskGraphView whole = TaskGraphView::build(ctx, tasks);
    edges_per_check.push_back(expect_matches_brute_force(ctx, tasks, whole));
    expect_ranks_match_successor_recurrence(ctx, whole);
    if (wave != 2) {
      return;
    }
    // Wave 2 is t3..t8 at view indices 0..5; spot-check the brute force.
    EXPECT_EQ(whole.edge_bytes(2, 3), 8000u);   // t5 -> t6 over d
    EXPECT_EQ(whole.edge_bytes(0, 3), 1000u);   // t3 -> t6 over a
    EXPECT_EQ(whole.edge_bytes(4, 5), 16000u);  // t7 -> t8 over e
    // Non-edge pairs: a reversed edge and two unrelated tasks.
    EXPECT_EQ(whole.edge_bytes(1, 0), 0u);
    EXPECT_EQ(whole.edge_bytes(0, 4), 0u);

    // A duplicated dependency is two edges, each with the edge's bytes.
    core::Task& t6 = *tasks[3];
    t6.dependencies.push_back(t6.dependencies.front());
    const TaskGraphView duplicated = TaskGraphView::build(ctx, tasks);
    edges_per_check.push_back(
        expect_matches_brute_force(ctx, tasks, duplicated));
    expect_ranks_match_successor_recurrence(ctx, duplicated);
    const auto t6_bytes = duplicated.in_edge_bytes(3);
    EXPECT_EQ(std::vector<std::uint64_t>(t6_bytes.begin(), t6_bytes.end()),
              (std::vector<std::uint64_t>{8000, 1000, 8000}));
    t6.dependencies.pop_back();

    // Non-contiguous ids 3, 5, 6, 8: t4 and t7 drop out of the view, so
    // t8's parent t7 is absent like the earlier wave's parents.
    const std::vector<core::Task*> subset = {tasks[0], tasks[2], tasks[3],
                                             tasks[5]};
    const TaskGraphView sparse = TaskGraphView::build(ctx, subset);
    edges_per_check.push_back(
        expect_matches_brute_force(ctx, subset, sparse));
    expect_ranks_match_successor_recurrence(ctx, sparse);
  };
  core::Runtime rt(platform, std::make_unique<ViewProbe>(check));
  const core::CodeletPtr codelet = testing::cpu_only_codelet();
  const auto a = rt.register_data("a", 1000);
  const auto b = rt.register_data("b", 2000);
  const auto c = rt.register_data("c", 4000);
  const auto d = rt.register_data("d", 8000);
  const auto e = rt.register_data("e", 16000);

  // Wave 1: t0 and t1 feed t2.
  rt.submit("t0", codelet, 1e9, {{a, AccessMode::Write}});
  rt.submit("t1", codelet, 1e9, {{b, AccessMode::Write}});
  rt.submit("t2", codelet, 1e9,
            {{a, AccessMode::Read}, {b, AccessMode::Read},
             {c, AccessMode::Write}});
  rt.wait_all();

  // Wave 2 (ids 3..8): t3, t5 and t8 also depend on completed wave-1
  // tasks, which are outside the wave's view.
  rt.submit("t3", codelet, 1e9, {{c, AccessMode::Read}, {a, AccessMode::Write}});
  rt.submit("t4", codelet, 1e9, {{a, AccessMode::Read}});
  rt.submit("t5", codelet, 1e9,
            {{c, AccessMode::Read}, {a, AccessMode::Read},
             {d, AccessMode::Write}});
  rt.submit("t6", codelet, 1e9,
            {{d, AccessMode::ReadWrite}, {a, AccessMode::Read}});
  rt.submit("t7", codelet, 1e9, {{e, AccessMode::Write}});
  rt.submit("t8", codelet, 1e9,
            {{e, AccessMode::Read}, {d, AccessMode::Read},
             {b, AccessMode::Read}});
  rt.wait_all();

  ASSERT_EQ(wave, 2u);
  // Wave 1: t0->t2, t1->t2. Wave 2: t3->t4, t3->t5, t5->t6, t3->t6,
  // t7->t8, t6->t8 (t3, t5 and t8 also list completed wave-1 parents);
  // then one duplicate on t6; the subset keeps t3->t5, t5->t6, t3->t6,
  // t6->t8.
  EXPECT_EQ(edges_per_check, (std::vector<std::size_t>{2, 6, 7, 4}));
}

TEST(TaskGraphView, RanksMatchSuccessorRecurrenceOnLayeredDag) {
  const hw::Platform platform = hw::make_hpc_node(4, 2);
  const workflow::Workflow wf =
      workflow::make_random_layered(12, 25, 1.0, 11, 2e8);
  const workflow::CodeletLibrary library =
      workflow::CodeletLibrary::standard();
  std::size_t checks = 0;
  const auto check = [&](const core::SchedContext& ctx,
                         const std::vector<core::Task*>& tasks) {
    ++checks;
    const TaskGraphView view = TaskGraphView::build(ctx, tasks);
    EXPECT_GT(expect_matches_brute_force(ctx, tasks, view), tasks.size());
    expect_ranks_match_successor_recurrence(ctx, view);
  };
  core::Runtime rt(platform, std::make_unique<ViewProbe>(check));
  workflow::submit_workflow(rt, wf, library);
  rt.wait_all();
  EXPECT_EQ(checks, 1u);
}

}  // namespace
}  // namespace hetflow::sched
