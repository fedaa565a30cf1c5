// Plan golden for the static list schedulers: pins the device HEFT, CPOP
// and PEFT choose for every task, plus HEFT's planned makespan (as a hex
// float, so a one-ulp drift shows), on three seeded DAGs. The property
// tests in sched_{heft,cpop,peft}_test check what a plan must satisfy;
// this suite catches a plan that changes while still satisfying them.
//
// To bless an intentional plan change, regenerate the references:
//
//   $ HETFLOW_REGEN_GOLDEN=1 ./sched_plan_golden_test && git diff tests/golden/
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "helpers.hpp"
#include "hw/presets.hpp"
#include "sched/cpop.hpp"
#include "sched/heft.hpp"
#include "sched/peft.hpp"
#include "util/strings.hpp"
#include "workflow/generators.hpp"
#include "workflow/linalg.hpp"
#include "workflow/workflow.hpp"

#ifndef HETFLOW_GOLDEN_DIR
#error "build must define HETFLOW_GOLDEN_DIR (see tests/CMakeLists.txt)"
#endif

namespace hetflow::sched {
namespace {

/// Runs `workflow` under a fresh `Scheduler` and returns the device each
/// task ran on, index-aligned with workflow.tasks(). Without noise or
/// faults a static scheduler releases every task to its planned device,
/// so this is the plan's device map. `inspect` sees the scheduler after
/// the run, while the runtime that owns it is still alive.
template <typename Scheduler, typename Inspect>
std::vector<hw::DeviceId> run_devices(const hw::Platform& platform,
                                      const workflow::Workflow& workflow,
                                      Inspect inspect) {
  auto scheduler = std::make_unique<Scheduler>();
  const Scheduler& planned = *scheduler;
  core::Runtime rt(platform, std::move(scheduler));
  const auto ids = workflow::submit_workflow(
      rt, workflow, workflow::CodeletLibrary::standard());
  rt.wait_all();
  inspect(planned);
  std::vector<hw::DeviceId> devices;
  devices.reserve(ids.size());
  for (core::TaskId id : ids) {
    devices.push_back(rt.task(id).device());
  }
  return devices;
}

/// One line per task — `<index> <name> <heft> <cpop> <peft>` — under a
/// header carrying HEFT's planned makespan.
std::string render_plans(const hw::Platform& platform,
                         const workflow::Workflow& workflow) {
  double heft_makespan = 0.0;
  const auto heft = run_devices<HeftScheduler>(
      platform, workflow, [&](const HeftScheduler& scheduler) {
        heft_makespan = scheduler.planned_makespan();
      });
  const auto ignore = [](const core::Scheduler&) {};
  const auto cpop = run_devices<CpopScheduler>(platform, workflow, ignore);
  const auto peft = run_devices<PeftScheduler>(platform, workflow, ignore);

  std::string out = util::format("heft_planned_makespan %a\n", heft_makespan);
  out += "index task heft cpop peft\n";
  for (std::size_t i = 0; i < workflow.tasks().size(); ++i) {
    out += util::format("%zu %s %u %u %u\n", i,
                        workflow.tasks()[i].name.c_str(),
                        static_cast<unsigned>(heft[i]),
                        static_cast<unsigned>(cpop[i]),
                        static_cast<unsigned>(peft[i]));
  }
  return out;
}

void expect_plan_golden(const std::string& name,
                        const workflow::Workflow& workflow) {
  const hw::Platform platform = hw::make_hpc_node(8, 2, 0);
  const std::string actual = render_plans(platform, workflow);
  testing::expect_golden_file(
      std::string(HETFLOW_GOLDEN_DIR) + "/plans/" + name + ".txt", actual);
}

TEST(PlanGolden, Layered) {
  // 1 200 tasks over 10 devices: each device timeline books about a
  // hundred slots, so insertion probes cross many timeline blocks.
  expect_plan_golden("layered",
                     workflow::make_random_layered(30, 40, 1.0, 7, 2e8));
}

TEST(PlanGolden, Cholesky) {
  expect_plan_golden("cholesky", workflow::make_cholesky(10, 1024));
}

TEST(PlanGolden, Montage) {
  expect_plan_golden("montage", workflow::make_montage(32));
}

}  // namespace
}  // namespace hetflow::sched
