// Serve policy units: admission decisions, the fair-share release rule
// (the incremental heap vs a reference linear scan and a reference model
// of the whole queue), the generated job and tenant names, and the JSONL
// protocol parser.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "serve/admission.hpp"
#include "serve/fair_share.hpp"
#include "serve/names.hpp"
#include "serve/protocol.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace hetflow::serve {
namespace {

TEST(Admission, TenantCapRejectsBeforeGlobalPolicy) {
  AdmissionController::Limits limits;
  limits.max_pending = 100;
  limits.policy = BackpressurePolicy::Defer;
  const AdmissionController admission(limits);
  // Tenant already at its cap: rejected even though the system has room.
  EXPECT_EQ(admission.decide(4, 4, 10, 0), AdmissionDecision::Rejected);
  EXPECT_EQ(admission.decide(3, 4, 10, 0), AdmissionDecision::Admitted);
}

TEST(Admission, GlobalCapDefersThenRejectsWhenOverflowFills) {
  AdmissionController::Limits limits;
  limits.max_pending = 10;
  limits.defer_cap = 2;
  limits.policy = BackpressurePolicy::Defer;
  const AdmissionController admission(limits);
  EXPECT_EQ(admission.decide(0, 4, 9, 0), AdmissionDecision::Admitted);
  EXPECT_EQ(admission.decide(0, 4, 10, 0), AdmissionDecision::Deferred);
  EXPECT_EQ(admission.decide(0, 4, 10, 1), AdmissionDecision::Deferred);
  EXPECT_EQ(admission.decide(0, 4, 10, 2), AdmissionDecision::Rejected);
}

TEST(Admission, RejectPolicyNeverDefers) {
  AdmissionController::Limits limits;
  limits.max_pending = 10;
  limits.defer_cap = 1000;
  limits.policy = BackpressurePolicy::Reject;
  const AdmissionController admission(limits);
  EXPECT_EQ(admission.decide(0, 4, 10, 0), AdmissionDecision::Rejected);
}

TenantSpec spec_of(double weight, int priority, std::size_t cap = 100,
                   std::size_t in_flight = 100) {
  TenantSpec spec;
  spec.weight = weight;
  spec.priority = priority;
  spec.backlog_cap = cap;
  spec.max_in_flight = in_flight;
  return spec;
}

TEST(FairShare, PriorityTiersReleaseStrictlyFirst) {
  FairShareQueue queue;
  const TenantId lo = queue.add_tenant(spec_of(1.0, 0));
  const TenantId hi = queue.add_tenant(spec_of(1.0, 5));
  queue.push(lo, 0);
  queue.push(hi, 1);
  queue.push(hi, 2);
  queue.begin_batch();
  EXPECT_EQ(queue.next_tenant(), hi);
  EXPECT_EQ(queue.pop(hi), 1u);
  EXPECT_EQ(queue.next_tenant(), hi);
  EXPECT_EQ(queue.pop(hi), 2u);
  EXPECT_EQ(queue.next_tenant(), lo);
}

TEST(FairShare, WeightedDeficitPicksLeastNormalizedConsumption) {
  FairShareQueue queue;
  const TenantId heavy = queue.add_tenant(spec_of(2.0, 0));
  const TenantId light = queue.add_tenant(spec_of(1.0, 0));
  queue.note_consumed(heavy, 4.0);  // normalized 2.0
  queue.note_consumed(light, 3.0);  // normalized 3.0
  queue.push(heavy, 0);
  queue.push(light, 1);
  queue.begin_batch();
  EXPECT_EQ(queue.next_tenant(), heavy);
  EXPECT_DOUBLE_EQ(queue.normalized_consumption(heavy), 2.0);
  EXPECT_DOUBLE_EQ(queue.normalized_consumption(light), 3.0);
}

TEST(FairShare, IdBreaksExactTies) {
  FairShareQueue queue;
  const TenantId a = queue.add_tenant(spec_of(1.0, 0));
  const TenantId b = queue.add_tenant(spec_of(1.0, 0));
  queue.push(b, 0);
  queue.push(a, 1);
  queue.begin_batch();
  EXPECT_EQ(queue.next_tenant(), a);
}

TEST(FairShare, MaxInFlightCapsPerBatchAndResetsNextBatch) {
  FairShareQueue queue;
  const TenantId t = queue.add_tenant(spec_of(1.0, 0, 100, 2));
  queue.push(t, 0);
  queue.push(t, 1);
  queue.push(t, 2);
  queue.begin_batch();
  EXPECT_EQ(queue.pop(queue.next_tenant()), 0u);
  EXPECT_EQ(queue.pop(queue.next_tenant()), 1u);
  EXPECT_EQ(queue.next_tenant(), kInvalidTenant);  // capped for this batch
  EXPECT_FALSE(queue.any_eligible());
  EXPECT_EQ(queue.total_backlog(), 1u);
  queue.begin_batch();
  EXPECT_EQ(queue.pop(queue.next_tenant()), 2u);
  EXPECT_EQ(queue.total_backlog(), 0u);
}

/// Reference implementation of the release rule: linear scan for the
/// lexicographic argmin. The heap in FairShareQueue must agree with this
/// on every query of a randomized push/pop/consume sequence.
TenantId linear_argmin(const FairShareQueue& queue) {
  TenantId best = kInvalidTenant;
  for (TenantId t = 0; t < queue.tenant_count(); ++t) {
    if (queue.backlog_size(t) == 0 ||
        queue.released_in_batch(t) >= queue.spec(t).max_in_flight) {
      continue;
    }
    if (best == kInvalidTenant ||
        queue.spec(t).priority > queue.spec(best).priority ||
        (queue.spec(t).priority == queue.spec(best).priority &&
         queue.normalized_consumption(t) <
             queue.normalized_consumption(best))) {
      best = t;
    }
  }
  return best;
}

TEST(FairShare, HeapAgreesWithLinearReferenceUnderRandomLoad) {
  util::Rng rng(2026);
  FairShareQueue queue;
  for (int i = 0; i < 17; ++i) {
    queue.add_tenant(spec_of(1.0 + (i % 4), i % 3, 8, 1 + (i % 3)));
  }
  JobRef next_job = 0;
  for (int batch = 0; batch < 50; ++batch) {
    for (int i = 0; i < 30; ++i) {
      const auto t = static_cast<TenantId>(rng.uniform_int(0, 16));
      if (queue.backlog_size(t) < queue.spec(t).backlog_cap) {
        queue.push(t, next_job++);
      }
    }
    queue.begin_batch();
    std::size_t released = 0;
    while (released < 20) {
      const TenantId expected = linear_argmin(queue);
      ASSERT_EQ(queue.next_tenant(), expected) << "batch " << batch;
      if (expected == kInvalidTenant) {
        break;
      }
      queue.pop(expected);
      ++released;
      if (rng.uniform_int(0, 3) == 0) {
        queue.note_consumed(expected, rng.uniform(0.1, 2.0));
      }
    }
  }
}

TEST(FairShare, PushToCappedTenantWaitsForNextBatch) {
  FairShareQueue queue;
  const TenantId capped = queue.add_tenant(spec_of(1.0, 0, 100, 1));
  const TenantId other = queue.add_tenant(spec_of(1.0, 0, 100, 1));
  queue.note_consumed(other, 1.0);
  queue.push(capped, 0);
  queue.begin_batch();
  EXPECT_EQ(queue.pop(queue.next_tenant()), 0u);
  queue.push(capped, 1);  // capped this batch: stays out
  EXPECT_EQ(queue.next_tenant(), kInvalidTenant);
  queue.push(other, 2);
  EXPECT_EQ(queue.pop(queue.next_tenant()), 2u);
  EXPECT_FALSE(queue.any_eligible());
  queue.begin_batch();  // re-admits `capped`, whose backlog is non-empty
  EXPECT_EQ(queue.released_in_batch(capped), 0u);
  EXPECT_EQ(queue.next_tenant(), capped);
  EXPECT_EQ(queue.pop(capped), 1u);
}

TEST(FairShare, ConsumptionOfIneligibleTenantCountsOnReturn) {
  FairShareQueue queue;
  const TenantId a = queue.add_tenant(spec_of(1.0, 0));
  const TenantId b = queue.add_tenant(spec_of(1.0, 0));
  queue.note_consumed(a, 5.0);  // empty backlog: not in the heap
  queue.note_consumed(b, 1.0);
  queue.push(a, 0);
  queue.push(b, 1);
  queue.begin_batch();
  EXPECT_EQ(queue.next_tenant(), b);
  queue.note_consumed(b, 10.0);  // eligible tenant re-keyed in place
  EXPECT_EQ(queue.next_tenant(), a);
}

TEST(FairShare, ExactDeficitTiesResolveById) {
  FairShareQueue queue;
  const TenantId a = queue.add_tenant(spec_of(2.0, 0));
  const TenantId b = queue.add_tenant(spec_of(1.0, 0));
  const TenantId c = queue.add_tenant(spec_of(4.0, 0));
  queue.note_consumed(c, 4.0);  // every tenant's deficit is exactly 1.0
  queue.note_consumed(b, 1.0);
  queue.note_consumed(a, 2.0);
  queue.push(c, 0);
  queue.push(b, 1);
  queue.push(a, 2);
  queue.begin_batch();
  EXPECT_EQ(queue.pop(queue.next_tenant()), 2u);
  EXPECT_EQ(queue.pop(queue.next_tenant()), 1u);
  EXPECT_EQ(queue.pop(queue.next_tenant()), 0u);
}

/// Reference model of the whole queue, kept apart from FairShareQueue:
/// plain per-tenant FIFOs and counters, begin_batch zeroing every count,
/// and the release rule evaluated by a linear scan.
class ReferenceQueue {
 public:
  void add_tenant(const TenantSpec& spec) {
    Tenant tenant;
    tenant.spec = spec;
    tenants_.push_back(tenant);
  }
  void push(TenantId t, JobRef job) { tenants_[t].backlog.push_back(job); }
  void begin_batch() {
    for (Tenant& tenant : tenants_) {
      tenant.released = 0;
    }
  }
  void note_consumed(TenantId t, double seconds) {
    tenants_[t].consumed += seconds;
  }
  JobRef pop(TenantId t) {
    Tenant& tenant = tenants_[t];
    const JobRef job = tenant.backlog.front();
    tenant.backlog.erase(tenant.backlog.begin());
    ++tenant.released;
    return job;
  }
  TenantId next_tenant() const {
    TenantId best = kInvalidTenant;
    for (TenantId t = 0; t < tenants_.size(); ++t) {
      const Tenant& tenant = tenants_[t];
      if (tenant.backlog.empty() ||
          tenant.released >= tenant.spec.max_in_flight) {
        continue;
      }
      if (best == kInvalidTenant ||
          tenant.spec.priority > tenants_[best].spec.priority ||
          (tenant.spec.priority == tenants_[best].spec.priority &&
           norm(t) < norm(best))) {
        best = t;
      }
    }
    return best;
  }
  std::size_t backlog_size(TenantId t) const {
    return tenants_[t].backlog.size();
  }
  std::size_t released(TenantId t) const { return tenants_[t].released; }

 private:
  struct Tenant {
    TenantSpec spec;
    std::vector<JobRef> backlog;
    std::size_t released = 0;
    double consumed = 0.0;
  };
  double norm(TenantId t) const {
    return tenants_[t].consumed / tenants_[t].spec.weight;
  }
  std::vector<Tenant> tenants_;
};

TEST(FairShare, IncrementalHeapAgreesWithReferenceModel) {
  // 10^3 tenants over 100 batches. Consumption comes in multiples of 0.5
  // against weights 1, 2 and 4, so exact deficit ties are common; caps of
  // 1-3 against backlogs up to 6 make begin_batch re-admit capped
  // tenants; pushes and consumption land on tenants in every state
  // (eligible, capped, empty) mid-batch as well as between batches.
  constexpr TenantId kTenants = 1000;
  util::Rng rng(16);
  FairShareQueue queue;
  ReferenceQueue reference;
  for (TenantId t = 0; t < kTenants; ++t) {
    const TenantSpec spec =
        spec_of(static_cast<double>(1u << (t % 3)),
                static_cast<int>(t % 7 == 0), 6, 1 + t % 3);
    queue.add_tenant(spec);
    reference.add_tenant(spec);
  }
  JobRef next_job = 0;
  std::size_t capped_seen = 0;
  std::size_t released_total = 0;
  const auto random_tenant = [&rng] {
    return static_cast<TenantId>(rng.uniform_int(0, kTenants - 1));
  };
  const auto push_some = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const TenantId t = random_tenant();
      if (queue.backlog_size(t) < queue.spec(t).backlog_cap) {
        queue.push(t, next_job);
        reference.push(t, next_job);
        ++next_job;
      }
    }
  };
  const auto consume_some = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const TenantId t = random_tenant();
      const double seconds = 0.5 * static_cast<double>(rng.uniform_int(1, 4));
      queue.note_consumed(t, seconds);
      reference.note_consumed(t, seconds);
    }
  };
  for (int batch = 0; batch < 100; ++batch) {
    push_some(400);
    consume_some(50);
    queue.begin_batch();
    reference.begin_batch();
    for (std::size_t released = 0; released < 300; ++released) {
      const TenantId expected = reference.next_tenant();
      ASSERT_EQ(queue.next_tenant(), expected) << "batch " << batch;
      ASSERT_EQ(queue.any_eligible(), expected != kInvalidTenant);
      if (expected == kInvalidTenant) {
        break;
      }
      ASSERT_EQ(queue.pop(expected), reference.pop(expected));
      ASSERT_EQ(queue.released_in_batch(expected),
                reference.released(expected));
      ASSERT_EQ(queue.backlog_size(expected),
                reference.backlog_size(expected));
      ++released_total;
      if (reference.released(expected) == queue.spec(expected).max_in_flight &&
          reference.backlog_size(expected) > 0) {
        ++capped_seen;
      }
      if (rng.uniform_int(0, 4) == 0) {
        push_some(3);
      }
      if (rng.uniform_int(0, 4) == 0) {
        consume_some(2);
      }
    }
  }
  EXPECT_EQ(queue.total_backlog(), next_job - released_total);
  EXPECT_GT(capped_seen, 1000u);  // begin_batch re-admission is exercised
}

TEST(Names, MatchPrintfFormatting) {
  const auto task_name = [](std::uint64_t ticket, std::uint32_t i) {
    return util::format("j%llu.t%u", static_cast<unsigned long long>(ticket),
                        i);
  };
  constexpr std::uint64_t kMaxTicket = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint32_t kMaxIndex = std::numeric_limits<std::uint32_t>::max();
  for (const std::uint64_t ticket : {std::uint64_t{0}, std::uint64_t{42},
                                     kMaxTicket}) {
    NameBuilder name("j", ticket);
    for (const std::uint32_t i : {0u, 7u, kMaxIndex}) {
      EXPECT_EQ(name.with(".t", i), task_name(ticket, i));
      EXPECT_EQ(name.with(".d", i),
                util::format("j%llu.d%u",
                             static_cast<unsigned long long>(ticket), i));
    }
  }
  EXPECT_EQ(NameBuilder("j", kMaxTicket).with(".t", kMaxIndex),
            "j18446744073709551615.t4294967295");
  for (const std::size_t n : {std::size_t{0}, std::size_t{99999}}) {
    EXPECT_EQ(NameBuilder("tenant-", n).stem(),
              util::format("tenant-%zu", n));
  }
}

TEST(Protocol, ParsesScriptAndAssignsDefaults) {
  const ServeScript script = parse_script(
      "# comment\n"
      "{\"op\":\"tenant\",\"name\":\"lab\",\"weight\":2.5,\"priority\":1}\n"
      "\n"
      "{\"op\":\"submit\",\"tenant\":0,\"shape\":\"fanout\",\"tasks\":8,"
      "\"count\":3}\n"
      "{\"op\":\"batch\"}\n"
      "{\"op\":\"drain\"}\n");
  ASSERT_EQ(script.size(), 4u);
  EXPECT_EQ(script[0].kind, ScriptOp::Kind::Tenant);
  EXPECT_EQ(script[0].tenant.name, "lab");
  EXPECT_DOUBLE_EQ(script[0].tenant.weight, 2.5);
  EXPECT_EQ(script[0].tenant.priority, 1);
  EXPECT_EQ(script[1].kind, ScriptOp::Kind::Submit);
  EXPECT_EQ(script[1].target, 0u);
  EXPECT_EQ(script[1].job.shape, JobShape::Fanout);
  EXPECT_EQ(script[1].job.tasks, 8u);
  EXPECT_EQ(script[1].count, 3u);
  EXPECT_EQ(script[2].kind, ScriptOp::Kind::Batch);
  EXPECT_EQ(script[3].kind, ScriptOp::Kind::Drain);
}

TEST(Protocol, MalformedLineReportsItsNumber) {
  try {
    parse_script("{\"op\":\"batch\"}\n{\"op\":\"warp\"}\n");
    FAIL() << "expected ParseError";
  } catch (const util::ParseError& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos)
        << error.what();
  }
}

TEST(Protocol, OpsRoundTripThroughJson) {
  const ServeScript script = parse_script(
      "{\"op\":\"tenant\",\"name\":\"a\",\"weight\":2}\n"
      "{\"op\":\"submit\",\"tenant\":0,\"shape\":\"diamond\",\"tasks\":5,"
      "\"flops\":2e9,\"bytes\":4096,\"count\":2}\n"
      "{\"op\":\"drain\"}\n");
  std::string text;
  for (const ScriptOp& op : script) {
    text += op_to_json(op).dump();
    text += '\n';
  }
  const ServeScript reparsed = parse_script(text);
  ASSERT_EQ(reparsed.size(), script.size());
  EXPECT_EQ(reparsed[1].job.shape, JobShape::Diamond);
  EXPECT_EQ(reparsed[1].job.tasks, 5u);
  EXPECT_DOUBLE_EQ(reparsed[1].job.flops, 2e9);
  EXPECT_EQ(reparsed[1].job.bytes, 4096u);
  EXPECT_EQ(reparsed[1].count, 2u);
}

}  // namespace
}  // namespace hetflow::serve
