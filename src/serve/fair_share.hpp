// Weighted fair-share release queue with priority tiers.
//
// The serve engine releases queued workflows into execution batches; this
// class decides WHO goes next. The rule is deterministic and independently
// re-checkable (serve/audit.hpp re-derives it from its own mirror):
//
//   eligible(t)  :=  backlog(t) non-empty
//                 && released_in_batch(t) < max_in_flight(t)
//
//   next tenant  :=  lexicographic argmin over eligible tenants of
//                      ( -priority,                    // higher tier first
//                        normalized_consumption(t),    // deficit fairness
//                        t )                           // stable tie-break
//
//   normalized_consumption(t) := device_seconds(t) / weight(t)
//
// Device-seconds are attributed after a batch executes (costs are not
// known at release time), so within one batch the deficit is the stale
// pre-batch value plus nothing — the per-batch in-flight cap is what
// bounds how far one tenant can run ahead before its consumption catches
// up in the ledger. That yields the bounded-starvation guarantee the
// checker enforces: two continuously-backlogged tenants in the same tier
// never drift further apart (normalized) than one batch's worth of their
// largest workflow.
//
// Cost: every operation touches only the tenant it names, so a batch
// costs O(released log T) however many tenants are registered. The
// per-batch release counts are stamped with a batch epoch (begin_batch
// bumps the epoch instead of zeroing T counters), and the eligible
// tenants sit in one indexed binary heap that is kept exact on every
// push, pop and note_consumed.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "serve/tenant.hpp"

namespace hetflow::serve {

/// Opaque job handle: index into the engine's job table.
using JobRef = std::uint32_t;

class FairShareQueue {
 public:
  /// Registers a tenant; ids are dense and assigned in call order.
  TenantId add_tenant(TenantSpec spec);

  std::size_t tenant_count() const noexcept { return tenants_.size(); }
  const TenantSpec& spec(TenantId t) const { return tenants_.at(t).spec; }
  std::size_t backlog_size(TenantId t) const {
    return tenants_.at(t).backlog.size();
  }
  /// FIFO view of the tenant's queued jobs (checkpoint serialization).
  std::span<const JobRef> backlog(TenantId t) const {
    return tenants_.at(t).backlog.jobs();
  }
  /// Jobs queued across every tenant (excludes any overflow queue the
  /// engine keeps in front of admission).
  std::size_t total_backlog() const noexcept { return total_backlog_; }
  double consumed(TenantId t) const { return tenants_.at(t).consumed; }
  double normalized_consumption(TenantId t) const {
    const Entry& e = tenants_.at(t);
    return e.consumed / e.spec.weight;
  }

  /// Appends a job to the tenant's backlog (admission already passed).
  void push(TenantId t, JobRef job);

  /// Starts a new batch: every tenant's release count drops to zero.
  /// Call before a release loop. Costs O(tenants capped last batch).
  void begin_batch();

  /// The tenant the rule picks next, or kInvalidTenant when no tenant is
  /// eligible (every backlog empty, or all capped for this batch).
  TenantId next_tenant() const noexcept {
    return heap_.empty() ? kInvalidTenant : heap_.front().id;
  }

  /// Pops the front of `t`'s backlog and charges one in-batch release.
  /// `t` must be the value next_tenant() returned.
  JobRef pop(TenantId t);

  /// Attributes executed device-seconds to the tenant's deficit ledger.
  void note_consumed(TenantId t, double device_seconds);

  /// True when some eligible tenant exists (mirrors next_tenant()).
  bool any_eligible() const noexcept { return !heap_.empty(); }

  std::size_t released_in_batch(TenantId t) const {
    return released(tenants_.at(t));
  }

 private:
  static constexpr std::uint32_t kNotQueued = static_cast<std::uint32_t>(-1);

  /// One tenant's FIFO of queued jobs: a vector with a moving head, so the
  /// queued jobs stay contiguous and a move never allocates or throws.
  /// (std::deque allocates even when empty, and its move constructor may
  /// throw, so growing the tenant table would copy every backlog.)
  class Backlog {
   public:
    bool empty() const noexcept { return head_ == items_.size(); }
    std::size_t size() const noexcept { return items_.size() - head_; }
    JobRef front() const noexcept { return items_[head_]; }
    /// The queued jobs, oldest first.
    std::span<const JobRef> jobs() const noexcept {
      return std::span<const JobRef>(items_).subspan(head_);
    }

    void push_back(JobRef job) {
      // Reuse the dead prefix before growing once it is at least half the
      // buffer: each shift moves no more jobs than it reclaims.
      if (items_.size() == items_.capacity() && 2 * head_ >= items_.size()) {
        items_.erase(items_.begin(),
                     items_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
      items_.push_back(job);
    }
    void pop_front() noexcept {
      if (++head_ == items_.size()) {
        items_.clear();
        head_ = 0;
      }
    }

   private:
    std::vector<JobRef> items_;
    std::size_t head_ = 0;
  };

  struct Entry {
    TenantSpec spec;
    Backlog backlog;
    double consumed = 0.0;
    /// Releases charged in batch `release_epoch`; stale (zero) once the
    /// queue's epoch moves past it.
    std::size_t released = 0;
    std::uint64_t release_epoch = 0;
    /// Position in heap_, or kNotQueued when the tenant is not eligible.
    std::uint32_t heap_pos = kNotQueued;
  };
  // Tenant-table growth must move entries, not copy their backlogs.
  static_assert(std::is_nothrow_move_constructible_v<Entry>);

  /// Heap entry for the release selection: an eligible tenant and its
  /// current rule key. The heap holds exactly the eligible tenants, each
  /// once, and every key is current — push/pop insert or remove the one
  /// tenant whose eligibility changed, note_consumed re-keys it in place
  /// — so the front is always the rule's pick.
  struct HeapItem {
    int priority = 0;
    double norm = 0.0;
    TenantId id = kInvalidTenant;
  };

  /// True when `a` is the better release pick: higher priority tier,
  /// then smaller weighted deficit, then smaller id. The heap front is
  /// the item no other item beats — the rule's lexicographic argmin.
  static bool before(const HeapItem& a, const HeapItem& b) noexcept {
    if (a.priority != b.priority) {
      return a.priority > b.priority;
    }
    if (a.norm != b.norm) {
      return a.norm < b.norm;
    }
    return a.id < b.id;
  }

  std::size_t released(const Entry& e) const noexcept {
    return e.release_epoch == epoch_ ? e.released : 0;
  }
  bool eligible(const Entry& e) const noexcept {
    return !e.backlog.empty() && released(e) < e.spec.max_in_flight;
  }

  /// Inserts `t` into the heap when it is eligible and not yet there.
  void admit(TenantId t);
  void heap_remove(std::uint32_t pos);
  /// Restores heap order around `pos` after its key changed.
  void heap_fix(std::uint32_t pos);
  void sift_up(std::uint32_t pos);
  void sift_down(std::uint32_t pos);
  void place(std::uint32_t pos, const HeapItem& item) {
    heap_[pos] = item;
    tenants_[item.id].heap_pos = pos;
  }

  std::vector<Entry> tenants_;
  std::size_t total_backlog_ = 0;
  std::vector<HeapItem> heap_;
  std::uint64_t epoch_ = 0;
  /// Tenants that reached max_in_flight in the current batch: the only
  /// ones begin_batch may have to re-admit.
  std::vector<TenantId> capped_;
};

}  // namespace hetflow::serve
