#include "serve/fair_share.hpp"

#include "util/error.hpp"

namespace hetflow::serve {

TenantId FairShareQueue::add_tenant(TenantSpec spec) {
  HETFLOW_REQUIRE_MSG(spec.weight > 0.0, "tenant weight must be > 0");
  const TenantId id = static_cast<TenantId>(tenants_.size());
  Entry entry;
  entry.spec = std::move(spec);
  tenants_.push_back(std::move(entry));
  return id;
}

void FairShareQueue::push(TenantId t, JobRef job) {
  tenants_.at(t).backlog.push_back(job);
  ++total_backlog_;
  admit(t);
}

void FairShareQueue::begin_batch() {
  ++epoch_;
  // Every release count is now stale (zero). A tenant left out of the
  // heap only by its cap is the one kind that turns eligible here; one
  // left out by an empty backlog re-enters on its next push.
  for (const TenantId t : capped_) {
    admit(t);
  }
  capped_.clear();
}

JobRef FairShareQueue::pop(TenantId t) {
  Entry& e = tenants_.at(t);
  HETFLOW_REQUIRE_MSG(!e.backlog.empty(), "pop from empty tenant backlog");
  const JobRef job = e.backlog.front();
  e.backlog.pop_front();
  --total_backlog_;
  e.released = released(e) + 1;
  e.release_epoch = epoch_;
  if (e.released == e.spec.max_in_flight) {
    capped_.push_back(t);
  }
  if (e.heap_pos != kNotQueued && !eligible(e)) {
    heap_remove(e.heap_pos);
  }
  return job;
}

void FairShareQueue::note_consumed(TenantId t, double device_seconds) {
  Entry& e = tenants_.at(t);
  e.consumed += device_seconds;
  if (e.heap_pos != kNotQueued) {
    heap_[e.heap_pos].norm = e.consumed / e.spec.weight;
    heap_fix(e.heap_pos);
  }
}

void FairShareQueue::admit(TenantId t) {
  const Entry& e = tenants_[t];
  if (e.heap_pos != kNotQueued || !eligible(e)) {
    return;
  }
  const auto pos = static_cast<std::uint32_t>(heap_.size());
  heap_.emplace_back();
  place(pos, {e.spec.priority, e.consumed / e.spec.weight, t});
  sift_up(pos);
}

void FairShareQueue::heap_remove(std::uint32_t pos) {
  tenants_[heap_[pos].id].heap_pos = kNotQueued;
  const HeapItem last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    place(pos, last);
    heap_fix(pos);
  }
}

void FairShareQueue::heap_fix(std::uint32_t pos) {
  if (pos > 0 && before(heap_[pos], heap_[(pos - 1) / 2])) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

void FairShareQueue::sift_up(std::uint32_t pos) {
  const HeapItem item = heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    if (!before(item, heap_[parent])) {
      break;
    }
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, item);
}

void FairShareQueue::sift_down(std::uint32_t pos) {
  const HeapItem item = heap_[pos];
  const auto size = static_cast<std::uint32_t>(heap_.size());
  while (true) {
    std::uint32_t child = 2 * pos + 1;
    if (child >= size) {
      break;
    }
    if (child + 1 < size && before(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!before(heap_[child], item)) {
      break;
    }
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, item);
}

}  // namespace hetflow::serve
