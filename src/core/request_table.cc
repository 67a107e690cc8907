#include "src/core/request_table.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/core/contract.h"

namespace odyssey {

namespace {

bool Violates(const ResourceDescriptor& descriptor, double level) {
  return level < descriptor.lower || level > descriptor.upper;
}

}  // namespace

size_t RequestTable::ResourceSlot(ResourceId resource) {
  const auto index = static_cast<size_t>(resource);
  ODY_DCHECK(index < kNumResources);
  return index;
}

// --- Interval index: two position-tracked binary heaps per class ---

std::vector<RequestTable::HeapNode>& RequestTable::HeapOf(ClassIndex& index, Side side) {
  return side == Side::kLower ? index.lower : index.upper;
}

uint32_t& RequestTable::PosOf(uint32_t slot, Side side) {
  return side == Side::kLower ? slots_[slot].lower_pos : slots_[slot].upper_pos;
}

bool RequestTable::Above(Side side, const HeapNode& a, const HeapNode& b) {
  return side == Side::kLower ? a.bound > b.bound : a.bound < b.bound;
}

void RequestTable::SiftUp(std::vector<HeapNode>& heap, Side side, uint32_t pos) {
  const HeapNode node = heap[pos];
  while (pos > 0) {
    const uint32_t parent = (pos - 1) / 2;
    if (!Above(side, node, heap[parent])) {
      break;
    }
    heap[pos] = heap[parent];
    PosOf(heap[pos].slot, side) = pos;
    pos = parent;
  }
  heap[pos] = node;
  PosOf(node.slot, side) = pos;
}

void RequestTable::SiftDown(std::vector<HeapNode>& heap, Side side, uint32_t pos) {
  const HeapNode node = heap[pos];
  const auto size = static_cast<uint32_t>(heap.size());
  while (true) {
    uint32_t child = 2 * pos + 1;
    if (child >= size) {
      break;
    }
    if (child + 1 < size && Above(side, heap[child + 1], heap[child])) {
      ++child;
    }
    if (!Above(side, heap[child], node)) {
      break;
    }
    heap[pos] = heap[child];
    PosOf(heap[pos].slot, side) = pos;
    pos = child;
  }
  heap[pos] = node;
  PosOf(node.slot, side) = pos;
}

void RequestTable::HeapInsert(ClassIndex& index, Side side, double bound, uint32_t slot) {
  std::vector<HeapNode>& heap = HeapOf(index, side);
  heap.push_back(HeapNode{bound, slot});
  SiftUp(heap, side, static_cast<uint32_t>(heap.size() - 1));
}

void RequestTable::HeapErase(ClassIndex& index, Side side, uint32_t slot) {
  std::vector<HeapNode>& heap = HeapOf(index, side);
  const uint32_t pos = PosOf(slot, side);
  ODY_DCHECK(pos < heap.size() && heap[pos].slot == slot, "heap position out of sync");
  PosOf(slot, side) = kNone;
  const HeapNode last = heap.back();
  heap.pop_back();
  if (pos == heap.size()) {
    return;  // the erased node was the last one
  }
  // The former last node fills the hole and moves whichever way it must.
  heap[pos] = last;
  if (pos > 0 && Above(side, last, heap[(pos - 1) / 2])) {
    SiftUp(heap, side, pos);
  } else {
    SiftDown(heap, side, pos);
  }
}

void RequestTable::IndexInsert(size_t r, uint32_t index) {
  const Slot& slot = slots_[index];
  std::vector<ClassIndex>& classes = resources_[r].classes;
  if (slot.klass >= classes.size()) {
    classes.resize(static_cast<size_t>(slot.klass) + 1);
  }
  ClassIndex& cls = classes[slot.klass];
  HeapInsert(cls, Side::kLower, slot.entry.descriptor.lower, index);
  HeapInsert(cls, Side::kUpper, slot.entry.descriptor.upper, index);
}

void RequestTable::IndexErase(size_t r, uint32_t index) {
  ClassIndex& cls = resources_[r].classes[slots_[index].klass];
  HeapErase(cls, Side::kLower, index);
  HeapErase(cls, Side::kUpper, index);
}

// --- Buckets: intrusive per-(resource, app) lists ---

uint32_t RequestTable::BucketHead(size_t r, AppId app) const {
  const std::vector<uint32_t>& heads = resources_[r].bucket_head;
  return app < heads.size() ? heads[app] : kNone;
}

void RequestTable::BucketLink(size_t r, uint32_t index) {
  std::vector<uint32_t>& heads = resources_[r].bucket_head;
  Slot& slot = slots_[index];
  const AppId app = slot.entry.app;
  if (app >= heads.size()) {
    heads.resize(app + 1, kNone);
  }
  slot.prev = kNone;
  slot.next = heads[app];
  if (slot.next != kNone) {
    slots_[slot.next].prev = index;
  }
  heads[app] = index;
}

void RequestTable::BucketUnlink(size_t r, uint32_t index) {
  Slot& slot = slots_[index];
  if (slot.prev != kNone) {
    slots_[slot.prev].next = slot.next;
  } else {
    resources_[r].bucket_head[slot.entry.app] = slot.next;
  }
  if (slot.next != kNone) {
    slots_[slot.next].prev = slot.prev;
  }
  slot.prev = kNone;
  slot.next = kNone;
}

// --- Table operations ---

RequestId RequestTable::Register(AppId app, const ResourceDescriptor& descriptor,
                                 uint32_t klass) {
  // A NaN bound would corrupt both heaps' order (every comparison with it
  // is false); the viceroy rejects such windows before they get here.
  ODY_DCHECK(!std::isnan(descriptor.lower) && !std::isnan(descriptor.upper),
             "NaN window bound");
  const RequestId id = next_id_++;
  uint32_t index;
  if (!free_.empty()) {
    index = free_.back();
    free_.pop_back();
  } else {
    index = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.entry = Entry{id, app, descriptor};
  slot.klass = klass;

  const size_t r = ResourceSlot(descriptor.resource);
  by_id_.emplace(id, index);
  BucketLink(r, index);
  IndexInsert(r, index);
  return id;
}

void RequestTable::Reclassify(AppId app, uint32_t klass) {
  for (size_t r = 0; r < kNumResources; ++r) {
    for (uint32_t index = BucketHead(r, app); index != kNone; index = slots_[index].next) {
      if (slots_[index].klass == klass) {
        continue;
      }
      IndexErase(r, index);
      slots_[index].klass = klass;
      IndexInsert(r, index);
    }
  }
}

void RequestTable::Release(uint32_t index) {
  Slot& slot = slots_[index];
  const size_t r = ResourceSlot(slot.entry.descriptor.resource);
  IndexErase(r, index);
  BucketUnlink(r, index);
  by_id_.erase(slot.entry.id);
  slot.entry = Entry{};  // drops the handler closure promptly
  slot.klass = 0;
  free_.push_back(index);
}

Status RequestTable::Cancel(RequestId id) {
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    return NotFoundError("no such request");
  }
  Release(it->second);
  return OkStatus();
}

std::vector<RequestTable::Entry> RequestTable::TakeViolated(ResourceId resource, AppId app,
                                                            double level) {
  std::vector<uint32_t> violated;
  for (uint32_t index = BucketHead(ResourceSlot(resource), app); index != kNone;
       index = slots_[index].next) {
    if (Violates(slots_[index].entry.descriptor, level)) {
      violated.push_back(index);
    }
  }
  if (violated.empty()) {
    return {};
  }
  // Slot recycling scrambles in-bucket order; the observable contract is
  // ascending id (the order the old full-scan map iteration produced).
  std::sort(violated.begin(), violated.end(), [this](uint32_t a, uint32_t b) {
    return slots_[a].entry.id < slots_[b].entry.id;
  });
  std::vector<Entry> result;
  result.reserve(violated.size());
  for (const uint32_t index : violated) {
    // Moving the entry only pilfers the handler closure; the scalar fields
    // Release() keys its unlinking on are still intact.
    result.push_back(std::move(slots_[index].entry));
    Release(index);
  }
  return result;
}

std::vector<RequestTable::Entry> RequestTable::EntriesFor(AppId app, ResourceId resource) const {
  std::vector<Entry> matching;
  for (uint32_t index = BucketHead(ResourceSlot(resource), app); index != kNone;
       index = slots_[index].next) {
    matching.push_back(slots_[index].entry);
  }
  std::sort(matching.begin(), matching.end(),
            [](const Entry& a, const Entry& b) { return a.id < b.id; });
  return matching;
}

void RequestTable::CollectViolatedApps(ResourceId resource, double level,
                                       std::vector<AppId>* out) const {
  const std::vector<ClassIndex>& classes = resources_[ResourceSlot(resource)].classes;
  for (size_t klass = 0; klass < classes.size(); ++klass) {
    CollectViolatedApps(resource, static_cast<uint32_t>(klass), level, out);
  }
}

void RequestTable::CollectViolatedApps(ResourceId resource, uint32_t klass, double level,
                                       std::vector<AppId>* out) const {
  const std::vector<ClassIndex>& classes = resources_[ResourceSlot(resource)].classes;
  if (klass >= classes.size()) {
    return;
  }
  // Walks the subtree of nodes whose bound is violated: in a heap every
  // node is at least as extreme as its descendants, so a node that does
  // not violate prunes its whole subtree.  Each visited node is either
  // reported or a pruned child of a reported one, so the walk costs
  // O(reported).
  const auto walk = [this, level, out](const std::vector<HeapNode>& heap, Side side) {
    const auto visit = [&](const auto& self, size_t pos) -> void {
      if (pos >= heap.size()) {
        return;
      }
      const double bound = heap[pos].bound;
      if (side == Side::kLower ? !(bound > level) : !(bound < level)) {
        return;
      }
      out->push_back(slots_[heap[pos].slot].entry.app);
      self(self, 2 * pos + 1);
      self(self, 2 * pos + 2);
    };
    visit(visit, 0);
  };
  const ClassIndex& cls = classes[klass];
  walk(cls.lower, Side::kLower);  // windows with lower > level
  walk(cls.upper, Side::kUpper);  // windows with upper < level
}

}  // namespace odyssey
