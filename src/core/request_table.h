// The viceroy's table of registered resource expectations (§4.2).
//
// Each entry is a window of tolerance on one resource for one application.
// When the availability of a resource strays outside a registered window,
// the entry is consumed and an upcall is generated; the application is then
// expected to register a revised window appropriate to its new fidelity.
//
// Layout: entries live in a slab of slots recycled through a free list, so
// a client cycling through request/upcall/re-request churn reuses the same
// hot cache lines instead of exercising the allocator, and 100k concurrent
// windows sit in one contiguous allocation.  Around the slab:
//
//   * per-(resource, app) buckets — intrusive doubly-linked lists threaded
//     through the slots, headed from a vector indexed by the dense AppId —
//     making TakeViolated and EntriesFor O(app's windows) instead of
//     O(table);
//   * per-(resource, class) interval indexes: a max-heap on window lower
//     bounds and a min-heap on upper bounds, each a flat array of (bound,
//     slot) pairs with the slot recording its position in both.  A pruned
//     walk down either heap reports every window the level violates in
//     O(violated), letting CollectViolatedApps answer "whose windows does
//     this level violate" — the query the indexed viceroy re-evaluation is
//     built on — while insert and erase cost O(log class size).  The class
//     is an opaque caller partition (the viceroy uses the app's connection
//     count, a small integer): idle apps with the same class share one
//     availability level, so probing each class at its own level scans only
//     that class's windows instead of sweeping windows of every other class
//     into the candidate set.
//
// TakeViolated and EntriesFor return entries in ascending RequestId order,
// matching the original std::map-backed implementation entry for entry;
// slot reuse never leaks into their order.  CollectViolatedApps promises
// only membership (it may repeat an app), so its heap-walk order is free.

#ifndef SRC_CORE_REQUEST_TABLE_H_
#define SRC_CORE_REQUEST_TABLE_H_

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/core/resource.h"
#include "src/core/status.h"

namespace odyssey {

class RequestTable {
 public:
  struct Entry {
    RequestId id = 0;
    AppId app = 0;
    ResourceDescriptor descriptor;
  };

  // Registers a window of tolerance.  The caller has already verified the
  // window's bounds are ordered and not NaN and that the current level lies
  // within it.  |klass| partitions the interval index for scoped
  // CollectViolatedApps queries; callers that never probe by class can
  // leave it 0.
  RequestId Register(AppId app, const ResourceDescriptor& descriptor, uint32_t klass = 0);

  // Moves every window of |app| (all resources) to |klass|.  The viceroy
  // calls this when an app's connection count changes, keeping each
  // window's class equal to its owner's current count.
  void Reclassify(AppId app, uint32_t klass);

  // Discards a registration.  kNotFound if it does not exist (it may have
  // been consumed by an upcall already).
  Status Cancel(RequestId id);

  // Removes and returns every entry for (|app|, |resource|) whose window
  // excludes |level|, in ascending id order.  The caller posts upcalls for
  // the returned entries.
  std::vector<Entry> TakeViolated(ResourceId resource, AppId app, double level);

  // Whether |app| holds any window on |resource|.  O(1): a bucket-head
  // check.
  bool HasWindows(ResourceId resource, AppId app) const {
    return BucketHead(ResourceSlot(resource), app) != kNone;
  }

  // Entries registered for |app| on |resource| (diagnostics/tests), in
  // ascending id order.
  std::vector<Entry> EntriesFor(AppId app, ResourceId resource) const;

  // Appends the app of every entry on |resource| whose window excludes
  // |level|, in no particular order.  May repeat an app (one per violated
  // window); never misses one.  Does not consume entries — the caller
  // re-evaluates each reported app through the normal TakeViolated path.
  void CollectViolatedApps(ResourceId resource, double level, std::vector<AppId>* out) const;

  // As above, restricted to windows registered (or reclassified) under
  // |klass|.  Cost is O(violated in class): other classes' windows are
  // never touched, which is what keeps the indexed re-evaluation sublinear
  // when classes sit at widely different levels.
  void CollectViolatedApps(ResourceId resource, uint32_t klass, double level,
                           std::vector<AppId>* out) const;

  size_t size() const { return by_id_.size(); }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;
  static constexpr size_t kNumResources = std::size(kAllResources);

  struct Slot {
    Entry entry;
    uint32_t klass = 0;
    // Positions in the class's lower and upper heaps.
    uint32_t lower_pos = kNone;
    uint32_t upper_pos = kNone;
    // Neighbours in the (resource, app) bucket list.
    uint32_t prev = kNone;
    uint32_t next = kNone;
  };

  // A heap element carries its bound inline, so sifts and probes compare
  // contiguous memory and touch a slot only to update its position.
  struct HeapNode {
    double bound;
    uint32_t slot;
  };

  // One class's windows on one resource.  |lower| is a max-heap on window
  // lower bounds (the root is the largest, so windows with lower > level
  // form a subtree-closed prefix of the walk); |upper| is a min-heap on
  // upper bounds, mirrored.
  struct ClassIndex {
    std::vector<HeapNode> lower;
    std::vector<HeapNode> upper;
  };

  struct ResourceIndex {
    std::vector<uint32_t> bucket_head;  // by AppId; kNone = no windows
    std::vector<ClassIndex> classes;    // by class
  };

  // Which of the two heaps of a ClassIndex an operation addresses.
  enum class Side { kLower, kUpper };

  static size_t ResourceSlot(ResourceId resource);
  std::vector<HeapNode>& HeapOf(ClassIndex& index, Side side);
  uint32_t& PosOf(uint32_t slot, Side side);
  // Whether node |a| belongs nearer the root than node |b| on |side|.
  static bool Above(Side side, const HeapNode& a, const HeapNode& b);
  void SiftUp(std::vector<HeapNode>& heap, Side side, uint32_t pos);
  void SiftDown(std::vector<HeapNode>& heap, Side side, uint32_t pos);
  void HeapInsert(ClassIndex& index, Side side, double bound, uint32_t slot);
  void HeapErase(ClassIndex& index, Side side, uint32_t slot);

  // Adds the slot to / removes it from its class's heaps.
  void IndexInsert(size_t r, uint32_t index);
  void IndexErase(size_t r, uint32_t index);
  // Links the slot into / unlinks it from its (resource, app) bucket.
  void BucketLink(size_t r, uint32_t index);
  void BucketUnlink(size_t r, uint32_t index);
  uint32_t BucketHead(size_t r, AppId app) const;

  // Unlinks the slot from the id map, its bucket and the interval index and
  // returns it to the free list.
  void Release(uint32_t index);

  std::vector<Slot> slots_;
  std::vector<uint32_t> free_;  // LIFO: the hottest slot is reused first
  std::unordered_map<RequestId, uint32_t> by_id_;
  std::array<ResourceIndex, kNumResources> resources_;
  RequestId next_id_ = 1;
};

}  // namespace odyssey

#endif  // SRC_CORE_REQUEST_TABLE_H_
