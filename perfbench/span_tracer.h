// Outside-in span tracing for the benchmark's traced runs.
//
// The benchmark brackets each call it makes into a library layer (and each
// callback the library makes back into the benchmark) with a Span.  Spans
// nest through an explicit stack, so every closed span knows how much of
// its interval its children covered: a layer's self time is its duration
// minus that.  Per-kind totals are always kept; individual span records
// (kind, start, end, parent, and the upcall a handler serves) are kept in
// a preallocated in-memory buffer up to a fixed cap and written out only
// after the timed phase ends, so recording never does I/O.
//
// A null tracer turns every Span into a pointer test: the untraced runs
// that produce the end-to-end metrics build the same rig with no tracer.

#ifndef PERFBENCH_SPAN_TRACER_H_
#define PERFBENCH_SPAN_TRACER_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanKind : uint8_t {
  kRun,           // Simulation::RunUntil over the timed phase
  kFeed,          // the rig's periodic observation feed event
  kObserve,       // one RecordThroughput / RecordRoundTrip (viceroy reevaluation inside)
  kAvailability,  // BandwidthStrategy::AvailabilityFor
  kHint,          // BandwidthStrategy::TakeReevalHint
  kHandler,       // an upcall handler (the app re-registering)
  kRequest,       // Viceroy::Request
  kCancel,        // Viceroy::Cancel
  kCancelSweep,   // the rig's periodic cancel-and-re-register event
  kOracle,        // any OracleSet hook
  kTrial,         // one harness trial (paper_stack); app holds its plan index
};

inline constexpr size_t kSpanKindCount = 11;

const char* SpanKindName(SpanKind kind);

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

inline double SecondsSince(std::chrono::steady_clock::time_point from) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - from).count();
}

struct SpanTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};

struct SpanRecord {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t parent = kNoParent;  // index into records(), or kNoParent
  SpanKind kind = SpanKind::kRun;
  uint64_t app = 0;  // handler spans: the upcall's (app, seq)
  uint64_t seq = 0;

  static constexpr uint32_t kNoParent = UINT32_MAX;
};

class SpanTracer {
 public:
  // Individual records kept before only totals are updated.
  static constexpr size_t kDefaultRecordCap = size_t{1} << 18;

  explicit SpanTracer(size_t record_cap = kDefaultRecordCap);

  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  void Begin(SpanKind kind, uint64_t app = 0, uint64_t seq = 0);
  void End();

  // Per-call durations (ns) of one kind, for percentiles; kept only for
  // the kinds enabled here.
  void KeepDurations(SpanKind kind) { keep_durations_[Index(kind)] = true; }
  const std::vector<uint32_t>& durations(SpanKind kind) const {
    return durations_[Index(kind)];
  }

  const SpanTotals& totals(SpanKind kind) const { return totals_[Index(kind)]; }
  // Time spans of |kind| spent in direct children of |child| kind.
  uint64_t child_ns(SpanKind kind, SpanKind child) const {
    return child_ns_[Index(kind)][Index(child)];
  }

  const std::vector<SpanRecord>& records() const { return records_; }
  uint64_t records_dropped() const { return records_dropped_; }

  // Writes the kept records as TSV (kind, start_ns, end_ns, parent, app,
  // seq; times relative to the first record).  False on an I/O error.
  bool WriteTsv(const std::string& path) const;

 private:
  struct Open {
    SpanKind kind;
    uint64_t start_ns;
    uint64_t child_ns;
    uint32_t record;
  };

  static size_t Index(SpanKind kind) { return static_cast<size_t>(kind); }

  size_t record_cap_;
  std::vector<Open> stack_;
  std::vector<SpanRecord> records_;
  uint64_t records_dropped_ = 0;
  std::array<SpanTotals, kSpanKindCount> totals_{};
  std::array<std::array<uint64_t, kSpanKindCount>, kSpanKindCount> child_ns_{};
  std::array<bool, kSpanKindCount> keep_durations_{};
  std::array<std::vector<uint32_t>, kSpanKindCount> durations_;
};

// RAII bracket; a null tracer makes it a no-op.
class Span {
 public:
  Span(SpanTracer* tracer, SpanKind kind, uint64_t app = 0, uint64_t seq = 0) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->Begin(kind, app, seq);
    }
  }
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->End();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanTracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_TRACER_H_
