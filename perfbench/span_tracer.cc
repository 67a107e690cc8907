#include "perfbench/span_tracer.h"

#include <algorithm>
#include <fstream>

namespace perfbench {

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRun:
      return "sim.run";
    case SpanKind::kFeed:
      return "rig.feed";
    case SpanKind::kObserve:
      return "viceroy.observe";
    case SpanKind::kAvailability:
      return "strategies.availability";
    case SpanKind::kHint:
      return "strategies.hint";
    case SpanKind::kHandler:
      return "upcall.handler";
    case SpanKind::kRequest:
      return "viceroy.request";
    case SpanKind::kCancel:
      return "viceroy.cancel";
    case SpanKind::kCancelSweep:
      return "rig.cancel_sweep";
    case SpanKind::kOracle:
      return "check.oracle";
    case SpanKind::kTrial:
      return "harness.trial";
  }
  return "?";
}

SpanTracer::SpanTracer(size_t record_cap) : record_cap_(record_cap) {
  stack_.reserve(64);
  records_.reserve(record_cap_);
}

void SpanTracer::Begin(SpanKind kind, uint64_t app, uint64_t seq) {
  uint32_t record = SpanRecord::kNoParent;
  const uint64_t now = NowNs();
  if (records_.size() < record_cap_) {
    record = static_cast<uint32_t>(records_.size());
    SpanRecord span;
    span.start_ns = now;
    span.parent = stack_.empty() ? SpanRecord::kNoParent : stack_.back().record;
    span.kind = kind;
    span.app = app;
    span.seq = seq;
    records_.push_back(span);
  } else {
    ++records_dropped_;
  }
  stack_.push_back(Open{kind, now, 0, record});
}

void SpanTracer::End() {
  const uint64_t now = NowNs();
  const Open open = stack_.back();
  stack_.pop_back();
  const uint64_t duration = now - open.start_ns;
  SpanTotals& totals = totals_[Index(open.kind)];
  ++totals.count;
  totals.total_ns += duration;
  totals.self_ns += duration - std::min(duration, open.child_ns);
  if (keep_durations_[Index(open.kind)]) {
    durations_[Index(open.kind)].push_back(
        static_cast<uint32_t>(std::min<uint64_t>(duration, UINT32_MAX)));
  }
  if (open.record != SpanRecord::kNoParent) {
    records_[open.record].end_ns = now;
  }
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
    child_ns_[Index(stack_.back().kind)][Index(open.kind)] += duration;
  }
}

bool SpanTracer::WriteTsv(const std::string& path) const {
  std::ofstream out(path);
  out << "kind\tstart_ns\tend_ns\tparent\tapp\tseq\n";
  const uint64_t origin = records_.empty() ? 0 : records_.front().start_ns;
  for (const SpanRecord& span : records_) {
    out << SpanKindName(span.kind) << '\t' << span.start_ns - origin << '\t'
        << span.end_ns - origin << '\t';
    if (span.parent == SpanRecord::kNoParent) {
      out << '-';
    } else {
      out << span.parent;
    }
    out << '\t' << span.app << '\t' << span.seq << '\n';
  }
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
