// The benchmark's workloads, run against the libraries' public API.
//
// Every workload runs as repetitions.  One repetition builds its rig from
// the seed (set-up), runs the fixed timed phase, checks its outputs, and
// reports named metrics: the end-to-end ones always, and the per-layer
// ones when it ran with a SpanTracer (the traced run).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/span_tracer.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
};

struct RepResult {
  double setup_s = 0.0;
  double run_s = 0.0;
  // The timed phase split into its fixed units of work, in a deterministic
  // order (hot core: simulation events, then the oracles' end-of-run audit;
  // paper_stack: trials, then aggregation).  Sums to run_s.
  std::vector<double> unit_s;
  // Hash of the repetition's outputs; equal seeds must give equal values,
  // traced or not.
  uint64_t fingerprint = 0;
  // A deterministic count of library work (hot core: the supply model's
  // scan_ops).  Not part of the fingerprint, which must survive
  // optimizations, but equal seeds must give equal values within one
  // build: a traced repetition that does different work than an untraced
  // one means the timing decorator changed the program.
  uint64_t work = 0;
  // Operations checked and operations that failed a check.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Per-layer metrics; filled only when the repetition was traced.
  std::vector<Metric> layer;
};

// The |q|-quantile (nearest rank) of |values|; 0 when empty.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  const size_t index =
      std::min(values.size() - 1, static_cast<size_t>(q * static_cast<double>(values.size())));
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

// Order-sensitive 64-bit hash: FNV-1a over bytes, or over 64-bit words
// each premixed with the SplitMix64 finalizer.
class Fingerprint {
 public:
  void Add(uint64_t word) {
    word += 0x9e3779b97f4a7c15ULL;
    word = (word ^ (word >> 30)) * 0xbf58476d1ce4e5b9ULL;
    word = (word ^ (word >> 27)) * 0x94d049bb133111ebULL;
    word ^= word >> 31;
    hash_ = (hash_ ^ word) * 0x100000001b3ULL;
  }
  void AddBytes(const std::string& bytes) {
    for (const char c : bytes) {
      hash_ = (hash_ ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

enum class HotcoreShape {
  kStorm,   // 100k apps under tier_scale n100k's stepped supply waveform
  kSteady,  // 10k apps under constant supply, long horizon
};

// One hot-core repetition.  With |setup_only| the rig is built (and, for
// kSteady, warmed up) and discarded: only setup_s is meaningful.  A
// non-null |tracer| wraps the strategy in the timing decorator and records
// spans over the timed phase.
RepResult RunHotcore(HotcoreShape shape, uint64_t seed, SpanTracer* tracer, bool setup_only);

// One paper_stack repetition: the paper's figure trials through the
// harness.  With a |tracer| each trial gets a span and a TraceRecorder.
RepResult RunPaperStack(uint64_t seed, SpanTracer* tracer, bool setup_only);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
