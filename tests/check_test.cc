// Tests for odycheck: scenario synthesis, invariant oracles, the runner's
// determinism, and the shrinker (DESIGN.md §11).

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/fuzz_runner.h"
#include "src/check/fuzz_scenario.h"
#include "src/check/oracles.h"
#include "src/check/shrink.h"
#include "src/core/resource.h"
#include "src/core/viceroy.h"
#include "src/net/link.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"
#include "src/strategies/centralized.h"

namespace odyssey {
namespace {

// --- Scenario generation ---

TEST(FuzzScenarioTest, GenerationIsDeterministic) {
  const FuzzScenario a = GenerateScenario(42);
  const FuzzScenario b = GenerateScenario(42);
  EXPECT_EQ(a.ElementCount(), b.ElementCount());
  EXPECT_EQ(a.Describe(), b.Describe());
  const FuzzScenario c = GenerateScenario(43);
  EXPECT_NE(a.Describe(), c.Describe());
}

TEST(FuzzScenarioTest, GenerationHonorsDocumentedGuarantees) {
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    const FuzzScenario scenario = GenerateScenario(seed);
    EXPECT_GT(scenario.horizon, 0) << "seed " << seed;
    ASSERT_FALSE(scenario.segments.empty()) << "seed " << seed;
    EXPECT_GT(scenario.segments.back().bandwidth_bps, 0.0) << "seed " << seed;
    for (const FuzzSegment& segment : scenario.segments) {
      EXPECT_GT(segment.duration, 0) << "seed " << seed;
      EXPECT_GE(segment.bandwidth_bps, 0.0) << "seed " << seed;
    }
    ASSERT_FALSE(scenario.apps.empty()) << "seed " << seed;
    for (const FuzzApp& app : scenario.apps) {
      EXPECT_GE(app.start, 0) << "seed " << seed;
      EXPECT_LT(app.start, scenario.horizon) << "seed " << seed;
      for (const FuzzOp& op : app.ops) {
        EXPECT_GE(op.at, app.start) << "seed " << seed;
        EXPECT_LE(op.at, scenario.horizon) << "seed " << seed;
      }
    }
    EXPECT_EQ(scenario.seed, seed);
  }
}

TEST(FuzzScenarioTest, GenerationCoversEveryWarden) {
  std::set<FuzzWardenKind> seen;
  for (uint64_t seed = 1; seed <= 64 && seen.size() < kFuzzWardenKinds; ++seed) {
    for (const FuzzApp& app : GenerateScenario(seed).apps) {
      seen.insert(app.warden);
    }
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(kFuzzWardenKinds));
}

TEST(FuzzScenarioTest, ElementCountSumsParts) {
  FuzzScenario scenario;
  scenario.segments = {FuzzSegment{kSecond, 1000.0, 0}};
  scenario.apps.push_back(FuzzApp{FuzzWardenKind::kWeb, 0, {FuzzOp{}, FuzzOp{}}});
  scenario.faults.push_back(FuzzFault{});
  EXPECT_EQ(scenario.ElementCount(), 5u);  // 1 segment + 1 app + 2 ops + 1 fault
}

TEST(FuzzScenarioTest, IntegrateCapacityBytesMatchesHandComputation) {
  FuzzScenario scenario;
  scenario.horizon = 20 * kSecond;
  scenario.segments = {FuzzSegment{10 * kSecond, 1000.0, 0},
                       FuzzSegment{5 * kSecond, 2000.0, 0}};
  EXPECT_DOUBLE_EQ(IntegrateCapacityBytes(scenario, 10 * kSecond), 10000.0);
  EXPECT_DOUBLE_EQ(IntegrateCapacityBytes(scenario, 15 * kSecond), 20000.0);
  // Past the end of the trace the final segment persists (Modulator
  // semantics), so the bound keeps growing at the last segment's rate.
  EXPECT_DOUBLE_EQ(IntegrateCapacityBytes(scenario, 20 * kSecond), 30000.0);
}

// --- The mobility dimension (ScenarioOptions::mobility) ---

TEST(FuzzScenarioTest, MobilityOffMatchesDefaultGenerator) {
  // The flag must be invisible when off: historical seeds keep producing
  // byte-identical scenarios.
  ScenarioOptions options;
  options.mobility = false;
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    EXPECT_EQ(GenerateScenario(seed, options).Describe(), GenerateScenario(seed).Describe())
        << "seed " << seed;
  }
}

TEST(FuzzScenarioTest, MobilityGenerationIsDeterministic) {
  ScenarioOptions options;
  options.mobility = true;
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    EXPECT_EQ(GenerateScenario(seed, options).Describe(),
              GenerateScenario(seed, options).Describe())
        << "seed " << seed;
  }
}

TEST(FuzzScenarioTest, MobilityScenariosHonorDrainGuarantee) {
  ScenarioOptions options;
  options.mobility = true;
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    const FuzzScenario scenario = GenerateScenario(seed, options);
    ASSERT_FALSE(scenario.segments.empty()) << "seed " << seed;
    EXPECT_GT(scenario.segments.back().bandwidth_bps, 0.0) << "seed " << seed;
    for (const FuzzSegment& segment : scenario.segments) {
      EXPECT_GT(segment.duration, 0) << "seed " << seed;
      EXPECT_GE(segment.bandwidth_bps, 0.0) << "seed " << seed;
    }
  }
}

TEST(FuzzScenarioTest, MobilityProducesShadowsTheHandRolledDrawCannot) {
  // The hand-rolled draw caps zero-bandwidth segments at 3 s; a dead zone
  // crossed at walking pace lasts far longer.  Finding one proves the
  // mobility waveforms actually reach the runner with shapes the original
  // generator never produced.
  ScenarioOptions options;
  options.mobility = true;
  bool long_shadow = false;
  for (uint64_t seed = 1; seed <= 200 && !long_shadow; ++seed) {
    for (const FuzzSegment& segment : GenerateScenario(seed, options).segments) {
      if (segment.bandwidth_bps == 0.0 && segment.duration > 3 * kSecond) {
        long_shadow = true;
        break;
      }
    }
  }
  EXPECT_TRUE(long_shadow) << "no mobility scenario produced a shadow beyond the 3 s cap";
}

TEST(FuzzRunnerTest, MobilitySeedsAreViolationFree) {
  ScenarioOptions options;
  options.mobility = true;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const FuzzRunResult result = RunFuzzScenario(GenerateScenario(seed, options));
    EXPECT_TRUE(result.ok()) << "seed " << seed << "\n"
                             << FormatViolations(result.violations);
  }
}

// --- Runner determinism and clean mainline ---

TEST(FuzzRunnerTest, RunIsDeterministic) {
  const FuzzScenario scenario = GenerateScenario(7);
  const FuzzRunResult a = RunFuzzScenario(scenario);
  const FuzzRunResult b = RunFuzzScenario(scenario);
  EXPECT_EQ(a.violation_count, b.violation_count);
  EXPECT_EQ(a.upcalls_delivered, b.upcalls_delivered);
  EXPECT_EQ(a.requests_granted, b.requests_granted);
  EXPECT_EQ(a.requests_denied, b.requests_denied);
  EXPECT_EQ(a.cancels_ok, b.cancels_ok);
  EXPECT_EQ(a.tsops_issued, b.tsops_issued);
  EXPECT_DOUBLE_EQ(a.bytes_delivered, b.bytes_delivered);
  EXPECT_EQ(FormatViolations(a.violations), FormatViolations(b.violations));
}

TEST(FuzzRunnerTest, MainlineSeedsAreViolationFree) {
  uint64_t total_upcalls = 0;
  uint64_t total_tsops = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const FuzzRunResult result = RunFuzzScenario(GenerateScenario(seed));
    EXPECT_TRUE(result.ok()) << "seed " << seed << "\n"
                             << FormatViolations(result.violations);
    total_upcalls += result.upcalls_delivered;
    total_tsops += result.tsops_issued;
  }
  // The workload must actually exercise the stack, not vacuously pass.
  EXPECT_GT(total_upcalls, 0u);
  EXPECT_GT(total_tsops, 0u);
}

TEST(FuzzRunnerTest, SelftestMutationMatchesCompileFlag) {
  FuzzRunOptions options;
  options.selftest_mutation = true;
  uint64_t violations = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    violations += RunFuzzScenario(GenerateScenario(seed), options).violation_count;
  }
  if (kFuzzSelftestCompiled) {
    EXPECT_GT(violations, 0u) << "seeded mutation compiled in but never detected";
  } else {
    EXPECT_EQ(violations, 0u) << "mutation must be inert without ODYSSEY_FUZZ_SELFTEST";
  }
}

TEST(FuzzRunnerTest, SelftestTiebreakMatchesCompileFlag) {
  FuzzRunOptions options;
  options.selftest_tiebreak = true;
  uint64_t violations = 0;
  uint64_t tie_pairs = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const FuzzRunResult result = RunFuzzScenario(GenerateScenario(seed), options);
    violations += result.violation_count;
    tie_pairs += result.tie_pairs_audited;
  }
  EXPECT_GT(tie_pairs, 0u) << "scenarios stopped producing same-timestamp events";
  if (kFuzzSelftestCompiled) {
    EXPECT_GT(violations, 0u) << "LIFO tie mutation compiled in but never detected";
  } else {
    EXPECT_EQ(violations, 0u) << "mutation must be inert without ODYSSEY_FUZZ_SELFTEST";
  }
}

// --- Oracle unit tests against a minimal hand-driven rig ---

class OracleSetTest : public testing::Test {
 protected:
  OracleSetTest() {
    scenario_.horizon = 10 * kSecond;
    scenario_.segments = {FuzzSegment{10 * kSecond, 120.0 * 1024, 10 * kMillisecond}};
    auto strategy = std::make_unique<CentralizedStrategy>(&sim_);
    strategy_ = strategy.get();
    viceroy_ = std::make_unique<Viceroy>(&sim_, std::move(strategy));
    link_ = std::make_unique<Link>(&sim_, 120.0 * 1024, 10 * kMillisecond);
    oracles_ = std::make_unique<OracleSet>(scenario_, &sim_, viceroy_.get(), strategy_,
                                           link_.get());
  }

  std::vector<std::string> OracleNames() const {
    std::vector<std::string> names;
    for (const FuzzViolation& violation : oracles_->violations()) {
      names.push_back(violation.oracle);
    }
    return names;
  }

  FuzzScenario scenario_;
  Simulation sim_;
  CentralizedStrategy* strategy_ = nullptr;
  std::unique_ptr<Viceroy> viceroy_;
  std::unique_ptr<Link> link_;
  std::unique_ptr<OracleSet> oracles_;
};

TEST_F(OracleSetTest, CleanDeliverySequenceRecordsNothing) {
  oracles_->OnWindowRegistered(1, 10, 10.0, 20.0);
  oracles_->OnUpcallDelivered(1, 1, 10, ResourceId::kNetworkBandwidth, 25.0, 0);
  oracles_->OnWindowRegistered(1, 11, 10.0, 20.0);
  oracles_->OnUpcallDelivered(1, 2, 11, ResourceId::kNetworkBandwidth, 5.0, 0);
  EXPECT_EQ(oracles_->violation_count(), 0u) << FormatViolations(oracles_->violations());
}

TEST_F(OracleSetTest, DetectsDuplicateDelivery) {
  oracles_->OnWindowRegistered(1, 10, 10.0, 20.0);
  oracles_->OnUpcallDelivered(1, 1, 10, ResourceId::kNetworkBandwidth, 25.0, 0);
  oracles_->OnUpcallDelivered(1, 1, 10, ResourceId::kNetworkBandwidth, 25.0, 0);
  const std::vector<std::string> names = OracleNames();
  ASSERT_FALSE(names.empty());
  EXPECT_NE(std::find(names.begin(), names.end(), "upcall-duplicate"), names.end())
      << FormatViolations(oracles_->violations());
}

TEST_F(OracleSetTest, DetectsLostDelivery) {
  oracles_->OnWindowRegistered(1, 10, 10.0, 20.0);
  oracles_->OnUpcallDelivered(1, 2, 10, ResourceId::kNetworkBandwidth, 25.0, 0);
  const std::vector<std::string> names = OracleNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "upcall-lost"), names.end())
      << FormatViolations(oracles_->violations());
}

TEST_F(OracleSetTest, DetectsDeliveryInsideWindow) {
  oracles_->OnWindowRegistered(1, 10, 10.0, 20.0);
  oracles_->OnUpcallDelivered(1, 1, 10, ResourceId::kNetworkBandwidth, 15.0, 0);
  const std::vector<std::string> names = OracleNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "upcall-window"), names.end())
      << FormatViolations(oracles_->violations());
}

TEST_F(OracleSetTest, DetectsDeliveryAfterCancel) {
  oracles_->OnWindowRegistered(1, 10, 10.0, 20.0);
  oracles_->OnWindowCancelled(10);
  oracles_->OnUpcallDelivered(1, 1, 10, ResourceId::kNetworkBandwidth, 25.0, 0);
  const std::vector<std::string> names = OracleNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "upcall-after-cancel"), names.end())
      << FormatViolations(oracles_->violations());
}

TEST_F(OracleSetTest, DetectsUnknownRequest) {
  oracles_->OnUpcallDelivered(1, 1, 999, ResourceId::kNetworkBandwidth, 25.0, 0);
  const std::vector<std::string> names = OracleNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "upcall-unknown-request"), names.end())
      << FormatViolations(oracles_->violations());
}

TEST_F(OracleSetTest, TieBreaksInSchedulingOrderAreCleanAndCounted) {
  oracles_->OnTieBreak(100 * kMillisecond, 0, 1);
  oracles_->OnTieBreak(100 * kMillisecond, 1, 2);
  oracles_->OnTieBreak(200 * kMillisecond, 7, 12);  // gaps are fine; order is what matters
  EXPECT_EQ(oracles_->violation_count(), 0u) << FormatViolations(oracles_->violations());
  EXPECT_EQ(oracles_->tie_pairs_audited(), 3u);
}

TEST_F(OracleSetTest, DetectsSameTimeOrderInversion) {
  oracles_->OnTieBreak(100 * kMillisecond, 5, 3);  // popped out of scheduling order
  const std::vector<std::string> names = OracleNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "same-time-order"), names.end())
      << FormatViolations(oracles_->violations());
  EXPECT_EQ(oracles_->tie_pairs_audited(), 1u);
}

TEST_F(OracleSetTest, DetectsSameTimeSeqDuplication) {
  // seq == prev_seq means one scheduling slot fired twice — just as fatal
  // to determinism as an inversion, and the <= check catches both.
  oracles_->OnTieBreak(100 * kMillisecond, 4, 4);
  const std::vector<std::string> names = OracleNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "same-time-order"), names.end())
      << FormatViolations(oracles_->violations());
}

TEST_F(OracleSetTest, DetectsClockRegression) {
  oracles_->OnStep(100 * kMillisecond);
  oracles_->OnStep(50 * kMillisecond);
  const std::vector<std::string> names = OracleNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "clock-monotonicity"), names.end())
      << FormatViolations(oracles_->violations());
}

TEST_F(OracleSetTest, RecordingCapStoresBoundedButCountsAll) {
  for (uint64_t seq = 1; seq <= 100; ++seq) {
    // Same seq every time: 99 duplicates after the first delivery.
    oracles_->OnUpcallDelivered(1, 1, 999, ResourceId::kNetworkBandwidth, 25.0, 0);
  }
  EXPECT_GT(oracles_->violation_count(), oracles_->violations().size());
  EXPECT_LE(oracles_->violations().size(),
            2 * OracleSet::kMaxRecordedPerOracle);  // duplicate + unknown-request
}

// --- OracleArming: the one way a rig attaches its oracles ---

// Two hand-driven nodes on one simulation, armed the way a fleet rig arms
// them; node 0 is the lead.
class OracleArmingTest : public testing::Test {
 protected:
  struct Node {
    std::unique_ptr<Viceroy> viceroy;
    std::unique_ptr<Link> link;
    std::unique_ptr<OracleSet> oracle;
  };

  OracleArmingTest() {
    scenario_.segments = {FuzzSegment{10 * kSecond, 120.0 * 1024, 10 * kMillisecond}};
    for (Node& node : nodes_) {
      node.viceroy =
          std::make_unique<Viceroy>(&sim_, std::make_unique<CentralizedStrategy>(&sim_));
      node.link = std::make_unique<Link>(&sim_, 120.0 * 1024, 10 * kMillisecond);
      node.oracle = std::make_unique<OracleSet>(scenario_, &sim_, node.viceroy.get(), nullptr,
                                                node.link.get());
    }
  }

  std::unique_ptr<OracleArming> Arm() {
    return std::make_unique<OracleArming>(
        &sim_,
        std::vector<OracleArming::Node>{{nodes_[0].viceroy.get(), nodes_[0].oracle.get()},
                                        {nodes_[1].viceroy.get(), nodes_[1].oracle.get()}},
        SeededDefects{},
        [this](AppId, uint64_t, RequestId, ResourceId, double, Time) { ++tapped_; });
  }

  // Delivers one upcall on |node|'s dispatcher for a request no oracle
  // knows, so whichever oracle observes it records upcall-unknown-request.
  void DeliverUnknownUpcall(size_t node) {
    nodes_[node].viceroy->upcalls().Post(1, 999, ResourceId::kNetworkBandwidth, 25.0,
                                         [](RequestId, ResourceId, double) {});
    sim_.RunUntil(sim_.now() + kSecond);
  }

  // Fires two events at one instant: one same-timestamp pair to audit.
  void FireTie() {
    const Time at = sim_.now() + kMillisecond;
    sim_.ScheduleAt(at, [] {});
    sim_.ScheduleAt(at, [] {});
    sim_.RunUntil(at + kMillisecond);
  }

  // Tells both oracles an event already fired an hour ahead, then fires
  // one now: whichever oracle observes the step records clock-monotonicity.
  void FireStepBehindPrimedClock() {
    for (Node& node : nodes_) {
      node.oracle->OnStep(sim_.now() + 3600 * kSecond);
    }
    sim_.Schedule(kMillisecond, [] {});
    sim_.RunUntil(sim_.now() + 2 * kMillisecond);
  }

  std::vector<std::string> OracleNames(size_t node) const {
    std::vector<std::string> names;
    for (const FuzzViolation& violation : nodes_[node].oracle->violations()) {
      names.push_back(violation.oracle);
    }
    return names;
  }

  FuzzScenario scenario_;
  Simulation sim_;
  Node nodes_[2];
  int tapped_ = 0;
};

TEST_F(OracleArmingTest, EachNodesDeliveriesReachOnlyItsOwnOracle) {
  const std::unique_ptr<OracleArming> arming = Arm();
  DeliverUnknownUpcall(1);
  EXPECT_EQ(nodes_[0].oracle->violation_count(), 0u)
      << FormatViolations(nodes_[0].oracle->violations());
  EXPECT_EQ(OracleNames(1), std::vector<std::string>{"upcall-unknown-request"});
  EXPECT_EQ(tapped_, 1);

  DeliverUnknownUpcall(0);
  EXPECT_EQ(OracleNames(0), std::vector<std::string>{"upcall-unknown-request"});
  EXPECT_EQ(nodes_[1].oracle->violation_count(), 1u);
  EXPECT_EQ(tapped_, 2);
}

TEST_F(OracleArmingTest, StepAndTieEventsReachOnlyTheLeadOracle) {
  const std::unique_ptr<OracleArming> arming = Arm();
  FireTie();
  EXPECT_EQ(nodes_[0].oracle->tie_pairs_audited(), 1u);
  EXPECT_EQ(nodes_[1].oracle->tie_pairs_audited(), 0u);

  FireStepBehindPrimedClock();
  EXPECT_EQ(OracleNames(0), std::vector<std::string>{"clock-monotonicity"});
  EXPECT_EQ(nodes_[1].oracle->violation_count(), 0u)
      << FormatViolations(nodes_[1].oracle->violations());
}

TEST_F(OracleArmingTest, NothingReachesAnOracleAfterTheArmingLeavesScope) {
  Arm().reset();
  DeliverUnknownUpcall(0);
  DeliverUnknownUpcall(1);
  FireTie();
  FireStepBehindPrimedClock();
  for (const Node& node : nodes_) {
    EXPECT_EQ(node.oracle->violation_count(), 0u) << FormatViolations(node.oracle->violations());
    EXPECT_EQ(node.oracle->tie_pairs_audited(), 0u);
  }
  EXPECT_EQ(tapped_, 0);
  // The deliveries themselves still happened; only the observers are gone.
  EXPECT_EQ(nodes_[0].viceroy->upcalls().delivered_count(), 1u);
  EXPECT_EQ(nodes_[1].viceroy->upcalls().delivered_count(), 1u);
}

// --- Shrinker ---

TEST(ShrinkTest, MinimizesToPredicateCore) {
  const FuzzScenario scenario = GenerateScenario(11);
  // Content-based predicate: the scenario still schedules at least one
  // request op.  The 1-minimal core is one segment, one app, one op.
  const ScenarioPredicate has_request = [](const FuzzScenario& candidate) {
    for (const FuzzApp& app : candidate.apps) {
      for (const FuzzOp& op : app.ops) {
        if (op.kind == FuzzOpKind::kRequest) {
          return true;
        }
      }
    }
    return false;
  };
  ASSERT_TRUE(has_request(scenario));
  const ShrinkResult result = ShrinkWithPredicate(scenario, has_request);
  EXPECT_TRUE(has_request(result.minimized));
  EXPECT_LE(result.final_elements, result.initial_elements);
  EXPECT_LE(result.final_elements, 3u);  // segment + app + op
  EXPECT_EQ(result.final_elements, result.minimized.ElementCount());
  EXPECT_GT(result.attempts, 0);
  EXPECT_GT(result.accepted, 0);
}

TEST(ShrinkTest, ShrinkIsDeterministic) {
  const FuzzScenario scenario = GenerateScenario(11);
  const ScenarioPredicate nonempty = [](const FuzzScenario& candidate) {
    return !candidate.apps.empty();
  };
  const ShrinkResult a = ShrinkWithPredicate(scenario, nonempty);
  const ShrinkResult b = ShrinkWithPredicate(scenario, nonempty);
  EXPECT_EQ(a.minimized.Describe(), b.minimized.Describe());
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(ShrinkTest, HasViolationOfMatchesByNameAndAny) {
  FuzzRunResult result;
  result.violations.push_back(FuzzViolation{"upcall-duplicate", 0, 1, "x"});
  result.violation_count = 1;
  EXPECT_TRUE(HasViolationOf(result, "upcall-duplicate"));
  EXPECT_TRUE(HasViolationOf(result, ""));
  EXPECT_FALSE(HasViolationOf(result, "fair-share"));
  EXPECT_FALSE(HasViolationOf(FuzzRunResult{}, ""));
}

TEST(ShrinkTest, ReproSnippetIsSelfContained) {
  FuzzScenario scenario;
  scenario.seed = 77;
  scenario.horizon = 5 * kSecond;
  scenario.segments = {FuzzSegment{5 * kSecond, 40.0 * 1024, 10 * kMillisecond}};
  FuzzApp app;
  app.warden = FuzzWardenKind::kSpeech;
  app.start = kSecond;
  app.ops.push_back(FuzzOp{2 * kSecond, FuzzOpKind::kRequest, 0.5, 1.5, 0, 0.25});
  scenario.apps.push_back(std::move(app));
  const std::string snippet = EmitReproSnippet(scenario, "upcall-duplicate");
  EXPECT_NE(snippet.find("TEST("), std::string::npos);
  EXPECT_NE(snippet.find("FuzzScenario"), std::string::npos);
  EXPECT_NE(snippet.find("RunFuzzScenario"), std::string::npos);
  EXPECT_NE(snippet.find("upcall-duplicate"), std::string::npos);
  EXPECT_NE(snippet.find("77"), std::string::npos);
  EXPECT_NE(snippet.find("kSpeech"), std::string::npos);
  EXPECT_NE(snippet.find("src/check/fuzz_runner.h"), std::string::npos);
}

TEST(ShrinkTest, CanonicalTraceIsDeterministicAndNonEmpty) {
  const FuzzScenario scenario = GenerateScenario(3);
  const std::string a = CanonicalTraceForScenario(scenario);
  const std::string b = CanonicalTraceForScenario(scenario);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace odyssey
