// Unit tests for the Odyssey core: status, resources, tsop codec, upcall
// dispatch, the request table, and the viceroy.

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/request_table.h"
#include "src/core/resource.h"
#include "src/core/status.h"
#include "src/core/tsop_codec.h"
#include "src/core/upcall.h"
#include "src/core/viceroy.h"
#include "src/sim/simulation.h"
#include "src/strategies/laissez_faire.h"

namespace odyssey {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesMessage) {
  const Status status = NotFoundError("missing thing");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.ToString(), "NOT_FOUND: missing thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (const StatusCode code :
       {StatusCode::kOk, StatusCode::kOutOfBounds, StatusCode::kNotFound,
        StatusCode::kInvalidArgument, StatusCode::kUnsupported, StatusCode::kAlreadyExists,
        StatusCode::kUnavailable}) {
    EXPECT_STRNE(StatusCodeName(code), "UNKNOWN");
  }
}

TEST(ResourceTest, Figure3cTableComplete) {
  // Figure 3(c): six generic resources with their units.
  EXPECT_EQ(std::size(kAllResources), 6u);
  EXPECT_STREQ(ResourceUnit(ResourceId::kNetworkBandwidth), "bytes/second");
  EXPECT_STREQ(ResourceUnit(ResourceId::kNetworkLatency), "microseconds");
  EXPECT_STREQ(ResourceUnit(ResourceId::kDiskCacheSpace), "kilobytes");
  EXPECT_STREQ(ResourceUnit(ResourceId::kCpu), "SPECint95");
  EXPECT_STREQ(ResourceUnit(ResourceId::kBatteryPower), "minutes");
  EXPECT_STREQ(ResourceUnit(ResourceId::kMoney), "cents");
  for (const ResourceId resource : kAllResources) {
    EXPECT_STRNE(ResourceName(resource), "Unknown");
  }
}

TEST(TsopCodecTest, RoundTripsPodStruct) {
  struct Sample {
    int a;
    double b;
  };
  const std::string packed = PackStruct(Sample{7, 2.5});
  Sample out{};
  ASSERT_TRUE(UnpackStruct(packed, &out));
  EXPECT_EQ(out.a, 7);
  EXPECT_DOUBLE_EQ(out.b, 2.5);
}

TEST(TsopCodecTest, RejectsSizeMismatch) {
  struct Sample {
    int a;
  };
  Sample out{};
  EXPECT_FALSE(UnpackStruct("wrong size", &out));
  EXPECT_FALSE(UnpackStruct("", &out));
}

// --- Upcall dispatcher ---

TEST(UpcallTest, DeliversWithParameters) {
  Simulation sim;
  UpcallDispatcher dispatcher(&sim);
  RequestId seen_request = 0;
  ResourceId seen_resource = ResourceId::kMoney;
  double seen_level = 0.0;
  dispatcher.Post(1, 42, ResourceId::kNetworkBandwidth, 1234.0,
                  [&](RequestId request, ResourceId resource, double level) {
                    seen_request = request;
                    seen_resource = resource;
                    seen_level = level;
                  });
  sim.Run();
  EXPECT_EQ(seen_request, 42u);
  EXPECT_EQ(seen_resource, ResourceId::kNetworkBandwidth);
  EXPECT_DOUBLE_EQ(seen_level, 1234.0);
  EXPECT_EQ(dispatcher.delivered_count(), 1u);
}

TEST(UpcallTest, InOrderPerReceiver) {
  Simulation sim;
  UpcallDispatcher dispatcher(&sim);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    dispatcher.Post(1, i, ResourceId::kNetworkBandwidth, 0.0,
                    [&order, i](RequestId, ResourceId, double) { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(dispatcher.last_delivered_seq(1), 5u);
}

TEST(UpcallTest, ExactlyOnce) {
  Simulation sim;
  UpcallDispatcher dispatcher(&sim);
  int count = 0;
  dispatcher.Post(1, 1, ResourceId::kNetworkBandwidth, 0.0,
                  [&](RequestId, ResourceId, double) { ++count; });
  sim.Run();
  sim.Run();  // draining again must not redeliver
  EXPECT_EQ(count, 1);
}

TEST(UpcallTest, NotDeliveredSynchronously) {
  Simulation sim;
  UpcallDispatcher dispatcher(&sim);
  bool delivered = false;
  dispatcher.Post(1, 1, ResourceId::kNetworkBandwidth, 0.0,
                  [&](RequestId, ResourceId, double) { delivered = true; });
  EXPECT_FALSE(delivered);  // queued, not run re-entrantly
  sim.Run();
  EXPECT_TRUE(delivered);
}

TEST(UpcallTest, BlockHoldsAndUnblockDrainsInOrder) {
  Simulation sim;
  UpcallDispatcher dispatcher(&sim);
  std::vector<int> order;
  dispatcher.Block(1);
  EXPECT_TRUE(dispatcher.blocked(1));
  for (int i = 0; i < 3; ++i) {
    dispatcher.Post(1, i, ResourceId::kNetworkBandwidth, 0.0,
                    [&order, i](RequestId, ResourceId, double) { order.push_back(i); });
  }
  sim.Run();
  EXPECT_TRUE(order.empty());
  dispatcher.Unblock(1);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(UpcallTest, HandlerMayPostMore) {
  Simulation sim;
  UpcallDispatcher dispatcher(&sim);
  std::vector<int> order;
  dispatcher.Post(1, 1, ResourceId::kNetworkBandwidth, 0.0,
                  [&](RequestId, ResourceId, double) {
                    order.push_back(1);
                    dispatcher.Post(1, 2, ResourceId::kNetworkBandwidth, 0.0,
                                    [&](RequestId, ResourceId, double) { order.push_back(2); });
                  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(UpcallTest, IndependentQueuesPerApp) {
  Simulation sim;
  UpcallDispatcher dispatcher(&sim);
  dispatcher.Block(1);
  bool app2_delivered = false;
  dispatcher.Post(1, 1, ResourceId::kNetworkBandwidth, 0.0, nullptr);
  dispatcher.Post(2, 2, ResourceId::kNetworkBandwidth, 0.0,
                  [&](RequestId, ResourceId, double) { app2_delivered = true; });
  sim.Run();
  EXPECT_TRUE(app2_delivered);  // app 2 unaffected by app 1's block
  EXPECT_EQ(dispatcher.last_delivered_seq(1), 0u);
}

TEST(UpcallTest, UnknownAppsReadAsUnblockedWithNothingDelivered) {
  Simulation sim;
  UpcallDispatcher dispatcher(&sim);
  // Never-seen apps, including ones past the highest id the dispatcher has
  // state for, answer as empty queues.
  EXPECT_FALSE(dispatcher.blocked(0));
  EXPECT_FALSE(dispatcher.blocked(7));
  EXPECT_EQ(dispatcher.last_delivered_seq(7), 0u);
  dispatcher.Block(3);
  dispatcher.Post(5, 1, ResourceId::kNetworkBandwidth, 0.0, nullptr);
  sim.Run();
  EXPECT_TRUE(dispatcher.blocked(3));
  EXPECT_FALSE(dispatcher.blocked(4));  // below the highest id, never seen
  EXPECT_EQ(dispatcher.last_delivered_seq(4), 0u);
  EXPECT_EQ(dispatcher.last_delivered_seq(5), 1u);
  EXPECT_FALSE(dispatcher.blocked(1000));
  EXPECT_EQ(dispatcher.last_delivered_seq(1000), 0u);
}

TEST(UpcallTest, LongUndrainedQueueStaysInOrder) {
  // A queue that never fully drains (each delivery's handler posts the
  // next upcall before the queue empties) still delivers every upcall
  // exactly once, in order, across its storage compactions.
  Simulation sim;
  UpcallDispatcher dispatcher(&sim);
  std::vector<int> order;
  int posted = 0;
  UpcallHandler handler;
  handler = [&](RequestId request, ResourceId, double) {
    order.push_back(static_cast<int>(request));
    if (posted < 500) {
      dispatcher.Post(1, static_cast<RequestId>(posted++), ResourceId::kNetworkBandwidth, 0.0,
                      handler);
    }
  };
  for (int i = 0; i < 3; ++i) {
    dispatcher.Post(1, static_cast<RequestId>(posted++), ResourceId::kNetworkBandwidth, 0.0,
                    handler);
  }
  sim.Run();
  ASSERT_EQ(order.size(), 500u);
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(order[static_cast<size_t>(i)], i);
  }
  EXPECT_EQ(dispatcher.last_delivered_seq(1), 500u);
  EXPECT_EQ(dispatcher.queued_count(), 0u);
}

TEST(UpcallTest, DeliveryLatencyApplied) {
  Simulation sim;
  UpcallDispatcher dispatcher(&sim, 5 * kMillisecond);
  Time delivered_at = -1;
  dispatcher.Post(1, 1, ResourceId::kNetworkBandwidth, 0.0,
                  [&](RequestId, ResourceId, double) { delivered_at = sim.now(); });
  sim.Run();
  EXPECT_EQ(delivered_at, 5 * kMillisecond);
}

// --- Request table ---

TEST(RequestTableTest, RegisterAndCancel) {
  RequestTable table;
  const RequestId id = table.Register(1, ResourceDescriptor{});
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.Cancel(id).ok());
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Cancel(id).code(), StatusCode::kNotFound);
}

TEST(RequestTableTest, TakeViolatedConsumesOnlyViolations) {
  RequestTable table;
  ResourceDescriptor in_window{ResourceId::kNetworkBandwidth, 0.0, 100.0, nullptr};
  ResourceDescriptor narrow{ResourceId::kNetworkBandwidth, 50.0, 60.0, nullptr};
  table.Register(1, in_window);
  const RequestId narrow_id = table.Register(1, narrow);
  const auto violated = table.TakeViolated(ResourceId::kNetworkBandwidth, 1, 75.0);
  ASSERT_EQ(violated.size(), 1u);
  EXPECT_EQ(violated[0].id, narrow_id);
  EXPECT_EQ(table.size(), 1u);  // the satisfied window remains
}

TEST(RequestTableTest, TakeViolatedScopedToAppAndResource) {
  RequestTable table;
  ResourceDescriptor descriptor{ResourceId::kNetworkBandwidth, 50.0, 60.0, nullptr};
  table.Register(1, descriptor);
  table.Register(2, descriptor);
  descriptor.resource = ResourceId::kBatteryPower;
  table.Register(1, descriptor);
  EXPECT_TRUE(table.TakeViolated(ResourceId::kNetworkBandwidth, 3, 0.0).empty());
  EXPECT_EQ(table.TakeViolated(ResourceId::kNetworkBandwidth, 1, 0.0).size(), 1u);
  EXPECT_EQ(table.size(), 2u);
}

TEST(RequestTableTest, BoundaryLevelsAreInsideWindow) {
  RequestTable table;
  table.Register(1, ResourceDescriptor{ResourceId::kNetworkBandwidth, 50.0, 60.0, nullptr});
  EXPECT_TRUE(table.TakeViolated(ResourceId::kNetworkBandwidth, 1, 50.0).empty());
  EXPECT_TRUE(table.TakeViolated(ResourceId::kNetworkBandwidth, 1, 60.0).empty());
  EXPECT_EQ(table.TakeViolated(ResourceId::kNetworkBandwidth, 1, 49.999).size(), 1u);
}

TEST(RequestTableTest, EntriesForFilters) {
  RequestTable table;
  table.Register(1, ResourceDescriptor{ResourceId::kNetworkBandwidth, 0, 1, nullptr});
  table.Register(1, ResourceDescriptor{ResourceId::kMoney, 0, 1, nullptr});
  EXPECT_EQ(table.EntriesFor(1, ResourceId::kMoney).size(), 1u);
  EXPECT_TRUE(table.EntriesFor(2, ResourceId::kMoney).empty());
}

TEST(RequestTableTest, SlotReuseAfterCancelDropsStaleWindow) {
  RequestTable table;
  const RequestId first =
      table.Register(1, ResourceDescriptor{ResourceId::kNetworkBandwidth, 50.0, 60.0, nullptr});
  ASSERT_TRUE(table.Cancel(first).ok());
  // Re-registering reuses the freed slot; only the new window may be visible
  // anywhere — the interval index must not retain the cancelled bounds.
  const RequestId second =
      table.Register(1, ResourceDescriptor{ResourceId::kNetworkBandwidth, 200.0, 300.0, nullptr});
  EXPECT_NE(second, first);
  EXPECT_EQ(table.Cancel(first).code(), StatusCode::kNotFound);
  std::vector<AppId> apps;
  table.CollectViolatedApps(ResourceId::kNetworkBandwidth, 250.0, &apps);
  EXPECT_TRUE(apps.empty());  // inside the new window
  table.CollectViolatedApps(ResourceId::kNetworkBandwidth, 55.0, &apps);
  ASSERT_EQ(apps.size(), 1u);  // inside the *old* window, outside the new one
  EXPECT_EQ(apps[0], 1);
  const auto entries = table.EntriesFor(1, ResourceId::kNetworkBandwidth);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].id, second);
  EXPECT_EQ(entries[0].descriptor.lower, 200.0);
  const auto violated = table.TakeViolated(ResourceId::kNetworkBandwidth, 1, 55.0);
  ASSERT_EQ(violated.size(), 1u);
  EXPECT_EQ(violated[0].id, second);
  EXPECT_EQ(table.size(), 0u);
}

TEST(RequestTableTest, ClassScopedProbesDoNotCrossClasses) {
  RequestTable table;
  // App 1's windows live in class 1, app 2's in class 2.  A class-2 probe at
  // a level far above app 1's window must not sweep app 1 in — that
  // cross-class bleed is exactly what made whole-table idle-level probes
  // quadratic.
  table.Register(1, ResourceDescriptor{ResourceId::kNetworkBandwidth, 50.0, 100.0, nullptr}, 1);
  table.Register(2, ResourceDescriptor{ResourceId::kNetworkBandwidth, 150.0, 200.0, nullptr}, 2);
  std::vector<AppId> apps;
  table.CollectViolatedApps(ResourceId::kNetworkBandwidth, 2, 300.0, &apps);
  ASSERT_EQ(apps.size(), 1u);  // only app 2, even though 300 > app 1's upper
  EXPECT_EQ(apps[0], 2);
  apps.clear();
  table.CollectViolatedApps(ResourceId::kNetworkBandwidth, 1, 10.0, &apps);
  ASSERT_EQ(apps.size(), 1u);  // only app 1, even though 10 < app 2's lower
  EXPECT_EQ(apps[0], 1);
  apps.clear();
  // The class-less overload unions every class.
  table.CollectViolatedApps(ResourceId::kNetworkBandwidth, 125.0, &apps);
  std::sort(apps.begin(), apps.end());
  ASSERT_EQ(apps.size(), 2u);
  EXPECT_EQ(apps[0], 1);
  EXPECT_EQ(apps[1], 2);
}

TEST(RequestTableTest, ReclassifyMovesWindowsBetweenClasses) {
  RequestTable table;
  table.Register(1, ResourceDescriptor{ResourceId::kNetworkBandwidth, 50.0, 100.0, nullptr}, 1);
  table.Register(1, ResourceDescriptor{ResourceId::kNetworkBandwidth, 60.0, 90.0, nullptr}, 1);
  table.Reclassify(1, 2);
  std::vector<AppId> apps;
  // The old class is empty now; the new one answers for both windows.
  table.CollectViolatedApps(ResourceId::kNetworkBandwidth, 1, 300.0, &apps);
  EXPECT_TRUE(apps.empty());
  table.CollectViolatedApps(ResourceId::kNetworkBandwidth, 2, 300.0, &apps);
  EXPECT_EQ(apps.size(), 2u);
  apps.clear();
  // Probes stay exact after the move: a level inside both windows finds
  // nothing, one between them finds only the narrower window's owner.
  table.CollectViolatedApps(ResourceId::kNetworkBandwidth, 2, 75.0, &apps);
  EXPECT_TRUE(apps.empty());
  table.CollectViolatedApps(ResourceId::kNetworkBandwidth, 2, 55.0, &apps);
  EXPECT_EQ(apps.size(), 1u);
}

TEST(RequestTableTest, IdsStayUniqueAcrossSlotChurn) {
  RequestTable table;
  std::vector<RequestId> retired;
  for (int round = 0; round < 5; ++round) {
    const RequestId id =
        table.Register(7, ResourceDescriptor{ResourceId::kNetworkBandwidth, 0.0, 1.0, nullptr});
    for (const RequestId old : retired) {
      EXPECT_NE(id, old);
      // A stale handle from an earlier round never cancels the new occupant.
      EXPECT_EQ(table.Cancel(old).code(), StatusCode::kNotFound);
    }
    EXPECT_EQ(table.size(), 1u);
    ASSERT_TRUE(table.Cancel(id).ok());
    retired.push_back(id);
  }
  EXPECT_EQ(table.size(), 0u);
}

// --- Viceroy ---

class ViceroyTest : public ::testing::Test {
 protected:
  ViceroyTest() : viceroy_(&sim_, std::make_unique<LaissezFaireStrategy>()) {}

  Simulation sim_;
  Viceroy viceroy_;
};

TEST_F(ViceroyTest, RegistersApplications) {
  EXPECT_EQ(viceroy_.ApplicationName(1), "<unknown>");  // none registered yet
  // Ids are dense from 1; 0 and ids past the last are unknown.
  const AppId a = viceroy_.RegisterApplication("alpha");
  const AppId b = viceroy_.RegisterApplication("beta");
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(viceroy_.ApplicationName(a), "alpha");
  EXPECT_EQ(viceroy_.ApplicationName(b), "beta");
  EXPECT_EQ(viceroy_.ApplicationName(0), "<unknown>");
  EXPECT_EQ(viceroy_.ApplicationName(3), "<unknown>");
  EXPECT_EQ(viceroy_.ApplicationName(999), "<unknown>");
}

TEST_F(ViceroyTest, StaticResourcesHaveDefaults) {
  const AppId app = viceroy_.RegisterApplication("app");
  EXPECT_GT(viceroy_.CurrentLevel(app, ResourceId::kBatteryPower), 0.0);
  EXPECT_GT(viceroy_.CurrentLevel(app, ResourceId::kDiskCacheSpace), 0.0);
  EXPECT_GT(viceroy_.CurrentLevel(app, ResourceId::kCpu), 0.0);
  EXPECT_GT(viceroy_.CurrentLevel(app, ResourceId::kMoney), 0.0);
}

TEST_F(ViceroyTest, RequestWithinWindowRegisters) {
  const AppId app = viceroy_.RegisterApplication("app");
  ResourceDescriptor descriptor{ResourceId::kBatteryPower, 0.0, 1e9, nullptr};
  const RequestResult result = viceroy_.Request(app, descriptor);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.id, 0u);
  EXPECT_TRUE(viceroy_.Cancel(result.id).ok());
}

TEST_F(ViceroyTest, RequestOutsideWindowReturnsLevel) {
  // §4.2: "If the resource is currently outside the bounds of the tolerance
  // window, an error code and the current available resource level are
  // returned."
  const AppId app = viceroy_.RegisterApplication("app");
  ResourceDescriptor descriptor{ResourceId::kBatteryPower, 1e9, 2e9, nullptr};
  const RequestResult result = viceroy_.Request(app, descriptor);
  EXPECT_FALSE(result.ok());
  EXPECT_DOUBLE_EQ(result.current_level,
                   viceroy_.CurrentLevel(app, ResourceId::kBatteryPower));
}

TEST_F(ViceroyTest, MalformedWindowIsRejectedAndRegistersNothing) {
  // A NaN bound passes the "level outside the window" test (every
  // comparison with NaN is false), and once in the bound-ordered interval
  // index it hides *other* apps' violated windows from the indexed probe.
  // Inverted and infinite bounds are caller bugs of the same kind.
  const AppId app = viceroy_.RegisterApplication("app");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<double, double>> malformed = {
      {nan, 1e9}, {0.0, nan}, {nan, nan}, {1e9, 0.0}, {-inf, 1e9}, {0.0, inf},
  };
  for (const auto& [lower, upper] : malformed) {
    const RequestResult result =
        viceroy_.Request(app, ResourceDescriptor{ResourceId::kBatteryPower, lower, upper, nullptr});
    EXPECT_FALSE(result.ok()) << "[" << lower << ", " << upper << "]";
    EXPECT_EQ(result.code, StatusCode::kInvalidArgument) << "[" << lower << ", " << upper << "]";
    EXPECT_EQ(result.id, 0u);
  }
  EXPECT_EQ(viceroy_.requests().size(), 0u);
  // A well-formed window the level lies outside is the paper's out-of-bounds
  // answer, distinguishable from a malformed one.
  const RequestResult outside =
      viceroy_.Request(app, ResourceDescriptor{ResourceId::kBatteryPower, 1e9, 2e9, nullptr});
  EXPECT_EQ(outside.code, StatusCode::kOutOfBounds);
  const RequestResult inside =
      viceroy_.Request(app, ResourceDescriptor{ResourceId::kBatteryPower, 0.0, 1e9, nullptr});
  EXPECT_EQ(inside.code, StatusCode::kOk);
}

TEST_F(ViceroyTest, NonFiniteStaticLevelIsRejected) {
  const AppId app = viceroy_.RegisterApplication("app");
  bool fired = false;
  ResourceDescriptor descriptor{ResourceId::kMoney, 10.0, 100.0,
                                [&](RequestId, ResourceId, double) { fired = true; }};
  ASSERT_TRUE(viceroy_.Request(app, descriptor).ok());
  const double before = viceroy_.CurrentLevel(app, ResourceId::kMoney);
  for (const double level : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(viceroy_.SetStaticLevel(ResourceId::kMoney, level).code(),
              StatusCode::kInvalidArgument);
  }
  sim_.Run();
  EXPECT_FALSE(fired);  // nothing was re-evaluated
  EXPECT_DOUBLE_EQ(viceroy_.CurrentLevel(app, ResourceId::kMoney), before);
}

TEST_F(ViceroyTest, StaticLevelChangeFiresUpcall) {
  const AppId app = viceroy_.RegisterApplication("app");
  double seen_level = -1.0;
  ResourceDescriptor descriptor{ResourceId::kBatteryPower, 100.0,
                                std::numeric_limits<double>::max(),
                                [&](RequestId, ResourceId, double level) { seen_level = level; }};
  ASSERT_TRUE(viceroy_.Request(app, descriptor).ok());
  // The battery drains.
  ASSERT_TRUE(viceroy_.SetStaticLevel(ResourceId::kBatteryPower, 50.0).ok());
  sim_.Run();
  EXPECT_DOUBLE_EQ(seen_level, 50.0);
  // The registration was consumed: further changes are silent.
  seen_level = -1.0;
  ASSERT_TRUE(viceroy_.SetStaticLevel(ResourceId::kBatteryPower, 10.0).ok());
  sim_.Run();
  EXPECT_DOUBLE_EQ(seen_level, -1.0);
}

TEST_F(ViceroyTest, ChangeWithinWindowIsSilent) {
  const AppId app = viceroy_.RegisterApplication("app");
  bool fired = false;
  ResourceDescriptor descriptor{ResourceId::kMoney, 0.0, 100.0,
                                [&](RequestId, ResourceId, double) { fired = true; }};
  ASSERT_TRUE(viceroy_.Request(app, descriptor).ok());
  ASSERT_TRUE(viceroy_.SetStaticLevel(ResourceId::kMoney, 20.0).ok());
  sim_.Run();
  EXPECT_FALSE(fired);
}

TEST_F(ViceroyTest, CancelPreventsUpcall) {
  const AppId app = viceroy_.RegisterApplication("app");
  bool fired = false;
  ResourceDescriptor descriptor{ResourceId::kMoney, 10.0, 100.0,
                                [&](RequestId, ResourceId, double) { fired = true; }};
  const RequestResult result = viceroy_.Request(app, descriptor);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(viceroy_.Cancel(result.id).ok());
  ASSERT_TRUE(viceroy_.SetStaticLevel(ResourceId::kMoney, 0.0).ok());
  sim_.Run();
  EXPECT_FALSE(fired);
}

TEST_F(ViceroyTest, BandwidthAndLatencyNotSettable) {
  const AppId app = viceroy_.RegisterApplication("app");
  EXPECT_EQ(viceroy_.SetStaticLevel(ResourceId::kNetworkBandwidth, 1e6).code(),
            StatusCode::kUnsupported);
  EXPECT_DOUBLE_EQ(viceroy_.CurrentLevel(app, ResourceId::kNetworkBandwidth), 0.0);
}

TEST_F(ViceroyTest, UpcallsForTwoAppsIndependent) {
  const AppId a = viceroy_.RegisterApplication("a");
  const AppId b = viceroy_.RegisterApplication("b");
  int fired_a = 0;
  int fired_b = 0;
  ResourceDescriptor descriptor{ResourceId::kMoney, 10.0, 100.0, nullptr};
  descriptor.handler = [&](RequestId, ResourceId, double) { ++fired_a; };
  ASSERT_TRUE(viceroy_.Request(a, descriptor).ok());
  descriptor.handler = [&](RequestId, ResourceId, double) { ++fired_b; };
  ASSERT_TRUE(viceroy_.Request(b, descriptor).ok());
  ASSERT_TRUE(viceroy_.SetStaticLevel(ResourceId::kMoney, 5.0).ok());
  sim_.Run();
  EXPECT_EQ(fired_a, 1);
  EXPECT_EQ(fired_b, 1);
}

}  // namespace
}  // namespace odyssey
