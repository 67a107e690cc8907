// Unit tests for the RPC endpoint and observation logs.

#include <gtest/gtest.h>

#include <limits>

#include "src/net/link.h"
#include "src/rpc/endpoint.h"
#include "src/rpc/observation_log.h"
#include "src/sim/simulation.h"
#include "tests/recording_listener.h"

namespace odyssey {
namespace {

constexpr double kKb = 1024.0;

TEST(ObservationLogTest, RecordsAndNotifies) {
  ObservationLog log(7);
  RecordingListener listener;
  log.AddListener(&listener);
  log.RecordRoundTrip(100, 21 * kMillisecond);
  log.RecordThroughput(200, 1000.0, kSecond);
  EXPECT_EQ(listener.last_connection, 7u);
  ASSERT_EQ(listener.round_trips.size(), 1u);
  ASSERT_EQ(listener.throughputs.size(), 1u);
  EXPECT_EQ(listener.round_trips[0].at, 100);
  EXPECT_EQ(listener.round_trips[0].rtt, 21 * kMillisecond);
  EXPECT_EQ(listener.throughputs[0].at, 200);
  EXPECT_DOUBLE_EQ(listener.throughputs[0].window_bytes, 1000.0);
  EXPECT_EQ(listener.throughputs[0].elapsed, kSecond);
}

TEST(ObservationLogTest, RemoveListenerStopsNotifications) {
  ObservationLog log(1);
  RecordingListener listener;
  log.AddListener(&listener);
  log.RemoveListener(&listener);
  log.RecordRoundTrip(0, 1);
  EXPECT_TRUE(listener.round_trips.empty());
}

// Malformed passive observations come from a broken transport or feed, not
// from the network: the log drops them before forwarding.
TEST(ObservationLogTest, DropsMalformedThroughput) {
  ObservationLog log(3);
  RecordingListener listener;
  log.AddListener(&listener);
  log.RecordThroughput(100, std::numeric_limits<double>::quiet_NaN(), kSecond);
  log.RecordThroughput(100, std::numeric_limits<double>::infinity(), kSecond);
  log.RecordThroughput(100, -1.0, kSecond);
  log.RecordThroughput(100, 1000.0, -1);
  EXPECT_TRUE(listener.throughputs.empty());
}

TEST(ObservationLogTest, DropsNegativeRoundTrip) {
  ObservationLog log(3);
  RecordingListener listener;
  log.AddListener(&listener);
  log.RecordRoundTrip(100, -1);
  EXPECT_TRUE(listener.round_trips.empty());
}

TEST(ObservationLogTest, CountsRejectedAndKeepsBoundaryValues) {
  ObservationLog log(3);
  RecordingListener listener;
  log.AddListener(&listener);
  log.RecordThroughput(100, -0.5, kSecond);
  log.RecordThroughput(100, 1000.0, -kSecond);
  log.RecordRoundTrip(100, -kMillisecond);
  EXPECT_EQ(log.rejected_count(), 3u);
  // Zero bytes, a zero elapsed (a point delivery) and a zero rtt are legal.
  log.RecordThroughput(200, 0.0, kSecond);
  log.RecordThroughput(200, 1000.0, 0);
  log.RecordRoundTrip(200, 0);
  EXPECT_EQ(log.rejected_count(), 3u);
  ASSERT_EQ(listener.throughputs.size(), 2u);
  EXPECT_EQ(listener.throughputs[1].elapsed, 0);
  ASSERT_EQ(listener.round_trips.size(), 1u);
}

TEST(EndpointTest, UniqueIds) {
  Simulation sim;
  Link link(&sim, 100.0 * kKb, 0);
  Endpoint a(&sim, &link, "a");
  Endpoint b(&sim, &link, "b");
  EXPECT_NE(a.id(), b.id());
  EXPECT_EQ(a.log().connection(), a.id());
}

TEST(EndpointTest, PingLogsLatencyDominatedRoundTrip) {
  Simulation sim;
  Link link(&sim, 120.0 * kKb, 10500);
  Endpoint endpoint(&sim, &link, "server");
  RecordingListener seen;
  endpoint.log().AddListener(&seen);
  endpoint.Ping(Endpoint::Done());
  sim.Run();
  ASSERT_EQ(seen.round_trips.size(), 1u);
  const Duration rtt = seen.round_trips[0].rtt;
  // Two 64-byte control messages at 120 KB/s cost ~1 ms; the rest is the
  // 21 ms round-trip latency.
  EXPECT_GE(rtt, 21 * kMillisecond);
  EXPECT_LE(rtt, 23 * kMillisecond);
}

TEST(EndpointTest, CallExcludesServerCompute) {
  Simulation sim;
  Link link(&sim, 120.0 * kKb, 10500);
  Endpoint endpoint(&sim, &link, "server");
  RecordingListener seen;
  endpoint.log().AddListener(&seen);
  Time done_at = -1;
  endpoint.Call(64.0, 64.0, 5 * kSecond, [&] { done_at = sim.now(); });
  sim.Run();
  // Completion waits for the server's 5 s of compute...
  EXPECT_GT(done_at, 5 * kSecond);
  // ...but the logged round trip excludes it.
  ASSERT_EQ(seen.round_trips.size(), 1u);
  EXPECT_LT(seen.round_trips[0].rtt, 100 * kMillisecond);
}

TEST(EndpointTest, FetchWindowLogsThroughput) {
  Simulation sim;
  Link link(&sim, 100.0 * kKb, 0);
  Endpoint endpoint(&sim, &link, "server");
  RecordingListener seen;
  endpoint.log().AddListener(&seen);
  endpoint.FetchWindow(50.0 * kKb, Endpoint::Done());
  sim.Run();
  ASSERT_EQ(seen.throughputs.size(), 1u);
  const ThroughputObservation& obs = seen.throughputs[0];
  EXPECT_DOUBLE_EQ(obs.window_bytes, 50.0 * kKb);
  // 50 KB at 100 KB/s plus the 64-byte request.
  EXPECT_NEAR(DurationToSeconds(obs.elapsed), 0.5, 0.01);
  EXPECT_DOUBLE_EQ(endpoint.bytes_transferred(), 50.0 * kKb);
}

TEST(EndpointTest, FetchSplitsIntoWindows) {
  Simulation sim;
  Link link(&sim, 100.0 * kKb, 0);
  Endpoint endpoint(&sim, &link, "server");
  RecordingListener seen;
  endpoint.log().AddListener(&seen);
  endpoint.set_window_bytes(32.0 * kKb);
  bool done = false;
  endpoint.Fetch(100.0 * kKb, 0, [&] { done = true; });
  sim.Run();
  EXPECT_TRUE(done);
  // One round trip for the transfer request...
  EXPECT_EQ(seen.round_trips.size(), 1u);
  // ...then 32+32+32+4 KB windows.
  ASSERT_EQ(seen.throughputs.size(), 4u);
  EXPECT_DOUBLE_EQ(seen.throughputs[3].window_bytes, 4.0 * kKb);
  EXPECT_NEAR(endpoint.bytes_transferred(), 100.0 * kKb, 0.1);
}

TEST(EndpointTest, FetchZeroBytesCompletesWithoutWindows) {
  Simulation sim;
  Link link(&sim, 100.0 * kKb, 0);
  Endpoint endpoint(&sim, &link, "server");
  RecordingListener seen;
  endpoint.log().AddListener(&seen);
  bool done = false;
  endpoint.Fetch(0.0, 0, [&] { done = true; });
  sim.Run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(seen.throughputs.empty());
}

TEST(EndpointTest, SendMirrorsFetchTiming) {
  Simulation sim;
  Link link(&sim, 100.0 * kKb, 0);
  Endpoint fetcher(&sim, &link, "down");
  Time fetch_done = -1;
  fetcher.Fetch(64.0 * kKb, 0, [&] { fetch_done = sim.now(); });
  sim.Run();

  Simulation sim2;
  Link link2(&sim2, 100.0 * kKb, 0);
  Endpoint sender(&sim2, &link2, "up");
  Time send_done = -1;
  sender.Send(64.0 * kKb, 0, [&] { send_done = sim2.now(); });
  sim2.Run();

  EXPECT_EQ(fetch_done, send_done);
}

TEST(EndpointTest, ConcurrentEndpointsShareTheLink) {
  Simulation sim;
  Link link(&sim, 100.0 * kKb, 0);
  Endpoint a(&sim, &link, "a");
  Endpoint b(&sim, &link, "b");
  Time a_done = -1;
  Time b_done = -1;
  a.FetchWindow(50.0 * kKb, [&] { a_done = sim.now(); });
  b.FetchWindow(50.0 * kKb, [&] { b_done = sim.now(); });
  sim.Run();
  // Both windows share the link, so each takes ~1 s rather than ~0.5 s.
  EXPECT_NEAR(DurationToSeconds(a_done), 1.0, 0.02);
  EXPECT_NEAR(DurationToSeconds(b_done), 1.0, 0.02);
}

TEST(EndpointTest, ObservedThroughputReflectsContention) {
  Simulation sim;
  Link link(&sim, 100.0 * kKb, 0);
  Endpoint a(&sim, &link, "a");
  Endpoint b(&sim, &link, "b");
  RecordingListener seen;
  a.log().AddListener(&seen);
  a.FetchWindow(50.0 * kKb, Endpoint::Done());
  b.FetchWindow(50.0 * kKb, Endpoint::Done());
  sim.Run();
  ASSERT_EQ(seen.throughputs.size(), 1u);
  const ThroughputObservation& obs = seen.throughputs[0];
  const double observed_bps = obs.window_bytes / DurationToSeconds(obs.elapsed);
  EXPECT_NEAR(observed_bps, 50.0 * kKb, 2.0 * kKb);
}

}  // namespace
}  // namespace odyssey
