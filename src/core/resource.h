// Generic resources and resource descriptors (Figure 3 of the paper).
//
// A resource descriptor names a resource, a window of tolerance on its
// availability, and the upcall handler to invoke when availability strays
// outside the window.  The prototype in the paper manages network bandwidth;
// this implementation manages the full Figure 3(c) table, with bandwidth and
// latency driven by passive estimation and the remainder by settable
// providers.

#ifndef SRC_CORE_RESOURCE_H_
#define SRC_CORE_RESOURCE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>

#include "src/core/status.h"

namespace odyssey {

// Identifies an application registered with the Odyssey client.
using AppId = uint64_t;

// Identifies a registered resource request (window of tolerance).
using RequestId = uint64_t;

// Figure 3(c): the generic resources Odyssey manages, with their units.
enum class ResourceId {
  kNetworkBandwidth,  // bytes/second
  kNetworkLatency,    // microseconds
  kDiskCacheSpace,    // kilobytes
  kCpu,               // SPECint95
  kBatteryPower,      // minutes
  kMoney,             // cents
};

inline constexpr ResourceId kAllResources[] = {
    ResourceId::kNetworkBandwidth, ResourceId::kNetworkLatency, ResourceId::kDiskCacheSpace,
    ResourceId::kCpu,              ResourceId::kBatteryPower,   ResourceId::kMoney,
};

// Human-readable resource name.
const char* ResourceName(ResourceId resource);
// Unit string from Figure 3(c).
const char* ResourceUnit(ResourceId resource);

// The upcall handler signature (Figure 3d): the request on whose behalf the
// upcall is delivered, the resource whose availability changed, and the new
// availability.
using UpcallHandler = std::function<void(RequestId, ResourceId, double)>;

// Figure 3(b): a resource descriptor.
struct ResourceDescriptor {
  ResourceId resource = ResourceId::kNetworkBandwidth;
  double lower = 0.0;
  double upper = std::numeric_limits<double>::max();
  UpcallHandler handler;
};

// Verdict of the admission check a window registration passes through when
// the installed bandwidth strategy implements QoS arbitration.  Strategies
// without admission control admit everything, so kAdmitted is the default.
enum class AdmissionVerdict {
  kAdmitted = 0,  // window registered at the requested fidelity
  kDegraded = 1,  // an existing window was pushed to a lower fidelity tier
  kRejected = 2,  // registration refused; nothing was registered
};

// Human-readable verdict name ("admit" / "degrade" / "reject").
const char* AdmissionVerdictName(AdmissionVerdict verdict);

// Structured outcome of one admission decision.  |reason| is a static
// string owned by the strategy ("ok", "over-committed", ...); |reason_code|
// is its stable numeric twin so trace events (which carry doubles) can
// record the decision.  |granted_level| is the availability the strategy
// believes the admitted window will see — informational, not a reservation.
struct AdmissionDecision {
  AdmissionVerdict verdict = AdmissionVerdict::kAdmitted;
  const char* reason = "ok";
  int reason_code = 0;
  double granted_level = 0.0;
};

// Result of a request() call.  On kOk, |id| identifies the registration; on
// kOutOfBounds, |current_level| reports the available resource level so the
// application can pick a new fidelity and try again (§4.2).  |admission|
// reports the arbitration verdict: a request can fail either because the
// current level sits outside the proposed window (the paper's Figure 3
// semantics, verdict stays kAdmitted) or because an admission-controlling
// strategy rejected it (verdict kRejected with a reason); both are
// kOutOfBounds.  kInvalidArgument means the window itself was malformed
// (a non-finite or inverted bound): nothing was registered and no level or
// admission decision was consulted.
struct [[nodiscard]] RequestResult {
  bool ok() const { return status_ok; }

  bool status_ok = false;
  StatusCode code = StatusCode::kOutOfBounds;
  RequestId id = 0;
  double current_level = 0.0;
  AdmissionDecision admission;
};

}  // namespace odyssey

#endif  // SRC_CORE_RESOURCE_H_
