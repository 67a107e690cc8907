// The same shapes, each carrying its justification annotation.
#include <map>
#include <set>

namespace odyssey {

struct Tables {
  std::map<AppId, std::string> apps;  // ody-lint: allow(hot-core-dense-ids)
  // ody-lint: allow(hot-core-dense-ids)
  std::set<RequestId> cancelled;
  std::multimap<ConnectionId, double> samples;  // ody-lint: allow(hot-core-dense-ids)
};

}  // namespace odyssey
