// Hot-core tables keyed by dense ids in ordered trees: every shape the rule knows.
#include <map>
#include <set>

namespace odyssey {

struct Tables {
  std::map<AppId, std::string> apps;
  std::set<RequestId> cancelled;
  std::multimap<ConnectionId, double> samples;
  std::map<std::pair<size_t, AppId>, std::vector<uint32_t>> buckets;
  std::map<
      RequestId, int>
      wrapped;
  using BoundKey = std::tuple<uint32_t, double, RequestId>;
  std::map<BoundKey, uint32_t> interval_index;
  std::map<int, int> apps_by_count;             // not a dense id
  std::map<std::string, AppId> app_by_name;     // the id is the value, not the key
  std::unordered_map<RequestId, int> hashed;    // hashed, not a tree
  std::vector<AppId> owner;                     // the layout the rule asks for
};

}  // namespace odyssey
