#include "src/core/cache_manager.h"

#include "src/core/contract.h"

namespace odyssey {

CacheManager::CacheManager(Viceroy* viceroy, double capacity_kb)
    : viceroy_(viceroy), capacity_kb_(capacity_kb) {
  Publish();
}

bool CacheManager::Reserve(double kb) {
  if (kb < 0.0 || used_kb_ + kb > capacity_kb_) {
    return false;
  }
  used_kb_ += kb;
  Publish();
  return true;
}

void CacheManager::Release(double kb) {
  used_kb_ -= kb;
  if (used_kb_ < 0.0) {
    used_kb_ = 0.0;
  }
  Publish();
}

void CacheManager::Publish() {
  const Status published = viceroy_->SetStaticLevel(ResourceId::kDiskCacheSpace, free_kb());
  ODY_ASSERT(published.ok(), "cache level rejected by the viceroy");
}

}  // namespace odyssey
