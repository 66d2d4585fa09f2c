#include "serve/plan_cache.hpp"

#include <string>

namespace dmtk::serve {

std::string PlanKey::to_string() const {
  std::string s = "dims=";
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i > 0) s += 'x';
    s += std::to_string(dims[i]);
  }
  s += "|rank=" + std::to_string(rank);
  s += "|scheme=" + std::string(dmtk::to_string(scheme));
  s += "|method=" + std::string(dmtk::to_string(method));
  s += f32 ? "|prec=f32" : "|prec=f64";
  return s;
}

PlanCacheStats& PlanCacheStats::operator+=(const PlanCacheStats& o) {
  hits += o.hits;
  misses += o.misses;
  evictions += o.evictions;
  bypass += o.bypass;
  build_failures += o.build_failures;
  degraded += o.degraded;
  entries += o.entries;
  bytes += o.bytes;
  max_entries += o.max_entries;
  max_bytes += o.max_bytes;
  return *this;
}

std::size_t PlanCache::estimate_bytes(const PlanKey& key,
                                      std::size_t workspace_bytes) {
  // Workspace reservation (DimTree intermediates / sparse scratch; zero
  // for PerMode whose per-mode plans size their own frames) plus the
  // factor-shaped working set the plan's sweeps traffic (one MTTKRP
  // output and one factor per mode), plus fixed structural overhead.
  const std::size_t scalar = key.f32 ? sizeof(float) : sizeof(double);
  std::size_t factor_elems = 0;
  for (const index_t d : key.dims) {
    factor_elems += static_cast<std::size_t>(d) *
                    static_cast<std::size_t>(key.rank);
  }
  constexpr std::size_t kEntryOverhead = 4096;
  return workspace_bytes + 2 * factor_elems * scalar + kEntryOverhead;
}

PlanCache::Entry* PlanCache::get_or_build(const PlanKey& key,
                                          const ExecContext& ctx,
                                          bool* built) {
  if (built != nullptr) *built = false;
  if (max_entries_ == 0) {
    bypass_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  DMTK_CHECK(key.scheme == SweepScheme::PerMode ||
                 key.scheme == SweepScheme::DimTree,
             "PlanCache: only dense (tensor-free) plans are cacheable");
  const std::string skey = key.to_string();
  if (const auto it = index_.find(skey); it != index_.end()) {
    // Cached entries keep serving even while the cache is degraded —
    // only plan CONSTRUCTION is what failed.
    hits_.fetch_add(1, std::memory_order_relaxed);
    lru_.splice(lru_.begin(), lru_, it->second);  // touch: move to MRU
    return &*it->second;
  }

  if (const std::uint64_t cd =
          degraded_cooldown_.load(std::memory_order_relaxed);
      cd > 0) {
    degraded_cooldown_.store(cd - 1, std::memory_order_relaxed);
    bypass_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }

  Entry e;
  e.key = key;
  std::size_t ws_bytes = 0;
  try {
    if (key.f32) {
      e.f32 = std::make_unique<CpAlsSweepPlanF>(ctx, key.dims, key.rank,
                                                key.scheme, key.method);
      ws_bytes = e.f32->workspace_bytes();
    } else {
      e.f64 = std::make_unique<CpAlsSweepPlan>(ctx, key.dims, key.rank,
                                               key.scheme, key.method);
      ws_bytes = e.f64->workspace_bytes();
    }
  } catch (const std::exception&) {
    // Degrade, don't fail: the caller falls back to a transient plan (or
    // reports a per-job error if that fails too), and the cache stops
    // attempting builds for a cooldown window instead of thrashing a
    // exhausted arena allocator on every request.
    build_failures_.fetch_add(1, std::memory_order_relaxed);
    degraded_cooldown_.store(kDegradedCooldownLookups,
                             std::memory_order_relaxed);
    bypass_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  e.bytes = estimate_bytes(key, ws_bytes);
  if (built != nullptr) *built = true;

  lru_.push_front(std::move(e));
  index_.emplace(skey, lru_.begin());
  bytes_.fetch_add(lru_.front().bytes, std::memory_order_relaxed);
  entries_.fetch_add(1, std::memory_order_relaxed);
  evict_until_within_budget();
  return &lru_.front();
}

void PlanCache::evict_until_within_budget() {
  // Never evict the MRU entry (the one the caller is about to use), even
  // when it alone exceeds the byte budget — a single oversized plan still
  // has to run.
  while (lru_.size() > 1 &&
         (lru_.size() > max_entries_ ||
          bytes_.load(std::memory_order_relaxed) > max_bytes_)) {
    const Entry& victim = lru_.back();
    bytes_.fetch_sub(victim.bytes, std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    index_.erase(victim.key.to_string());
    lru_.pop_back();
  }
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.bypass = bypass_.load(std::memory_order_relaxed);
  s.build_failures = build_failures_.load(std::memory_order_relaxed);
  s.degraded =
      degraded_cooldown_.load(std::memory_order_relaxed) > 0 ? 1 : 0;
  s.entries = entries_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  s.max_entries = max_entries_;
  s.max_bytes = max_bytes_;
  return s;
}

std::vector<PlanKey> PlanCache::keys_mru() const {
  std::vector<PlanKey> keys;
  keys.reserve(lru_.size());
  for (const Entry& e : lru_) keys.push_back(e.key);
  return keys;
}

}  // namespace dmtk::serve
