#pragma once
/// \file plan_cache.hpp
/// \brief The server's warm plan cache: CpAlsSweepPlans keyed on
/// (shape, rank, sweep scheme, method, precision), LRU-evicted
/// under an entry cap and a byte budget.
///
/// This is the paper's amortization argument lifted to the request level:
/// a CpAlsSweepPlan precomputes scheme dispatch, tree layout, thread
/// partitions, and the whole workspace reservation for one (shape, rank)
/// — construction cost the batch CLI pays on every invocation and a
/// resident server pays once per distinct key. Entries hold the plan of
/// exactly one scalar precision (the key's); mixed-precision traffic for
/// the same shape produces two entries, which is correct — the plans are
/// distinct template instantiations with distinct workspaces.
///
/// Threading contract: a PlanCache belongs to ONE worker thread, the one
/// that owns the ExecContext every cached plan is built against — that is
/// what keeps workspace arenas strictly thread-private (plans draw
/// per-execute frames from their context's arena). Only the counters are
/// atomic, so a stats request served on another thread can snapshot them
/// without touching the cache structure itself.
///
/// Deliberately NOT annotated with thread-safety attributes: there is no
/// mutex here to be a capability, by design. The confinement invariant
/// ("structure touched only by its owning worker") is the alternative to
/// locking, not an omission of it — adding a Mutex to satisfy the
/// analysis would put a lock on the server's hot path exactly where the
/// architecture exists to avoid one. The cross-thread surface is the
/// atomic counters below and nothing else.
///
/// Byte accounting is an estimate (workspace reservation + factor-sized
/// working set + fixed overhead), monotone in shape and rank — good
/// enough to bound resident memory and to make eviction order testable,
/// not a malloc audit.

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/mttkrp.hpp"
#include "exec/exec_context.hpp"
#include "exec/sweep_plan.hpp"

namespace dmtk::serve {

/// Everything that determines a dense sweep plan's construction. `scheme`
/// must be RESOLVED (never Auto): the resolver depends on the order, so
/// keying on the request's literal scheme would alias a 3-way "auto"
/// (PerMode) with a 3-way "permode" under one key while splitting
/// identical plans under another.
struct PlanKey {
  std::vector<index_t> dims;
  index_t rank = 0;
  SweepScheme scheme = SweepScheme::PerMode;
  MttkrpMethod method = MttkrpMethod::Auto;  ///< PerMode kernel selection
  bool f32 = false;

  friend bool operator==(const PlanKey&, const PlanKey&) = default;

  /// Canonical string form — the cache's hash key, the job queue's batch
  /// key, and the human-readable "key" field of decompose responses.
  [[nodiscard]] std::string to_string() const;
};

/// Snapshot of the cache counters (aggregatable across workers).
struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// Lookups that bypassed the cache entirely: cold requests, sparse
  /// decompositions (their plans bind the tensor, so caching one would
  /// cache the data too), every lookup when the cache is disabled, and
  /// every lookup while the cache is degraded after a build failure.
  std::uint64_t bypass = 0;
  /// Plan constructions that threw (typically arena allocation failure).
  /// Each one puts the cache into degraded (bypass) mode for a while.
  std::uint64_t build_failures = 0;
  /// 1 while this cache is in its degraded cooldown, else 0 — summing
  /// across workers counts currently-degraded caches.
  std::uint64_t degraded = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;
  std::size_t max_entries = 0;
  std::size_t max_bytes = 0;

  PlanCacheStats& operator+=(const PlanCacheStats& o);
};

class PlanCache {
 public:
  /// A cached plan: exactly one of the two precision slots is set,
  /// matching key.f32.
  struct Entry {
    PlanKey key;
    std::unique_ptr<CpAlsSweepPlan> f64;
    std::unique_ptr<CpAlsSweepPlanF> f32;
    std::size_t bytes = 0;
  };

  /// `max_entries == 0` disables caching: get_or_build then returns
  /// nullptr (counted as bypass) and the caller builds a transient plan.
  PlanCache(std::size_t max_entries, std::size_t max_bytes)
      : max_entries_(max_entries), max_bytes_(max_bytes) {}

  /// Return the cached plan for `key`, building it against `ctx` on a
  /// miss (then evicting LRU entries until the entry cap and byte budget
  /// hold again — the new entry itself is never evicted). Sets *built
  /// when the call constructed a plan. The returned pointer stays valid
  /// until the next get_or_build (eviction) — callers use it immediately,
  /// on the same thread.
  ///
  /// Self-healing: a plan construction that THROWS (arena allocation
  /// failure under memory pressure, or the `arena.alloc` fault site) does
  /// not fail the request — the failure is counted, the cache degrades to
  /// bypass mode (nullptr returns, caller builds transient plans) for the
  /// next kDegradedCooldownLookups lookups, and then building is retried.
  /// Cached entries stay servable throughout: only construction degrades.
  Entry* get_or_build(const PlanKey& key, const ExecContext& ctx,
                      bool* built = nullptr);

  /// Lookups served in bypass mode after a build failure before the
  /// cache tries to build again.
  static constexpr std::uint64_t kDegradedCooldownLookups = 64;

  /// Count a deliberate cache bypass (cold request / sparse plan).
  void note_bypass() { bypass_.fetch_add(1, std::memory_order_relaxed); }

  [[nodiscard]] PlanCacheStats stats() const;

  /// Keys in most-recently-used-first order — what the LRU tests assert.
  [[nodiscard]] std::vector<PlanKey> keys_mru() const;

  /// Rough resident cost of a plan with this key (workspace reservation +
  /// factor-sized working set + fixed overhead). Exposed so tests can
  /// pick byte budgets that evict on a known boundary.
  static std::size_t estimate_bytes(const PlanKey& key,
                                    std::size_t workspace_bytes);

 private:
  void evict_until_within_budget();

  std::size_t max_entries_;
  std::size_t max_bytes_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> bypass_{0};
  std::atomic<std::uint64_t> build_failures_{0};
  /// Remaining bypass lookups before building is retried. Only the owner
  /// thread mutates it; atomic so stats() can snapshot cross-thread.
  std::atomic<std::uint64_t> degraded_cooldown_{0};
  std::atomic<std::size_t> entries_{0};
  std::atomic<std::size_t> bytes_{0};
};

}  // namespace dmtk::serve
