/// Unit tests for the serve building blocks: the protocol JSON value
/// (strict parse, deterministic dump), the worker-private plan cache
/// (hit counting, LRU eviction order, byte budget, disabled mode), and
/// the bounded job queue (admission control, same-key extraction,
/// graceful drain). The socket-level behavior is covered by
/// test_serve.cpp; these run single-threaded against the components.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "exec/exec_context.hpp"
#include "serve/job_queue.hpp"
#include "serve/json.hpp"
#include "serve/plan_cache.hpp"

namespace dmtk::serve {
namespace {

// ---------------------------------------------------------------------------
// Json
// ---------------------------------------------------------------------------

TEST(ServeJson, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_EQ(Json::parse("42").as_number(), 42.0);
  EXPECT_EQ(Json::parse("-3.5e2").as_number(), -350.0);
  EXPECT_EQ(Json::parse("\"hi\\n\\u0041\"").as_string(), "hi\nA");
}

TEST(ServeJson, RoundTripsNestedValues) {
  const std::string text =
      R"({"a":[1,2.5,true,null],"b":{"c":"x","d":-7},"e":""})";
  const Json j = Json::parse(text);
  EXPECT_EQ(j.dump(), text);  // keys already sorted, integrals undecorated
  EXPECT_EQ(Json::parse(j.dump()), j);
}

TEST(ServeJson, DumpSortsKeysAndEscapes) {
  Json j;
  j.set("zeta", Json(1));
  j.set("alpha", Json("tab\there"));
  EXPECT_EQ(j.dump(), "{\"alpha\":\"tab\\there\",\"zeta\":1}");
}

TEST(ServeJson, DoublesRoundTripBitExactly) {
  const double v = 0.1 + 0.2;  // not representable prettily
  Json j;
  j.set("x", Json(v));
  const Json back = Json::parse(j.dump());
  EXPECT_EQ(back.find("x")->as_number(), v);
}

TEST(ServeJson, RejectsMalformedInput) {
  const char* bad[] = {
      "",           "{",       "[1,]",     "{\"a\":}",    "nul",
      "01",         "1 2",     "\"\\q\"",  "{\"a\":1,}",  "[1 2]",
      "{\"a\" 1}",  "+1",      "\"\x01\"", "{1:2}",       "tru",
  };
  for (const char* t : bad) {
    EXPECT_THROW(Json::parse(t), JsonError) << "input: " << t;
  }
}

TEST(ServeJson, RejectsDuplicateKeysAndDeepNesting) {
  EXPECT_THROW(Json::parse(R"({"a":1,"a":2})"), JsonError);
  std::string deep;
  for (int i = 0; i < Json::kMaxDepth + 1; ++i) deep += '[';
  deep += "1";
  for (int i = 0; i < Json::kMaxDepth + 1; ++i) deep += ']';
  EXPECT_THROW(Json::parse(deep), JsonError);
}

TEST(ServeJson, FindIsNullSafeOnNonObjects) {
  EXPECT_EQ(Json(3).find("a"), nullptr);
  Json obj;
  obj.set("a", Json(1));
  EXPECT_EQ(obj.find("missing"), nullptr);
  ASSERT_NE(obj.find("a"), nullptr);
  EXPECT_EQ(obj.find("a")->as_number(), 1.0);
}

// ---------------------------------------------------------------------------
// PlanCache
// ---------------------------------------------------------------------------

PlanKey key_for(std::vector<index_t> dims, index_t rank, bool f32 = false) {
  PlanKey k;
  k.dims = std::move(dims);
  k.rank = rank;
  k.scheme = SweepScheme::PerMode;
  k.f32 = f32;
  return k;
}

TEST(ServePlanCache, CountsHitsAndMisses) {
  ExecContext ctx(1);
  PlanCache cache(8, std::size_t{1} << 30);
  const PlanKey k = key_for({6, 5, 4}, 2);

  bool built = false;
  PlanCache::Entry* e1 = cache.get_or_build(k, ctx, &built);
  ASSERT_NE(e1, nullptr);
  EXPECT_TRUE(built);
  ASSERT_NE(e1->f64, nullptr);
  EXPECT_EQ(e1->f32, nullptr);

  PlanCache::Entry* e2 = cache.get_or_build(k, ctx, &built);
  EXPECT_EQ(e2, e1);
  EXPECT_FALSE(built);

  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GT(s.bytes, 0u);
}

TEST(ServePlanCache, PrecisionSplitsTheKey) {
  ExecContext ctx(1);
  PlanCache cache(8, std::size_t{1} << 30);
  cache.get_or_build(key_for({6, 5, 4}, 2, false), ctx);
  PlanCache::Entry* ef = cache.get_or_build(key_for({6, 5, 4}, 2, true), ctx);
  ASSERT_NE(ef, nullptr);
  EXPECT_EQ(ef->f64, nullptr);
  ASSERT_NE(ef->f32, nullptr);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ServePlanCache, EvictsLeastRecentlyUsedAtEntryCap) {
  ExecContext ctx(1);
  PlanCache cache(2, std::size_t{1} << 30);
  const PlanKey a = key_for({6, 5, 4}, 2);
  const PlanKey b = key_for({7, 5, 4}, 2);
  const PlanKey c = key_for({8, 5, 4}, 2);

  cache.get_or_build(a, ctx);
  cache.get_or_build(b, ctx);
  cache.get_or_build(a, ctx);  // a is now MRU, b is LRU
  cache.get_or_build(c, ctx);  // evicts b

  const auto mru = cache.keys_mru();
  ASSERT_EQ(mru.size(), 2u);
  EXPECT_EQ(mru[0], c);
  EXPECT_EQ(mru[1], a);
  EXPECT_EQ(cache.stats().evictions, 1u);

  bool built = false;
  cache.get_or_build(b, ctx, &built);  // b was evicted: a rebuild
  EXPECT_TRUE(built);
}

TEST(ServePlanCache, ByteBudgetEvictsButNeverTheNewestEntry) {
  ExecContext ctx(1);
  // Budget of 1 byte: every insertion overflows, so each new entry
  // evicts everything older — but never itself.
  PlanCache cache(8, 1);
  const PlanKey a = key_for({6, 5, 4}, 2);
  const PlanKey b = key_for({7, 5, 4}, 2);
  cache.get_or_build(a, ctx);
  EXPECT_EQ(cache.stats().entries, 1u);
  cache.get_or_build(b, ctx);
  const auto mru = cache.keys_mru();
  ASSERT_EQ(mru.size(), 1u);
  EXPECT_EQ(mru[0], b);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ServePlanCache, DisabledCacheBypasses) {
  ExecContext ctx(1);
  PlanCache cache(0, std::size_t{1} << 30);
  bool built = true;
  EXPECT_EQ(cache.get_or_build(key_for({6, 5, 4}, 2), ctx, &built), nullptr);
  EXPECT_FALSE(built);
  cache.note_bypass();
  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.bypass, 2u);  // one from the disabled lookup, one explicit
}

TEST(ServePlanCache, KeyStringIsCanonical) {
  const PlanKey k = key_for({6, 5, 4}, 2);
  EXPECT_EQ(k.to_string(),
            "dims=6x5x4|rank=2|scheme=permode|method=auto|prec=f64");
  EXPECT_EQ(key_for({6, 5, 4}, 2, true).to_string(),
            "dims=6x5x4|rank=2|scheme=permode|method=auto|prec=f32");
}

// ---------------------------------------------------------------------------
// JobQueue
// ---------------------------------------------------------------------------

TEST(ServeJobQueue, RejectsWhenFull) {
  JobQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1, "k"));
  EXPECT_TRUE(q.try_push(2, "k"));
  EXPECT_FALSE(q.try_push(3, "k"));
  const JobQueueStats s = q.stats();
  EXPECT_EQ(s.admitted, 2u);
  EXPECT_EQ(s.rejected_busy, 1u);
  EXPECT_EQ(s.depth, 2u);
  EXPECT_EQ(s.capacity, 2u);
}

TEST(ServeJobQueue, ExtractMatchingPreservesFifoAmongMatches) {
  JobQueue<int> q(8);
  ASSERT_TRUE(q.try_push(1, "a"));
  ASSERT_TRUE(q.try_push(2, "b"));
  ASSERT_TRUE(q.try_push(3, "a"));
  ASSERT_TRUE(q.try_push(4, "a"));

  std::vector<JobQueue<int>::Item> batch;
  EXPECT_EQ(q.extract_matching("a", 2, batch), 2u);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].job, 1);
  EXPECT_EQ(batch[1].job, 3);

  // The non-matching job and the over-max one are still queued, in order.
  auto i1 = q.pop();
  auto i2 = q.pop();
  ASSERT_TRUE(i1 && i2);
  EXPECT_EQ(i1->job, 2);
  EXPECT_EQ(i2->job, 4);
}

TEST(ServeJobQueue, EmptyKeyNeverMatches) {
  JobQueue<int> q(8);
  ASSERT_TRUE(q.try_push(1, ""));
  std::vector<JobQueue<int>::Item> batch;
  EXPECT_EQ(q.extract_matching("", 4, batch), 0u);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(q.stats().depth, 1u);
}

TEST(ServeJobQueue, StopDrainsThenSignalsExit) {
  JobQueue<int> q(8);
  ASSERT_TRUE(q.try_push(1, ""));
  q.stop();
  EXPECT_FALSE(q.try_push(2, ""));  // stopped reads as busy
  auto drained = q.pop();
  ASSERT_TRUE(drained.has_value());
  EXPECT_EQ(drained->job, 1);
  EXPECT_FALSE(q.pop().has_value());  // stopped and empty: worker exits
}

TEST(ServeJobQueue, StopWakesBlockedConsumer) {
  JobQueue<int> q(8);
  std::thread consumer([&] { EXPECT_FALSE(q.pop().has_value()); });
  q.stop();
  consumer.join();
}

}  // namespace
}  // namespace dmtk::serve
