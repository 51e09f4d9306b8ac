// The benchmark's own tests: seeded plans are reproducible, the oracles
// agree with the library's semantics, the correctness gate rejects wrong
// answers, and each workload loads the layer it is named for.
//
//   cmake --build .bench_build/perfbench --target perfbench_test
//   .bench_build/perfbench/perfbench_test
#include <gtest/gtest.h>

#include <map>

#include "engine/document.hpp"
#include "engine/session.hpp"
#include "server/cluster.hpp"
#include "testing/cde_model.hpp"
#include "util/random.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace spanners;

constexpr Workload kAll[] = {Workload::kWarmRead, Workload::kColdExtract,
                             Workload::kEditRequery};

TEST(PlanTest, SameSeedGivesByteIdenticalOps) {
  for (Workload workload : kAll) {
    EXPECT_EQ(SerializePlan(MakePlan(workload, 7, 1)), SerializePlan(MakePlan(workload, 7, 1)))
        << WorkloadName(workload);
  }
}

TEST(PlanTest, DifferentSeedGivesDifferentOps) {
  for (Workload workload : kAll) {
    EXPECT_NE(SerializePlan(MakePlan(workload, 7, 1)), SerializePlan(MakePlan(workload, 8, 1)))
        << WorkloadName(workload);
  }
}

TEST(PlanTest, OpCountsScaleWithSecondsNotTime) {
  for (Workload workload : kAll) {
    const Plan one = MakePlan(workload, 3, 1), two = MakePlan(workload, 3, 2);
    EXPECT_LT(one.reads[0].size(), two.reads[0].size()) << WorkloadName(workload);
  }
}

/// The library's answer on the plain text (no SLP, no store), for
/// comparison with the scan oracles.
SpanRelation LibraryRelation(const PatternSpec& pattern, const std::string& text) {
  Session session;
  Expected<SpanRelation> relation = session.Evaluate(pattern.regex, Document::FromView(text));
  EXPECT_TRUE(relation.ok()) << pattern.regex << ": " << relation.error();
  return relation.ok() ? *relation : SpanRelation{};
}

TEST(OracleTest, LogLineOracleMatchesLibrary) {
  const Plan plan = MakePlan(Workload::kColdExtract, 5, 1);
  Rng rng(99);
  const std::string text = SyntheticLog(rng, 60);
  for (std::size_t p = 0; p < 24; ++p) {
    const PatternSpec& pattern = plan.patterns[p];
    EXPECT_EQ(OracleRelation(pattern, text), LibraryRelation(pattern, text)) << pattern.regex;
  }
}

TEST(OracleTest, WordsOracleMatchesLibraryOnEditedText) {
  const Plan plan = MakePlan(Workload::kEditRequery, 5, 1);
  Rng rng(99);
  std::vector<std::optional<std::string>> docs = {BoilerplateText(rng, 3, 0.05)};
  // Deletes and copies can put two spaces side by side or split words.
  for (const char* edit : {"delete(D1, 40, 52)", "copy(D1, 3, 20, 100)",
                           "insert(D1, extract(D1, 7, 9), 61)", "delete(D1, 1, 1)"}) {
    Expected<std::string> next = spanners::testing::ModelEvalCde(docs, edit);
    ASSERT_TRUE(next.ok()) << next.error();
    docs[0] = *next;
    for (const PatternSpec& pattern : plan.patterns) {
      EXPECT_EQ(OracleRelation(pattern, *docs[0]), LibraryRelation(pattern, *docs[0]))
          << pattern.regex << " after " << edit;
    }
  }
  for (const PatternSpec& pattern : MakePlan(Workload::kWarmRead, 5, 1).patterns) {
    EXPECT_EQ(OracleRelation(pattern, *docs[0]), LibraryRelation(pattern, *docs[0]))
        << pattern.regex;
  }
}

/// A correct wire answer for \p op, built from the oracle.
QueryResponse OracleResponse(const Plan& plan, const Op& op) {
  QueryResponse response;
  for (uint64_t doc : op.docs) {
    WireDocResult result;
    result.doc = doc;
    const SpanRelation relation = OracleRelation(plan.patterns[op.pattern], plan.corpus[doc - 1]);
    result.num_tuples = relation.size();
    for (const SpanTuple& tuple : relation) {
      if (result.tuples.size() >= plan.max_tuples) break;
      result.tuples.push_back(tuple);
    }
    response.results.push_back(std::move(result));
  }
  return response;
}

TEST(GateTest, AcceptsRightAnswersAndCatchesWrongOnes) {
  const Plan plan = MakePlan(Workload::kWarmRead, 11, 1);
  const Op& op = plan.reads[0].front();
  ASSERT_LT(op.ingest, 0);
  ExpectFn right = [&plan](uint32_t pattern, uint64_t doc, const std::vector<uint64_t>&) {
    static std::map<std::pair<uint32_t, uint64_t>, Expect> cache;
    auto [it, inserted] = cache.try_emplace({pattern, doc});
    if (inserted) {
      it->second = ExpectFor(plan.patterns[pattern], plan.corpus[doc - 1], plan.max_tuples);
    }
    return &it->second;
  };
  const QueryResponse response = OracleResponse(plan, op);
  EXPECT_EQ(Mismatches(op, response, plan.max_tuples, right), 0u);

  // An injected wrong expected answer (count off by one) is caught.
  Expect wrong_count = *right(op.pattern, op.docs[0], {});
  ++wrong_count.count;
  ExpectFn injected = [&](uint32_t pattern, uint64_t doc, const std::vector<uint64_t>& v) {
    return doc == op.docs[0] ? &wrong_count : right(pattern, doc, v);
  };
  EXPECT_EQ(Mismatches(op, response, plan.max_tuples, injected), 1u);

  // So are a wrong tuple, a wrong count, a missing document and an error.
  QueryResponse moved = response;
  ASSERT_FALSE(moved.results[1].tuples.empty());
  moved.results[1].tuples[0] = SpanTuple::Of({Span(1, 2)});
  EXPECT_EQ(Mismatches(op, moved, plan.max_tuples, right), 1u);
  QueryResponse miscounted = response;
  ++miscounted.results[2].num_tuples;
  EXPECT_EQ(Mismatches(op, miscounted, plan.max_tuples, right), 1u);
  QueryResponse short_response = response;
  short_response.results.pop_back();
  EXPECT_EQ(Mismatches(op, short_response, plan.max_tuples, right), op.docs.size());
  QueryResponse failed = response;
  failed.results[0].ok = false;
  EXPECT_EQ(Mismatches(op, failed, plan.max_tuples, right), 1u);
}

TEST(GateTest, VersionedExpectationsFollowTheModel) {
  const Plan plan = MakePlan(Workload::kEditRequery, 4, 1);
  ShardedStore store(ClusterOptions{});
  for (const std::string& text : plan.corpus) {
    WriteBatch batch;
    batch.Insert(text);
    ASSERT_TRUE(store.Commit(batch).ok());
  }
  const VersionedExpectations expected(plan, store.Snapshot().versions());
  auto check_all = [&] {
    const ClusterSnapshot snapshot = store.Snapshot();
    for (uint64_t doc = 1; doc <= plan.corpus.size(); ++doc) {
      for (uint32_t p = 0; p < plan.patterns.size(); ++p) {
        Op op{p, {doc}};
        QueryResponse response;
        response.snapshot_versions = snapshot.versions();
        Expected<SpanRelation> relation = store.Evaluate(plan.patterns[p].regex, snapshot, doc);
        ASSERT_TRUE(relation.ok());
        WireDocResult result;
        result.doc = doc;
        result.num_tuples = relation->size();
        for (const SpanTuple& tuple : *relation) {
          if (result.tuples.size() >= plan.max_tuples) break;
          result.tuples.push_back(tuple);
        }
        response.results.push_back(result);
        ExpectFn expect = [&expected](uint32_t pattern, uint64_t d,
                                      const std::vector<uint64_t>& versions) {
          return expected.Get(pattern, d, versions);
        };
        EXPECT_EQ(Mismatches(op, response, plan.max_tuples, expect), 0u) << doc;
      }
    }
  };
  std::size_t index = 0;
  for (const std::vector<EditOp>* edits : {&plan.prep_edits, &plan.edits}) {
    for (const EditOp& edit : *edits) {
      WriteBatch batch;
      batch.Edit(edit.doc, edit.cde);
      Expected<ClusterCommitReceipt> receipt = store.Commit(batch);
      ASSERT_TRUE(receipt.ok()) << receipt.error();
      ASSERT_EQ(receipt->shard_versions.size(), 1u);
      EXPECT_EQ(receipt->shard_versions[0].second, expected.VersionAfter(index));
      if (++index % 500 == 0) check_all();
    }
  }
  check_all();
}

// --- each workload loads its layer (in-process, one-second plans) ----------

struct CacheDelta {
  uint64_t hits = 0, misses = 0, spliced = 0, compactions = 0;
};

CacheDelta Totals(ShardedStore& store) {
  CacheDelta total;
  for (const StoreStats& shard : store.Stats().shards) {
    total.hits += shard.cache.hits;
    total.misses += shard.cache.misses;
    total.spliced += shard.cache.spliced;
    total.compactions += shard.gc_compactions;
  }
  return total;
}

void Load(ShardedStore& store, const Plan& plan) {
  for (const std::string& text : plan.corpus) {
    WriteBatch batch;
    batch.Insert(text);
    ASSERT_TRUE(store.Commit(batch).ok());
  }
  for (uint32_t p : plan.warm_patterns) {
    const ClusterSnapshot snapshot = store.Snapshot();
    for (uint64_t doc = 1; doc <= plan.corpus.size(); ++doc) {
      ASSERT_TRUE(store.Evaluate(plan.patterns[p].regex, snapshot, doc).ok());
    }
  }
}

void Read(ShardedStore& store, const Plan& plan, const Op& op) {
  const ClusterSnapshot snapshot = store.Snapshot();
  for (uint64_t doc : op.docs) {
    ASSERT_TRUE(store.Evaluate(plan.patterns[op.pattern].regex, snapshot, doc).ok());
  }
}

TEST(LayerTest, WarmReadIsServedFromThePreparedCache) {
  const Plan plan = MakePlan(Workload::kWarmRead, 2, 1);
  ShardedStore store(ClusterOptions{});
  Load(store, plan);
  const CacheDelta before = Totals(store);
  for (const Op& op : plan.reads[0]) {
    if (op.ingest < 0) Read(store, plan, op);
  }
  const CacheDelta after = Totals(store);
  EXPECT_GT(after.hits - before.hits, 0u);
  EXPECT_EQ(after.misses - before.misses, 0u);  // no fill on the timed path
}

TEST(LayerTest, ColdExtractMissesTheCacheAndFills) {
  const Plan plan = MakePlan(Workload::kColdExtract, 2, 1);
  ShardedStore store(ClusterOptions{});
  Load(store, plan);
  for (const Op& op : plan.warmup_reads) Read(store, plan, op);
  const CacheDelta before = Totals(store);
  for (const Op& op : plan.reads[0]) {
    if (op.ingest < 0) Read(store, plan, op);
  }
  const CacheDelta after = Totals(store);
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  EXPECT_GT(misses, 0.0);
  EXPECT_LE(hits / (hits + misses), 0.2);
}

TEST(LayerTest, EditRequerySplicesAndCyclesTheGc) {
  const Plan plan = MakePlan(Workload::kEditRequery, 2, 1);
  ShardedStore store(ClusterOptions{});
  Load(store, plan);
  for (const EditOp& edit : plan.prep_edits) {
    WriteBatch batch;
    batch.Edit(edit.doc, edit.cde);
    ASSERT_TRUE(store.Commit(batch).ok());
  }
  const CacheDelta before = Totals(store);
  for (std::size_t e = 0; e < plan.edits.size(); ++e) {
    WriteBatch batch;
    batch.Edit(plan.edits[e].doc, plan.edits[e].cde);
    ASSERT_TRUE(store.Commit(batch).ok());
    if ((e + 1) % kEditsPerRead == 0) Read(store, plan, plan.reads[0][(e + 1) / kEditsPerRead - 1]);
  }
  const CacheDelta after = Totals(store);
  // Each read finds one freshly edited document, and splices it.
  EXPECT_GT(after.spliced - before.spliced, 0u);
  EXPECT_GE(static_cast<double>(after.spliced - before.spliced),
            0.9 * static_cast<double>(after.misses - before.misses));
  EXPECT_GE(after.compactions - before.compactions, 2u);
}

}  // namespace
}  // namespace perfbench
