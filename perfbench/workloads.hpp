// Seeded workload plans and the independent answer oracles of the
// wire-level benchmark (README.md in this directory).
//
// A Plan is everything a run sends: the corpus (loaded in order, so cluster
// ids are 1..N), the patterns, every connection's QUERY sequence and every
// COMMIT payload. It is a pure function of (workload, seed, seconds); the
// server receives only the generated inputs.
//
// Expected answers never come from the code under test. Every pattern is
// drawn from one of two families whose matches can be listed by a direct
// scan of the text:
//
//   log lines  "(.|\n)*host-H user-U GET /P status=S size=Z\n(.|\n)*", each
//              field a literal, a capture or an uncaptured wildcard -- one
//              tuple per matching line of a SyntheticLog document;
//   words      "(.|\n)*K {c1:[a-z]+} [{c2:[a-z]+} ](.|\n)*" -- the one or
//              two words after each occurrence of "K " in letters-and-spaces
//              text (BoilerplateText and CDE edits of it).
//
// Capture names c1 < c2 < ... follow appearance order, so a tuple's
// variable order is the same under either ordering rule.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/span.hpp"
#include "net/wire.hpp"

namespace perfbench {

enum class Workload { kWarmRead, kColdExtract, kEditRequery };

/// edit_requery alternates: this many acknowledged edits, then one QUERY.
inline constexpr std::size_t kEditsPerRead = 1;

std::optional<Workload> ParseWorkload(std::string_view name);
std::string_view WorkloadName(Workload workload);

/// One pattern with the parameters its oracle needs.
struct PatternSpec {
  enum class Family : uint8_t { kLogLine, kWords };
  /// Log-line field roles, in line order (host, user, path, status, size).
  enum class Field : uint8_t { kAny, kLiteral, kCapture };

  Family family = Family::kWords;
  std::string regex;
  // kLogLine
  Field fields[5] = {Field::kAny, Field::kAny, Field::kAny, Field::kAny, Field::kAny};
  std::string literals[5];
  // kWords
  std::string keyword;
  int words = 1;
};

/// Every match of \p pattern in \p text, as the library's sorted relation.
spanners::SpanRelation OracleRelation(const PatternSpec& pattern,
                                      std::string_view text);

/// What a correct QUERY answer for one document must carry: the exact
/// tuple count and a digest of the first min(count, max_tuples) tuples in
/// relation order.
struct Expect {
  uint64_t count = 0;
  uint64_t digest = 0;
  friend bool operator==(const Expect&, const Expect&) = default;
};

Expect ExpectFor(const PatternSpec& pattern, std::string_view text,
                 uint32_t max_tuples);

/// One RPC of a connection: a QUERY of one pattern over some documents,
/// or (ingest >= 0) the COMMIT inserting Plan::ingest[ingest].
struct Op {
  uint32_t pattern = 0;
  std::vector<uint64_t> docs;  ///< cluster ids
  int64_t ingest = -1;
};

/// One COMMIT of edit_requery: doc := eval(cde).
struct EditOp {
  uint64_t doc = 0;
  std::string cde;
};

struct Plan {
  Workload workload = Workload::kWarmRead;
  uint64_t seed = 0;
  uint32_t max_tuples = 0;
  std::vector<std::string> corpus;   ///< loaded one per COMMIT, ids 1..N
  std::vector<PatternSpec> patterns;
  std::vector<uint32_t> warm_patterns;  ///< queried over every doc in set-up
  std::vector<Op> warmup_reads;     ///< untimed, before the timed phase
  /// Timed op sequence per connection. In the read workloads the inserts of
  /// `ingest` are spread evenly over both connections, so writes are
  /// sampled across the whole timed phase; edit_requery's reader has one
  /// read per kEditsPerRead edits.
  std::vector<std::vector<Op>> reads;
  std::vector<std::string> ingest;   ///< single-doc inserts (read workloads)
  std::vector<EditOp> prep_edits;    ///< edit_requery: applied before the crash
  std::vector<EditOp> edits;         ///< edit_requery: timed writer sequence
  std::vector<uint64_t> hot_docs;    ///< edit_requery: the docs edits target
};

/// Builds the plan. \p seconds scales the timed op counts (a fixed count per
/// run, so a faster build ends on the same store state as a slower one).
Plan MakePlan(Workload workload, uint64_t seed, unsigned seconds);

/// A canonical byte encoding of everything \p plan sends.
std::string SerializePlan(const Plan& plan);

/// The expected answers for one document from one point of the edit
/// sequence on: edit_index indexes prep_edits ++ edits (-1 = as loaded).
struct VersionExpect {
  int64_t edit_index = -1;
  std::vector<Expect> per_pattern;
};

// --- the correctness gate --------------------------------------------------

/// Looks up the expected answer of (pattern, doc) for a response taken at
/// shard \p versions; nullptr = no answer can be right.
using ExpectFn = std::function<const Expect*(uint32_t pattern, uint64_t doc,
                                             const std::vector<uint64_t>& versions)>;

/// The number of documents of \p response (the answer to QUERY \p op) that
/// disagree with the oracle: wrong document, error, tuple count, or tuples.
uint64_t Mismatches(const Op& op, const spanners::QueryResponse& response,
                    uint32_t max_tuples, const ExpectFn& expect);

/// edit_requery's expectations: the answer of a document at any version the
/// plan publishes. The plan's corpus and edits are replayed through the
/// testing/cde_model reference store (a rejected edit aborts: a plan bug),
/// and every edit touches one shard and bumps its version by one.
class VersionedExpectations {
 public:
  /// \p base_versions: the shard heads after the corpus load.
  VersionedExpectations(const Plan& plan, std::vector<uint64_t> base_versions);

  std::size_t ShardOf(uint64_t doc) const;

  /// The version edit \p index (into prep ++ timed edits) publishes.
  uint64_t VersionAfter(std::size_t index) const { return version_after_[index]; }

  /// The shard heads once every prep edit is acknowledged.
  const std::vector<uint64_t>& AfterPrep() const { return after_prep_; }

  /// The expected answer for \p doc under shard heads \p versions, or
  /// nullptr if \p versions cannot hold this document.
  const Expect* Get(uint32_t pattern, uint64_t doc,
                    const std::vector<uint64_t>& versions) const;

 private:
  std::vector<std::vector<VersionExpect>> history_;
  std::vector<uint64_t> base_;
  std::vector<uint64_t> version_after_;
  std::vector<uint64_t> after_prep_;
};

}  // namespace perfbench
