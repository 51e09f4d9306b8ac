#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "server/cluster.hpp"
#include "testing/cde_model.hpp"
#include "util/random.hpp"

namespace perfbench {

using spanners::Rng;
using spanners::Span;
using spanners::SpanRelation;
using spanners::SpanTuple;

namespace {

PatternSpec LogLinePattern(const PatternSpec::Field (&fields)[5],
                           const std::string (&literals)[5]);
PatternSpec WordsPattern(std::string keyword, int words);
uint64_t DigestTuples(const std::vector<SpanTuple>& tuples);

// Op counts per second of --seconds, set so that one run's timed phase
// takes about 0.8 x --seconds on a 4-vCPU x86 VM (2 server cores), which
// leaves room for a slower host.
constexpr unsigned kWarmReadsPerSecond = 5000;   // QUERY RPCs
constexpr unsigned kWarmIngestPerSecond = 20;    // single-doc COMMITs
constexpr unsigned kColdReadsPerSecond = 26;
constexpr unsigned kColdIngestPerSecond = 20;
constexpr unsigned kEditsPerSecond = 550;        // CDE COMMITs
constexpr unsigned kPrepEdits = 1000;            // replayed by every restart

constexpr std::size_t kWarmDocs = 32;
constexpr std::size_t kWarmReadDocs = 8;  // one per size band
constexpr std::size_t kColdDocs = 16;
constexpr std::size_t kColdPatterns = 256;
constexpr std::size_t kEditDocs = 16;

constexpr double kNoise = 0.03;  // BoilerplateText character noise

const char* const kPaths[] = {"index", "login", "cart", "search", "api/v1/items",
                              "static/app.js", "img/logo.png", "checkout"};
const char* const kStatus[] = {"200", "304", "404", "500"};

uint64_t Salted(uint64_t seed, Workload workload) {
  return seed * 0x100000001B3ull + static_cast<uint64_t>(workload) * 0x9E37ull + 1;
}

template <typename T>
void Shuffle(Rng& rng, std::vector<T>* items) {
  for (std::size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng.NextBelow(i)]);
  }
}

/// Sizes spread evenly over [lo, hi] and shuffled: the seed moves content
/// and placement, not the size distribution, so runs of different seeds
/// measure the same amount of work.
std::vector<std::size_t> StratifiedSizes(Rng& rng, std::size_t n, std::size_t lo,
                                         std::size_t hi) {
  std::vector<std::size_t> sizes(n);
  for (std::size_t i = 0; i < n; ++i) sizes[i] = lo + (hi - lo) * i / (n - 1);
  Shuffle(rng, &sizes);
  return sizes;
}

/// The ids 1..N of documents with \p sizes (index = id - 1), sorted by size
/// and cut into \p count bands of consecutive size ranks.
std::vector<std::vector<uint64_t>> SizeBands(const std::vector<std::size_t>& sizes,
                                             std::size_t count) {
  std::vector<uint64_t> ids(sizes.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i + 1;
  std::stable_sort(ids.begin(), ids.end(),
                   [&sizes](uint64_t a, uint64_t b) { return sizes[a - 1] < sizes[b - 1]; });
  std::vector<std::vector<uint64_t>> bands(count);
  for (std::size_t rank = 0; rank < ids.size(); ++rank) {
    bands[rank * count / ids.size()].push_back(ids[rank]);
  }
  return bands;
}

std::string EscapeLiteral(std::string_view text) {
  std::string out;
  for (char c : text) {
    if (c == '.') out += '\\';
    out += c;
  }
  return out;
}

/// The seeded pool of field-capture patterns over SyntheticLog lines. All
/// share one shape -- one literal field (host, user, path or status), two
/// captured fields, the rest wildcards -- so their automata, and with them
/// the matrix-fill cost per node, are alike across the pool and across
/// seeds; what varies is which lines match and which fields are captured.
std::vector<PatternSpec> LogPatternPool(Rng& rng, std::size_t count) {
  using Field = PatternSpec::Field;
  std::vector<PatternSpec> pool;
  std::set<std::string> seen;
  while (pool.size() < count) {
    Field fields[5] = {Field::kAny, Field::kAny, Field::kAny, Field::kAny, Field::kAny};
    std::string literals[5];
    const std::size_t literal = rng.NextBelow(4);  // size is never a literal
    fields[literal] = Field::kLiteral;
    switch (literal) {
      case 0: literals[literal] = std::to_string(rng.NextBelow(16)); break;
      case 1: literals[literal] = std::to_string(rng.NextBelow(32)); break;
      case 2: literals[literal] = kPaths[rng.NextBelow(8)]; break;
      default: literals[literal] = kStatus[rng.NextBelow(4)]; break;
    }
    for (std::size_t placed = 0; placed < 2;) {
      const std::size_t f = rng.NextBelow(5);
      if (fields[f] != Field::kAny) continue;
      fields[f] = Field::kCapture;
      ++placed;
    }
    PatternSpec spec = LogLinePattern(fields, literals);
    if (seen.insert(spec.regex).second) pool.push_back(std::move(spec));
  }
  return pool;
}

/// Paragraph-aligned CDE edits of the hot documents: each moves one or two
/// whole template paragraphs (\p width chars each) of a \p paragraphs-long
/// document to another paragraph boundary of it, as a copy (or an
/// insert of an extract) and a delete of the original in one expression.
/// Every document keeps its length and stays a sequence of whole
/// paragraphs, so the pattern's matches -- and with them the work of a
/// read -- hold through the run and across seeds: edits of random factors
/// wore the matches away (645 -> 440 tuples over 12 000 edits), and edits
/// that grew and shrank documents moved a seed's total by +-5%. Edits
/// reference only their own document, so they never cross shards.
std::vector<EditOp> MakeEdits(Rng& rng, const std::vector<uint64_t>& hot,
                              const std::vector<std::size_t>& paragraphs, std::size_t width,
                              std::size_t count) {
  std::vector<EditOp> edits;
  edits.reserve(count);
  auto at = [width](std::size_t paragraph) { return std::to_string(paragraph * width + 1); };
  for (std::size_t e = 0; e < count; ++e) {
    const uint64_t doc = hot[rng.NextBelow(hot.size())];
    const std::size_t n = paragraphs[doc - 1];
    const std::size_t r = 1 + rng.NextBelow(2);
    const std::size_t first = rng.NextBelow(n - r + 1);
    // A boundary outside the moved block: [0, first) or (first + r, n].
    std::size_t to = rng.NextBelow(n - r);
    if (to >= first) to += r + 1;
    const std::string d = 'D' + std::to_string(doc);
    const std::string block = at(first) + ", " + std::to_string((first + r) * width);
    const std::string placed =
        rng.NextBelow(2) == 0
            ? "copy(" + d + ", " + block + ", " + at(to) + ")"
            : "insert(" + d + ", extract(" + d + ", " + block + "), " + at(to) + ")";
    // The copy lands before the original when it goes to an earlier boundary.
    const std::size_t original = to < first ? first + r : first;
    edits.push_back({doc, "delete(" + placed + ", " + at(original) + ", " +
                              std::to_string((original + r) * width) + ")"});
  }
  return edits;
}

/// Spreads the inserts of \p plan evenly through its connections' reads:
/// insert j goes to connection j % connections.
void InterleaveIngest(Plan* plan) {
  const std::size_t connections = plan->reads.size();
  for (std::size_t c = 0; c < connections; ++c) {
    std::vector<int64_t> writes;
    for (std::size_t j = c; j < plan->ingest.size(); j += connections) {
      writes.push_back(static_cast<int64_t>(j));
    }
    const std::vector<Op> reads = std::move(plan->reads[c]);
    const std::size_t every = std::max<std::size_t>(1, reads.size() / (writes.size() + 1));
    std::vector<Op>& mixed = plan->reads[c];
    mixed.clear();
    std::size_t next_write = 0;
    for (std::size_t i = 0; i < reads.size(); ++i) {
      mixed.push_back(reads[i]);
      if ((i + 1) % every == 0 && next_write < writes.size()) {
        mixed.push_back(Op{0, {}, writes[next_write++]});
      }
    }
    while (next_write < writes.size()) mixed.push_back(Op{0, {}, writes[next_write++]});
  }
}

void AppendLogMatches(const PatternSpec& pattern, std::string_view text,
                      SpanRelation* out) {
  static constexpr std::string_view kSeparators[5] = {"host-", " user-", " GET /",
                                                     " status=", " size="};
  std::size_t line = 0;
  while (line < text.size()) {
    std::size_t eol = text.find('\n', line);
    if (eol == std::string_view::npos) break;  // the size field needs its newline
    std::vector<std::optional<Span>> spans;
    bool match = true;
    std::size_t pos = line;
    for (int f = 0; f < 5 && match; ++f) {
      if (text.compare(pos, kSeparators[f].size(), kSeparators[f]) != 0) {
        match = false;
        break;
      }
      const std::size_t begin = pos + kSeparators[f].size();
      const std::size_t end = f == 4 ? eol : text.find(' ', begin);
      if (end == std::string_view::npos || end > eol || end == begin) {
        match = false;
        break;
      }
      const std::string_view value = text.substr(begin, end - begin);
      if (pattern.fields[f] == PatternSpec::Field::kLiteral) {
        match = value == pattern.literals[f];
      } else if (pattern.fields[f] == PatternSpec::Field::kCapture) {
        spans.emplace_back(Span(static_cast<spanners::Position>(begin + 1),
                                static_cast<spanners::Position>(end + 1)));
      }
      pos = end;
    }
    if (match) out->insert(SpanTuple(std::move(spans)));
    line = eol + 1;
  }
}

bool IsLower(char c) { return c >= 'a' && c <= 'z'; }

void AppendWordMatches(const PatternSpec& pattern, std::string_view text,
                       SpanRelation* out) {
  const std::string needle = pattern.keyword + " ";
  for (std::size_t at = text.find(needle); at != std::string_view::npos;
       at = text.find(needle, at + 1)) {
    std::vector<std::optional<Span>> spans;
    std::size_t begin = at + needle.size();
    for (int w = 0; w < pattern.words; ++w) {
      std::size_t end = begin;
      while (end < text.size() && IsLower(text[end])) ++end;
      if (end == begin || end >= text.size() || text[end] != ' ') break;
      spans.emplace_back(Span(static_cast<spanners::Position>(begin + 1),
                              static_cast<spanners::Position>(end + 1)));
      begin = end + 1;
    }
    if (spans.size() == static_cast<std::size_t>(pattern.words)) {
      out->insert(SpanTuple(std::move(spans)));
    }
  }
}

void Put(std::string* out, std::string_view field) {
  *out += std::to_string(field.size());
  *out += ':';
  *out += field;
}

}  // namespace

std::optional<Workload> ParseWorkload(std::string_view name) {
  if (name == "warm_read") return Workload::kWarmRead;
  if (name == "cold_extract") return Workload::kColdExtract;
  if (name == "edit_requery") return Workload::kEditRequery;
  return std::nullopt;
}

std::string_view WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kWarmRead: return "warm_read";
    case Workload::kColdExtract: return "cold_extract";
    case Workload::kEditRequery: return "edit_requery";
  }
  return "?";
}

namespace {

PatternSpec LogLinePattern(const PatternSpec::Field (&fields)[5],
                           const std::string (&literals)[5]) {
  static constexpr const char* kPrefixes[5] = {"host-", " user-", " GET /", " status=",
                                               " size="};
  PatternSpec spec;
  spec.family = PatternSpec::Family::kLogLine;
  spec.regex = "(.|\\n)*";
  int captures = 0;
  for (int f = 0; f < 5; ++f) {
    spec.fields[f] = fields[f];
    spec.literals[f] = literals[f];
    spec.regex += kPrefixes[f];
    const std::string value_class = f == 2 ? "[a-z/.0-9]+" : "[0-9]+";
    switch (fields[f]) {
      case PatternSpec::Field::kLiteral: spec.regex += EscapeLiteral(literals[f]); break;
      case PatternSpec::Field::kCapture:
        spec.regex += "{c" + std::to_string(++captures) + ":" + value_class + "}";
        break;
      case PatternSpec::Field::kAny: spec.regex += value_class; break;
    }
  }
  spec.regex += "\\n(.|\\n)*";
  return spec;
}

PatternSpec WordsPattern(std::string keyword, int words) {
  PatternSpec spec;
  spec.family = PatternSpec::Family::kWords;
  spec.keyword = std::move(keyword);
  spec.words = words;
  spec.regex = "(.|\\n)*" + spec.keyword + " ";
  for (int w = 1; w <= words; ++w) spec.regex += "{c" + std::to_string(w) + ":[a-z]+} ";
  spec.regex += "(.|\\n)*";
  return spec;
}

}  // namespace

SpanRelation OracleRelation(const PatternSpec& pattern, std::string_view text) {
  SpanRelation relation;
  if (pattern.family == PatternSpec::Family::kLogLine) {
    AppendLogMatches(pattern, text, &relation);
  } else {
    AppendWordMatches(pattern, text, &relation);
  }
  return relation;
}

namespace {

uint64_t DigestTuples(const std::vector<SpanTuple>& tuples) {
  uint64_t hash = 0xcbf29ce484222325ull;
  auto mix = [&hash](uint64_t value) {
    hash ^= value;
    hash *= 0x100000001b3ull;
  };
  for (const SpanTuple& tuple : tuples) {
    mix(tuple.arity());
    for (std::size_t v = 0; v < tuple.arity(); ++v) {
      const std::optional<Span>& span = tuple[v];
      mix(span ? (uint64_t{span->begin} << 32 | span->end) : ~uint64_t{0});
    }
  }
  return hash;
}

}  // namespace

Expect ExpectFor(const PatternSpec& pattern, std::string_view text,
                 uint32_t max_tuples) {
  const SpanRelation relation = OracleRelation(pattern, text);
  std::vector<SpanTuple> head;
  for (const SpanTuple& tuple : relation) {
    if (head.size() >= max_tuples) break;
    head.push_back(tuple);
  }
  return Expect{relation.size(), DigestTuples(head)};
}

Plan MakePlan(Workload workload, uint64_t seed, unsigned seconds) {
  Plan plan;
  plan.workload = workload;
  plan.seed = seed;
  Rng rng(Salted(seed, workload));
  switch (workload) {
    case Workload::kWarmRead: {
      // 15..58 template paragraphs = 2.1..8.1 KB per document: the four
      // patterns' matrices and results then fit well inside the default
      // prepared-cache budget, so the timed reads are all hits.
      plan.max_tuples = 16;
      const std::vector<std::size_t> paragraphs = StratifiedSizes(rng, kWarmDocs, 15, 58);
      for (std::size_t p : paragraphs) {
        plan.corpus.push_back(spanners::BoilerplateText(rng, p, kNoise));
      }
      // Every keyword occurs once per template paragraph, so all four
      // patterns answer alike, and a read takes one document of each size
      // band: every read does about the same work.
      plan.patterns = {WordsPattern("fox", 2), WordsPattern("cat", 1),
                       WordsPattern("rain", 2), WordsPattern("lazy", 1)};
      plan.warm_patterns = {0, 1, 2, 3};
      const std::vector<std::vector<uint64_t>> bands = SizeBands(paragraphs, kWarmReadDocs);
      // One connection: two made each read's latency depend on how it
      // overlapped the other's (README.md, "Why these sizes").
      plan.reads.resize(1);
      for (std::size_t i = 0; i < kWarmReadsPerSecond * seconds; ++i) {
        Op op{static_cast<uint32_t>(rng.NextBelow(plan.patterns.size())), {}};
        for (const std::vector<uint64_t>& band : bands) {
          op.docs.push_back(band[rng.NextBelow(band.size())]);
        }
        Shuffle(rng, &op.docs);
        plan.reads[0].push_back(std::move(op));
      }
      // Short inserts (2..6 paragraphs): every commit walks the whole arena
      // for garbage, so full-size inserts made each commit slower than the
      // last (3.7 -> 8 ms over 1 000 of them) and memory-bound.
      for (std::size_t p : StratifiedSizes(rng, kWarmIngestPerSecond * seconds, 2, 6)) {
        plan.ingest.push_back(spanners::BoilerplateText(rng, p, kNoise));
      }
      InterleaveIngest(&plan);
      break;
    }
    case Workload::kColdExtract: {
      // 200..400 log lines = about 10..20 KB per document.
      plan.max_tuples = 1024;
      const std::vector<std::size_t> lines = StratifiedSizes(rng, kColdDocs, 200, 400);
      for (std::size_t n : lines) plan.corpus.push_back(spanners::SyntheticLog(rng, n));
      plan.patterns = LogPatternPool(rng, kColdPatterns);
      // Reads walk the pool in a seeded order, so every pattern is read
      // about equally often, and take one document from the smaller half
      // and one from the larger: every run and every read fill about the
      // same amount of text with the same mix of patterns.
      std::vector<uint32_t> order(plan.patterns.size());
      for (uint32_t p = 0; p < order.size(); ++p) order[p] = p;
      Shuffle(rng, &order);
      std::size_t drawn = 0;
      const std::vector<std::vector<uint64_t>> halves = SizeBands(lines, 2);
      auto draw = [&] {
        Op op{order[drawn++ % order.size()], {}};
        for (const std::vector<uint64_t>& half : halves) {
          op.docs.push_back(half[rng.NextBelow(half.size())]);
        }
        Shuffle(rng, &op.docs);
        return op;
      };
      for (int i = 0; i < 4; ++i) plan.warmup_reads.push_back(draw());
      const std::size_t per_connection = kColdReadsPerSecond * seconds / 2;
      plan.reads.resize(2);
      for (std::vector<Op>& reads : plan.reads) {
        for (std::size_t i = 0; i < per_connection; ++i) reads.push_back(draw());
      }
      // Log segments: 10..40 lines (about 0.5..2 KB), short for the reason
      // given at warm_read's inserts.
      for (std::size_t lines :
           StratifiedSizes(rng, kColdIngestPerSecond * seconds, 10, 40)) {
        plan.ingest.push_back(spanners::SyntheticLog(rng, lines));
      }
      InterleaveIngest(&plan);
      break;
    }
    case Workload::kEditRequery: {
      // 30..60 paragraphs = 4.2..8.4 KB; half the documents take every
      // edit, the other half are only read. Odd ids live on
      // shard 0 and even ids on shard 1 of the default two-shard cluster.
      // Each run of four consecutive size ranks gives one hot and one cold
      // document to each shard, so every seed edits the same sizes and
      // splits them evenly over the shards.
      plan.max_tuples = 16;
      std::vector<uint64_t> odd, even;
      for (uint64_t id = 1; id <= kEditDocs; ++id) (id % 2 ? odd : even).push_back(id);
      Shuffle(rng, &odd);
      Shuffle(rng, &even);
      const std::size_t quarter = kEditDocs / 4;
      std::vector<std::size_t> paragraphs(kEditDocs);
      for (std::size_t m = 0; m < quarter; ++m) {
        std::vector<std::size_t> ranks = {4 * m, 4 * m + 1, 4 * m + 2, 4 * m + 3};
        Shuffle(rng, &ranks);
        const uint64_t owners[4] = {odd[m], even[m], odd[quarter + m], even[quarter + m]};
        for (std::size_t k = 0; k < 4; ++k) {
          paragraphs[owners[k] - 1] = 30 + 30 * ranks[k] / (kEditDocs - 1);
        }
        plan.hot_docs.push_back(odd[m]);
        plan.hot_docs.push_back(even[m]);
      }
      std::sort(plan.hot_docs.begin(), plan.hot_docs.end());
      for (std::size_t p : paragraphs) {
        plan.corpus.push_back(spanners::BoilerplateText(rng, p, kNoise));
      }
      // Noise replaces characters, so every paragraph has the template's width.
      const std::size_t width = plan.corpus[0].size() / paragraphs[0];
      plan.patterns = {WordsPattern("cat", 2)};
      plan.warm_patterns = {0};
      plan.prep_edits = MakeEdits(rng, plan.hot_docs, paragraphs, width, kPrepEdits);
      plan.edits = MakeEdits(rng, plan.hot_docs, paragraphs, width, kEditsPerSecond * seconds);
      // Every read re-queries the whole collection, so each finds exactly
      // one document edited since its last answer -- the one the head
      // version's edit delta names -- beside 15 cached answers: every read
      // does the same splice-and-hit work.
      std::vector<uint64_t> all(kEditDocs);
      for (std::size_t i = 0; i < kEditDocs; ++i) all[i] = i + 1;
      plan.reads.assign(1, std::vector<Op>(plan.edits.size() / kEditsPerRead, Op{0, all}));
      break;
    }
  }
  return plan;
}

std::string SerializePlan(const Plan& plan) {
  std::string out;
  Put(&out, WorkloadName(plan.workload));
  Put(&out, std::to_string(plan.seed) + "/" + std::to_string(plan.max_tuples));
  for (const std::string& text : plan.corpus) Put(&out, text);
  for (const PatternSpec& pattern : plan.patterns) Put(&out, pattern.regex);
  for (uint32_t p : plan.warm_patterns) Put(&out, std::to_string(p));
  auto put_reads = [&out](const std::vector<Op>& reads) {
    Put(&out, "reads");
    for (const Op& op : reads) {
      std::string line = std::to_string(op.pattern) + "/" + std::to_string(op.ingest);
      for (uint64_t doc : op.docs) {
        line += ',';
        line += std::to_string(doc);
      }
      Put(&out, line);
    }
  };
  put_reads(plan.warmup_reads);
  for (const std::vector<Op>& reads : plan.reads) put_reads(reads);
  for (const std::string& text : plan.ingest) Put(&out, text);
  for (const std::vector<EditOp>* edits : {&plan.prep_edits, &plan.edits}) {
    Put(&out, "edits");
    for (const EditOp& edit : *edits) Put(&out, std::to_string(edit.doc) + ":" + edit.cde);
  }
  for (uint64_t doc : plan.hot_docs) Put(&out, std::to_string(doc));
  return out;
}

namespace {

/// Per document (index = id - 1), the expected answers as loaded and after
/// every edit that touched it, in edit order, from the cde_model replay.
std::vector<std::vector<VersionExpect>> ExpectedHistory(const Plan& plan) {
  using spanners::testing::ModelOp;
  spanners::testing::ModelStore model;
  std::vector<std::vector<VersionExpect>> history(plan.corpus.size());
  auto expect_all = [&plan](int64_t edit_index, const std::string& text) {
    VersionExpect version;
    version.edit_index = edit_index;
    for (const PatternSpec& pattern : plan.patterns) {
      version.per_pattern.push_back(ExpectFor(pattern, text, plan.max_tuples));
    }
    return version;
  };
  for (std::size_t d = 0; d < plan.corpus.size(); ++d) {
    const auto result = model.Commit({ModelOp{ModelOp::Kind::kInsert, 0, plan.corpus[d]}});
    if (!result.ok || result.created != std::vector<uint64_t>{d + 1}) {
      std::fprintf(stderr, "perfbench: model rejected the corpus\n");
      std::abort();
    }
    history[d].push_back(expect_all(-1, plan.corpus[d]));
  }
  int64_t index = 0;
  for (const std::vector<EditOp>* edits : {&plan.prep_edits, &plan.edits}) {
    for (const EditOp& edit : *edits) {
      const auto result = model.Commit({ModelOp{ModelOp::Kind::kEdit, edit.doc, edit.cde}});
      if (!result.ok) {
        std::fprintf(stderr, "perfbench: model rejected edit %lld (%s): %s\n",
                     static_cast<long long>(index), edit.cde.c_str(),
                     result.error.c_str());
        std::abort();
      }
      history[edit.doc - 1].push_back(expect_all(index, *model.Text(edit.doc)));
      ++index;
    }
  }
  return history;
}

}  // namespace

uint64_t Mismatches(const Op& op, const spanners::QueryResponse& response,
                    uint32_t max_tuples, const ExpectFn& expect) {
  if (response.results.size() != op.docs.size()) return op.docs.size();
  uint64_t wrong = 0;
  for (std::size_t i = 0; i < op.docs.size(); ++i) {
    const spanners::WireDocResult& result = response.results[i];
    const Expect* expected = expect(op.pattern, op.docs[i], response.snapshot_versions);
    const bool right =
        expected != nullptr && result.ok && result.doc == op.docs[i] &&
        result.num_tuples == expected->count &&
        result.tuples.size() == std::min<uint64_t>(expected->count, max_tuples) &&
        DigestTuples(result.tuples) == expected->digest;
    if (!right) ++wrong;
  }
  return wrong;
}

VersionedExpectations::VersionedExpectations(const Plan& plan,
                                             std::vector<uint64_t> base_versions)
    : history_(ExpectedHistory(plan)), base_(std::move(base_versions)) {
  std::vector<uint64_t> version = base_;
  for (const std::vector<EditOp>* edits : {&plan.prep_edits, &plan.edits}) {
    for (const EditOp& edit : *edits) version_after_.push_back(++version[ShardOf(edit.doc)]);
  }
  after_prep_ = base_;
  for (std::size_t e = 0; e < plan.prep_edits.size(); ++e) {
    after_prep_[ShardOf(plan.prep_edits[e].doc)] = version_after_[e];
  }
}

std::size_t VersionedExpectations::ShardOf(uint64_t doc) const {
  return spanners::ShardedStore::ShardOf(doc, base_.size());
}

const Expect* VersionedExpectations::Get(uint32_t pattern, uint64_t doc,
                                         const std::vector<uint64_t>& versions) const {
  if (versions.size() != base_.size() || doc == 0 || doc > history_.size()) return nullptr;
  const uint64_t version = versions[ShardOf(doc)];
  const std::vector<VersionExpect>& entries = history_[doc - 1];
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    const uint64_t published =
        it->edit_index < 0 ? base_[ShardOf(doc)]
                           : version_after_[static_cast<std::size_t>(it->edit_index)];
    if (published <= version) return &it->per_pattern[pattern];
  }
  return nullptr;
}

}  // namespace perfbench
