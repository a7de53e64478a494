// Closed-loop benchmark driver for rdfref query answering. It runs one of
// three workloads against a fresh QueryAnswerer and prints, as the last
// line of stdout, one JSON object {correct, attempted, failed, metrics}.
//
//   perfbench_driver --workload lubm-strategies|sp2b-cached|sp2b-churn
//                    --seed N --seconds S --trace 0|1
//                    [--scale full|smoke] [--budget-kb N]
//
// --trace 0 prints the end-to-end metrics of one untraced window.
// --trace 1 runs an untraced window, then a traced window (AnswerProfile on
// every call, snapshot pins timed), then replays one request per pair or
// template stage by stage through a counting TripleSource, and prints the
// per-layer metrics. README.md describes the workloads and every metric.

#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/query_answering.h"
#include "counting_source.h"
#include "datagen/lubm.h"
#include "datagen/sp2b.h"
#include "query/sparql_parser.h"

namespace perfbench {
namespace {

namespace api = rdfref::api;
namespace engine = rdfref::engine;
namespace query = rdfref::query;
namespace rdf = rdfref::rdf;
using api::Strategy;
using rdf::TermId;
using rdf::Triple;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Small utilities

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

double MillisSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double ProcessCpuMillis() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

// Resident set size of this process, from /proc/self/status.
double RssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Bytes the program holds on the heap (allocated chunks and mmapped blocks
// of every malloc arena). Unlike the resident set, it does not depend on
// which freed pages the allocator has kept.
double HeapMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// The benchmark's own seeded stream (SplitMix64), so its inputs depend only
// on --seed and never on a generator inside the program under test.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() { return Mix64(state_++); }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) std::swap((*v)[i - 1], (*v)[Below(i)]);
  }

 private:
  uint64_t state_;
};

// Zipf(s) over ranks 0..n-1; rank 0 is the most popular.
class Zipf {
 public:
  Zipf(size_t n, double s) {
    double total = 0.0;
    cumulative_.reserve(n);
    for (size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cumulative_.push_back(total);
    }
  }
  size_t Sample(Rng* rng) const {
    const double u = rng->Unit() * cumulative_.back();
    auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
    return std::min(static_cast<size_t>(it - cumulative_.begin()),
                    cumulative_.size() - 1);
  }

 private:
  std::vector<double> cumulative_;
};

// Order-independent multiset digest of an answer table.
uint64_t Digest(const engine::Table& table) {
  uint64_t sum = 0;
  for (size_t r = 0; r < table.NumRows(); ++r) {
    uint64_t h = 0x5eed;
    for (TermId id : table.row(r)) h = Mix64(h ^ id);
    sum += Mix64(h);
  }
  return sum ^ Mix64(table.NumRows());
}

bool SameRows(const engine::Table& a, const engine::Table& b) {
  return a.NumRows() == b.NumRows() && a.arity() == b.arity() &&
         a.data() == b.data();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// ---------------------------------------------------------------------------
// Workload definitions

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  size_t budget_bytes = 0;  // 0 = the workload's stated budget
};

constexpr const char* kUbPrefix =
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n";
constexpr const char* kSpPrefix = "PREFIX sp: <http://rdfref.org/sp2b#>\n";
constexpr const char* kDocSlot = "$DOC";

struct NamedQuery {
  const char* name;
  std::string body;
};

// The ten LUBM suite queries and the paper's Example 1.
std::vector<NamedQuery> LubmQueries() {
  const std::string univ1 = rdfref::datagen::Lubm::UniversityUri(1);
  return {
      {"Q1-persons", "SELECT ?x WHERE { ?x a ub:Person . }"},
      {"Q2-professors",
       "SELECT ?x ?d WHERE { ?x a ub:Professor . ?x ub:worksFor ?d . }"},
      {"Q3-students",
       "SELECT ?x ?c WHERE { ?x a ub:Student . ?x ub:takesCourse ?c . }"},
      {"Q4-advisors",
       "SELECT ?x ?a WHERE { ?x ub:advisor ?a . ?a ub:headOf ?d . }"},
      {"Q5-degrees",
       "SELECT ?x WHERE { ?x ub:degreeFrom <http://www.University1.edu> . }"},
      {"Q6-members",
       "SELECT ?x ?u ?z WHERE { ?x rdf:type ?u . ?x ub:memberOf ?z . }"},
      {"Q7-typed-degrees",
       "SELECT ?x ?u WHERE { ?x rdf:type ?u . "
       "?x ub:mastersDegreeFrom <http://www.University1.edu> . }"},
      {"Q8-org-units",
       "SELECT ?g ?d WHERE { ?g a ub:Organization . "
       "?g ub:subOrganizationOf ?d . }"},
      {"Q9-teachers",
       "SELECT ?f ?c ?s WHERE { ?f ub:teacherOf ?c . "
       "?s ub:takesCourse ?c . ?s a ub:Student . }"},
      {"Q10-chain",
       "SELECT ?s ?a ?d WHERE { ?s ub:advisor ?a . "
       "?a ub:worksFor ?d . ?d ub:subOrganizationOf ?u . }"},
      {"E1-example1",
       "SELECT ?x ?u ?y ?v ?z WHERE { ?x rdf:type ?u . ?y rdf:type ?v . "
       "?x ub:mastersDegreeFrom <" + univ1 + "> . "
       "?y ub:doctoralDegreeFrom <" + univ1 + "> . "
       "?x ub:memberOf ?z . ?y ub:memberOf ?z . }"},
  };
}

constexpr Strategy kLubmStrategies[] = {Strategy::kSaturation,
                                        Strategy::kRefUcq, Strategy::kRefScq,
                                        Strategy::kRefGcov};

bool LubmPairRuns(const std::string& query, Strategy s) {
  // Example 1's UCQ reformulation exceeds the reformulation budget.
  return !(query == "E1-example1" && s == Strategy::kRefUcq);
}

struct Sp2bTemplate {
  const char* name;
  std::string body;  // kDocSlot marks the Zipf-drawn document constant
  int weight;        // occurrences per round of the request sequence
  std::vector<std::vector<int>> cover;  // view-selection hint; {} = whole
};

// The sp2b serving mix. The two point lookups take a document constant
// drawn from Zipf(1) over every document; the rest are fixed analytic
// shapes (deep hierarchy, star, chain, cycle, triangle).
std::vector<Sp2bTemplate> Sp2bTemplates() {
  return {
      {"P1-doc-citers", "SELECT ?x WHERE { ?x sp:cites <$DOC> . }", 24, {}},
      {"P8-doc-references", "SELECT ?y WHERE { <$DOC> sp:references ?y . }",
       16, {}},
      {"T2-publications", "SELECT ?d WHERE { ?d a sp:Publication . }", 12,
       {}},
      {"V3-event-papers",
       "SELECT ?d ?v WHERE { ?d sp:publishedIn ?v . ?v a sp:Event . }", 16,
       {{0}, {1}}},
      {"S4-doc-star",
       "SELECT ?d ?p ?v ?o WHERE { ?d a sp:Article . "
       "?d sp:hasContributor ?p . ?d sp:publishedIn ?v . "
       "?d sp:references ?o . }",
       6, {{0, 1}, {0, 2}, {0, 3}}},
      {"C5-citation-chain",
       "SELECT ?a ?x ?y ?v WHERE { ?w sp:hasFirstAuthor ?a . "
       "?w sp:cites ?x . ?x sp:cites ?y . ?y sp:publishedIn ?v . }",
       6, {{0, 1}, {1, 2}, {2, 3}}},
      {"Y6-mutual-citations",
       "SELECT ?x ?y WHERE { ?x sp:cites ?y . ?y sp:cites ?x . }", 8,
       {{0}, {1}}},
      {"A7-coauthor-cites",
       "SELECT ?x ?y ?p WHERE { ?x sp:hasAuthor ?p . ?y sp:hasAuthor ?p . "
       "?x sp:cites ?y . }",
       8, {{0, 2}, {1, 2}}},
  };
}

std::string Instantiate(const std::string& body, int doc) {
  std::string out = body;
  const size_t at = out.find(kDocSlot);
  if (at != std::string::npos) {
    out.replace(at, std::string(kDocSlot).size(),
                rdfref::datagen::Sp2b::DocumentUri(doc));
  }
  return out;
}

struct WorkloadSpec {
  std::string name;
  bool sp2b = false;
  int clients = 1;
  bool view_cache = false;
  bool churn = false;
};

WorkloadSpec SpecFor(const std::string& name) {
  if (name == "lubm-strategies") return {name, false, 1, false, false};
  if (name == "sp2b-cached") return {name, true, 2, true, false};
  if (name == "sp2b-churn") return {name, true, 2, true, true};
  Die("unknown workload '" + name + "'");
}

// Data sizes. "full" is what BENCHMARK.json measures; "smoke" is the
// smallest scale, for the smoke test.
struct DataSizes {
  int lubm_universities;
  double lubm_scale;
  double sp2b_scale;  // x 1000 documents
  size_t cache_budget_bytes;
  int setups;  // timed set-ups per run; setup_s is their median
};

DataSizes SizesFor(bool smoke) {
  if (smoke) return {1, 0.25, 0.1, 64u << 10, 1};
  return {3, 1.0, 1.0, 384u << 10, 5};
}

// Writer of sp2b-churn: open loop, `kWriteRate` operations per second. It
// keeps a sliding window of `kLiveEdges` inserted citation edges: it
// inserts until the window is full, then alternates removing the oldest
// and inserting the next candidate.
constexpr double kWriteRate = 16.0;
constexpr size_t kLiveEdges = 32;
// At this rate every view that reads the citation subtree is invalidated
// before its next read, so nearly every such read recomputes: the regime
// repeats far better between runs than a rate near the read rate of those
// views would. Background compaction: freeze the head at 16 entries, merge
// base + runs once 2 runs are sealed (a compaction every 32 writes, 2 s).
constexpr size_t kFreezeThreshold = 16;
constexpr size_t kCompactMinRuns = 2;

// Time slices per measured window (see Slice).
constexpr int kSlices = 5;

// ---------------------------------------------------------------------------
// Requests

struct Request {
  std::string query;    // LUBM query or sp2b template name
  std::string sparql;   // full SPARQL text
  query::Cq cq;         // parsed against the serving answerer (sp2b)
  Strategy strategy = Strategy::kRefGcov;
  size_t group = 0;     // latency group (pair or template)
  // Expected answer, from the set-up oracle.
  uint64_t rows = 0;
  uint64_t digest = 0;
  // sp2b-churn: rows with every churn candidate edge visible. Every query
  // is a monotone BGP, so any epoch's answer has rows in [rows, rows_hi].
  uint64_t rows_hi = 0;
};

struct Workload {
  WorkloadSpec spec;
  DataSizes sizes;
  std::vector<std::string> groups;
  std::vector<Request> requests;   // distinct
  std::vector<uint32_t> sequence;  // seeded request order
  std::vector<Sp2bTemplate> templates;
};

// Every latency group name, for both families: each traced run prints all
// per-layer metrics, so the names cannot depend on the workload.
std::vector<std::string> LubmGroups() {
  std::vector<std::string> groups;
  for (const NamedQuery& q : LubmQueries()) {
    for (Strategy s : kLubmStrategies) {
      if (LubmPairRuns(q.name, s)) {
        groups.push_back(std::string(q.name) + "." + api::StrategyName(s));
      }
    }
  }
  return groups;
}

std::vector<std::string> Sp2bGroups() {
  std::vector<std::string> groups;
  for (const Sp2bTemplate& t : Sp2bTemplates()) groups.push_back(t.name);
  return groups;
}

int Sp2bDocuments(const DataSizes& sizes) {
  return static_cast<int>(
      std::lround(rdfref::datagen::Sp2bConfig{}.documents * sizes.sp2b_scale));
}

void BuildLubmRequests(const Options& opt, Workload* w) {
  w->groups = LubmGroups();
  for (const NamedQuery& q : LubmQueries()) {
    for (Strategy s : kLubmStrategies) {
      if (!LubmPairRuns(q.name, s)) continue;
      Request r;
      r.query = q.name;
      r.sparql = kUbPrefix + q.body;
      r.strategy = s;
      r.group = w->requests.size();
      w->requests.push_back(std::move(r));
    }
  }
  // Each round answers every pair once, in a seeded order: the work per
  // round is the same for every seed.
  Rng rng(opt.seed);
  std::vector<uint32_t> round(w->requests.size());
  for (size_t i = 0; i < round.size(); ++i) round[i] = static_cast<uint32_t>(i);
  for (int k = 0; k < 2000; ++k) {
    rng.Shuffle(&round);
    w->sequence.insert(w->sequence.end(), round.begin(), round.end());
  }
}

void BuildSp2bRequests(const Options& opt, Workload* w) {
  w->groups = Sp2bGroups();
  w->templates = Sp2bTemplates();
  // Each round holds every template `weight` times, in a seeded order; the
  // point lookups draw their document per occurrence.
  std::vector<uint32_t> round;
  for (size_t t = 0; t < w->templates.size(); ++t) {
    round.insert(round.end(), static_cast<size_t>(w->templates[t].weight),
                 static_cast<uint32_t>(t));
  }
  const int docs = Sp2bDocuments(w->sizes);
  const Zipf zipf(static_cast<size_t>(docs), 1.0);
  Rng rng(opt.seed);
  std::map<std::pair<uint32_t, int>, uint32_t> index;
  for (int k = 0; k < 1000; ++k) {
    rng.Shuffle(&round);
    for (uint32_t t : round) {
      const Sp2bTemplate& tpl = w->templates[t];
      const bool point = tpl.body.find(kDocSlot) != std::string::npos;
      const int doc = point ? static_cast<int>(zipf.Sample(&rng)) : -1;
      auto [it, fresh] = index.emplace(std::make_pair(t, doc),
                                       static_cast<uint32_t>(w->requests.size()));
      if (fresh) {
        Request r;
        r.query = tpl.name;
        r.sparql = kSpPrefix + Instantiate(tpl.body, doc);
        r.strategy = Strategy::kRefGcov;
        r.group = t;
        w->requests.push_back(std::move(r));
      }
      w->sequence.push_back(it->second);
    }
  }
}

// ---------------------------------------------------------------------------
// Data and set-up

rdf::Graph GenerateGraph(const Workload& w) {
  rdf::Graph graph;
  if (w.spec.sp2b) {
    rdfref::datagen::Sp2bConfig config;
    config.scale = w.sizes.sp2b_scale;
    rdfref::datagen::Sp2b::Generate(config, &graph);
  } else {
    rdfref::datagen::LubmConfig config;
    config.universities = w.sizes.lubm_universities;
    config.scale = w.sizes.lubm_scale;
    config.referenced_universities = 10;
    rdfref::datagen::Lubm::Generate(config, &graph);
  }
  return graph;
}

query::Cq ParseOrDie(const std::string& sparql, api::QueryAnswerer* answerer) {
  rdfref::Result<query::Cq> q = query::ParseSparql(sparql, &answerer->dict());
  if (!q.ok()) Die("parse failed: " + q.status().ToString() + "\n" + sparql);
  return std::move(*q);
}

// Hash of the first `terms` dictionary entries in id order. Answers are
// compared as TermIds across answerers built from the same generated data,
// so their id assignments must agree.
uint64_t DictionaryFingerprint(api::QueryAnswerer* answerer, size_t terms) {
  const rdf::Dictionary& dict = answerer->dict();
  if (dict.size() < terms) return 0;
  uint64_t h = terms;
  for (size_t id = 0; id < terms; ++id) {
    const rdf::Term& t = dict.Lookup(static_cast<TermId>(id));
    h = Mix64(h ^ std::hash<std::string>{}(t.lexical) ^
              static_cast<uint64_t>(t.kind));
  }
  return h;
}

size_t CountTriples(const api::QueryAnswerer& answerer) {
  return answerer.PinSnapshot()->CountMatches(
      rdfref::storage::kAny, rdfref::storage::kAny, rdfref::storage::kAny);
}

// Citation edges the sp2b-churn writer inserts and later removes: a
// uniformly drawn citing document, a cited document drawn from the reads'
// Zipf distribution, and a property of the sp:cites subtree; only edges
// the store does not already hold, each once.
std::vector<Triple> ChurnCandidates(api::QueryAnswerer* answerer,
                                    const Workload& w, const Options& opt) {
  auto find = [answerer](const std::string& uri) {
    const TermId id = answerer->dict().Find(rdf::Term::Uri(uri));
    if (id == rdf::kInvalidTermId) Die("unknown term " + uri);
    return id;
  };
  const int docs = Sp2bDocuments(w.sizes);
  std::vector<TermId> doc_ids;
  for (int i = 0; i < docs; ++i) {
    doc_ids.push_back(find(rdfref::datagen::Sp2b::DocumentUri(i)));
  }
  using rdfref::datagen::Sp2b;
  const TermId cites = find(Sp2b::Uri("cites"));
  const TermId extends = find(Sp2b::Uri("extends"));
  const TermId refutes = find(Sp2b::Uri("refutes"));
  const TermId reproduces = find(Sp2b::Uri("reproduces"));
  // Enough for both windows of a traced run; the writer wraps if not.
  const size_t wanted =
      static_cast<size_t>(kWriteRate * opt.seconds) + kLiveEdges + 16;
  const Zipf zipf(static_cast<size_t>(docs), 1.0);
  Rng rng(Mix64(opt.seed) ^ 0xc4u);
  std::vector<Triple> out;
  std::unordered_set<Triple, rdf::TripleHash> seen;
  while (out.size() < wanted) {
    const TermId citing = doc_ids[rng.Below(doc_ids.size())];
    const TermId cited = doc_ids[zipf.Sample(&rng)];
    if (citing == cited) continue;
    const double flavor = rng.Unit();
    const TermId p = flavor < 0.80   ? cites
                     : flavor < 0.90 ? extends
                     : flavor < 0.95 ? refutes
                                     : reproduces;
    const Triple t(citing, p, cited);
    if (answerer->versions().Contains(t) || !seen.insert(t).second) continue;
    out.push_back(t);
  }
  return out;
}

// What the set-up oracle hands to the serving phase.
struct Oracle {
  size_t dict_terms = 0;
  uint64_t fingerprint = 0;
  std::vector<Triple> churn;
};

// Computes every distinct request's expected row count and digest on a
// separate answerer over the same data: SAT and uncached REF-UCQ must agree
// (REF-SCQ stands in for REF-UCQ on Example 1). For sp2b-churn it also
// computes each request's rows with every churn edge inserted, then
// removes them and checks the store is back to its starting size.
Oracle ComputeOracle(const Options& opt, Workload* w) {
  Oracle oracle;
  auto answerer = std::make_unique<api::QueryAnswerer>(GenerateGraph(*w));
  oracle.dict_terms = answerer->dict().size();
  oracle.fingerprint = DictionaryFingerprint(answerer.get(), oracle.dict_terms);
  std::map<std::string, std::pair<uint64_t, uint64_t>> by_text;
  for (Request& r : w->requests) {
    auto it = by_text.find(r.sparql);
    if (it == by_text.end()) {
      const query::Cq q = ParseOrDie(r.sparql, answerer.get());
      const Strategy ref =
          LubmPairRuns(r.query, Strategy::kRefUcq) ? Strategy::kRefUcq
                                                   : Strategy::kRefScq;
      auto sat = answerer->Answer(q, Strategy::kSaturation);
      auto reformulated = answerer->Answer(q, ref);
      if (!sat.ok() || !reformulated.ok()) Die("oracle failed on " + r.query);
      const uint64_t digest = Digest(*sat);
      if (sat->NumRows() != reformulated->NumRows() ||
          digest != Digest(*reformulated)) {
        Die("oracle: SAT and " + std::string(api::StrategyName(ref)) +
            " disagree on " + r.query);
      }
      it = by_text.emplace(r.sparql, std::make_pair(sat->NumRows(), digest))
               .first;
    }
    r.rows = r.rows_hi = it->second.first;
    r.digest = it->second.second;
  }
  if (w->spec.churn) {
    oracle.churn = ChurnCandidates(answerer.get(), *w, opt);
    rdfref::storage::VersionSet& versions = answerer->versions();
    const size_t before = CountTriples(*answerer);
    for (const Triple& t : oracle.churn) versions.Insert(t);
    for (Request& r : w->requests) {
      auto hi = answerer->Answer(ParseOrDie(r.sparql, answerer.get()),
                                 Strategy::kRefUcq);
      if (!hi.ok() || hi->NumRows() < r.rows) Die("churn bound failed");
      r.rows_hi = hi->NumRows();
    }
    for (const Triple& t : oracle.churn) versions.Remove(t);
    if (CountTriples(*answerer) != before) Die("oracle store did not restore");
  }
  return oracle;
}

// The serving answerer and its set-up measurements.
struct Serving {
  std::unique_ptr<api::QueryAnswerer> answerer;
  std::vector<double> setup_s;
  double select_views_ms = 0.0;
  rdfref::optimizer::ViewHints hints;  // from SelectViews, as GCov sees them
  size_t start_triples = 0;
};

// Builds the serving answerer `setups` times and keeps the last one. Each
// set-up is timed from construction to the end of warm-up: the view cache
// and view selection (sp2b), then one answer per distinct request (LUBM,
// which includes the lazy Sat build) or per template (sp2b).
Serving SetUp(const Options& opt, const Oracle& oracle, Workload* w) {
  Serving s;
  const size_t budget =
      opt.budget_bytes > 0 ? opt.budget_bytes : w->sizes.cache_budget_bytes;
  for (int i = 0; i < w->sizes.setups; ++i) {
    s.answerer.reset();
    rdf::Graph graph = GenerateGraph(*w);
    const auto t0 = Clock::now();
    auto answerer = std::make_unique<api::QueryAnswerer>(std::move(graph));
    if (w->spec.view_cache) {
      engine::ViewCacheOptions cache;
      cache.byte_budget = budget;
      answerer->EnableViewCache(cache);
      std::vector<rdfref::optimizer::WorkloadQueryProfile> profiles;
      for (const Sp2bTemplate& tpl : w->templates) {
        rdfref::optimizer::WorkloadQueryProfile p;
        p.cq = ParseOrDie(kSpPrefix + Instantiate(tpl.body, 0), answerer.get());
        p.weight = tpl.weight;
        if (!tpl.cover.empty()) p.covers.push_back(query::Cover(tpl.cover));
        profiles.push_back(std::move(p));
      }
      rdfref::optimizer::ViewSelectionOptions selection;
      selection.byte_budget = budget;
      const auto ts = Clock::now();
      auto selected = answerer->SelectViews(profiles, selection);
      if (!selected.ok()) Die("view selection failed");
      s.select_views_ms = MillisSince(ts);
      s.hints = selected->hints;
      for (const rdfref::optimizer::WorkloadQueryProfile& p : profiles) {
        if (!answerer->Answer(p.cq, Strategy::kRefGcov).ok()) {
          Die("warm-up failed");
        }
      }
    } else {
      for (const Request& r : w->requests) {
        const query::Cq q = ParseOrDie(r.sparql, answerer.get());
        if (!answerer->Answer(q, r.strategy).ok()) Die("warm-up failed");
      }
    }
    s.setup_s.push_back(MillisSince(t0) / 1e3);
    if (DictionaryFingerprint(answerer.get(), oracle.dict_terms) !=
        oracle.fingerprint) {
      Die("answerers over the same data disagree on term ids");
    }
    s.answerer = std::move(answerer);
  }
  if (w->spec.sp2b) {
    for (Request& r : w->requests) r.cq = ParseOrDie(r.sparql, s.answerer.get());
  }
  s.start_triples = CountTriples(*s.answerer);
  return s;
}

// ---------------------------------------------------------------------------
// Measured windows

struct Sample {
  uint32_t group;
  float ms;
  float done_s;  // completion time, from the start of the window
};

// Per-call profile sums of a traced window.
struct TraceSums {
  uint64_t calls = 0;
  double prepare_ms = 0.0;
  double eval_ms = 0.0;
  uint64_t answer_rows = 0;
  uint64_t jucq_calls = 0;
  double join_ms = 0.0;
  uint64_t fragment_rows = 0;
  uint64_t jucq_answer_rows = 0;
  double pin_us = 0.0;
  size_t runs_max = 0;
  size_t head_max = 0;

  void Add(const TraceSums& o) {
    calls += o.calls;
    prepare_ms += o.prepare_ms;
    eval_ms += o.eval_ms;
    answer_rows += o.answer_rows;
    jucq_calls += o.jucq_calls;
    join_ms += o.join_ms;
    fragment_rows += o.fragment_rows;
    jucq_answer_rows += o.jucq_answer_rows;
    pin_us += o.pin_us;
    runs_max = std::max(runs_max, o.runs_max);
    head_max = std::max(head_max, o.head_max);
  }
};

struct ClientTally {
  std::vector<Sample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  TraceSums trace;
};

struct WriterTally {
  std::vector<double> latency_ms;  // from each write's due time
  double max_lag_ms = 0.0;         // how late the generator started a write
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t compactions = 0;  // observed drops in the sealed-run count
};

// One of the equal time slices of a window. End-to-end figures are medians
// over slices, so a burst of interference from outside the process moves
// at most the slices it hits.
struct Slice {
  double cpu_ms = 0.0;
  std::vector<double> latency_ms;
};

struct WindowResult {
  double wall_s = 0.0;
  double heap_mb = 0.0;  // medians of the samples taken every 50 ms
  double rss_mb = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double slice_s = 0.0;
  std::vector<Slice> slices;
  std::vector<double> latency_ms;
  std::vector<std::vector<double>> group_ms;
  TraceSums trace;
  WriterTally writer;
  engine::ViewCacheStats cache;  // counter deltas; gauges at the end

  double qps() const {
    return wall_s > 0.0 ? static_cast<double>(latency_ms.size()) / wall_s
                        : 0.0;
  }
};

engine::ViewCacheStats Delta(const engine::ViewCacheStats& end,
                             const engine::ViewCacheStats& begin) {
  engine::ViewCacheStats d = end;
  d.hits -= begin.hits;
  d.misses -= begin.misses;
  d.installs -= begin.installs;
  d.evictions -= begin.evictions;
  d.invalidations -= begin.invalidations;
  d.rejected -= begin.rejected;
  d.lost_races -= begin.lost_races;
  return d;
}

// Stage-by-stage replay totals over one request per latency group.
struct ReplayResult {
  StorageCounters storage;
  uint64_t q6_ucq_interval_fallback = 0;
  double parse_us = 0.0;
  uint64_t parses = 0;
  double reformulate_ms = 0.0;
  uint64_t reformulations = 0;
  uint64_t cqs = 0;
  double gcov_ms = 0.0;
  uint64_t gcov_calls = 0;
  uint64_t covers_explored = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

class Runner {
 public:
  Runner(const Workload& w, const Serving& s, std::vector<Triple> churn)
      : w_(w),
        answerer_(*s.answerer),
        hints_(s.hints),
        churn_(std::move(churn)) {
    if (w_.spec.churn) {
      rdfref::storage::VersionSetOptions maintenance;
      maintenance.freeze_threshold = kFreezeThreshold;
      maintenance.compact_min_runs = kCompactMinRuns;
      answerer_.versions().StartBackgroundCompaction(maintenance);
    }
  }

  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  ~Runner() { answerer_.versions().StopBackgroundCompaction(); }

  // Runs the clients (and the writer) for `seconds`, continuing the
  // request sequence where the previous window stopped.
  WindowResult RunWindow(double seconds, bool traced) {
    WindowResult out;
    std::vector<ClientTally> tallies(static_cast<size_t>(w_.spec.clients));
    std::atomic<size_t> next{next_};
    const engine::ViewCacheStats cache_before = answerer_.view_cache_stats();
    const double cpu0 = ProcessCpuMillis();
    const auto t0 = Clock::now();
    window_start_ = t0;
    const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
    // std::jthread joins on destruction, so no exit path leaves a thread
    // running against this frame.
    std::jthread writer;
    if (w_.spec.churn) {
      writer = std::jthread([this, t0, end, &out] { Write(t0, end, &out.writer); });
    }
    std::vector<std::jthread> clients;
    for (ClientTally& tally : tallies) {
      clients.emplace_back([this, end, traced, &next, &tally] {
        while (Clock::now() < end) {
          const size_t i = next.fetch_add(1, std::memory_order_relaxed);
          Read(w_.requests[w_.sequence[i % w_.sequence.size()]], traced,
               &tally);
        }
      });
    }
    // Sample memory while the clients run, and take the process CPU time
    // at every slice boundary.
    out.slice_s = seconds / kSlices;
    out.slices.resize(kSlices);
    std::vector<double> heap, rss;
    double slice_cpu0 = cpu0;
    for (int k = 1; k <= kSlices; ++k) {
      const auto boundary =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(out.slice_s * k));
      while (Clock::now() < boundary) {
        std::this_thread::sleep_until(
            std::min(boundary, Clock::now() + std::chrono::milliseconds(50)));
        heap.push_back(HeapMb());
        rss.push_back(RssMb());
      }
      const double cpu = ProcessCpuMillis();
      out.slices[static_cast<size_t>(k - 1)].cpu_ms = cpu - slice_cpu0;
      slice_cpu0 = cpu;
    }
    for (std::jthread& c : clients) c.join();
    if (writer.joinable()) writer.join();
    out.wall_s = MillisSince(t0) / 1e3;
    out.heap_mb = Percentile(std::move(heap), 0.5);
    out.rss_mb = Percentile(std::move(rss), 0.5);
    out.cache = Delta(answerer_.view_cache_stats(), cache_before);
    next_ = next.load();
    out.group_ms.resize(w_.groups.size());
    for (const ClientTally& tally : tallies) {
      out.attempted += tally.attempted;
      out.failed += tally.failed;
      out.trace.Add(tally.trace);
      for (const Sample& s : tally.samples) {
        out.latency_ms.push_back(s.ms);
        out.group_ms[s.group].push_back(s.ms);
        const size_t k = static_cast<size_t>(s.done_s / out.slice_s);
        if (k < out.slices.size()) out.slices[k].latency_ms.push_back(s.ms);
      }
    }
    out.attempted += out.writer.attempted;
    out.failed += out.writer.failed;
    return out;
  }

  // Removes the writer's live edges and compacts, so the replay reads the
  // same fully compacted store on every run; true when the store is back
  // to `start_triples`.
  bool DrainChurn(size_t start_triples) {
    rdfref::storage::VersionSet& versions = answerer_.versions();
    versions.StopBackgroundCompaction();
    for (const Triple& t : live_) versions.Remove(t);
    live_.clear();
    versions.Compact();
    return CountTriples(answerer_) == start_triples;
  }

  // Replays one request per latency group (its first occurrence in the
  // sequence) stage by stage — parse, reformulate, GCov, evaluation
  // through a CountingSource — and checks that each replay returns exactly
  // the rows Answer returns on the same snapshot, and the oracle's digest.
  ReplayResult Replay() {
    ReplayResult out;
    std::vector<bool> seen(w_.groups.size(), false);
    for (uint32_t index : w_.sequence) {
      const Request& r = w_.requests[index];
      if (seen[r.group]) continue;
      seen[r.group] = true;
      ++out.attempted;
      const auto tp = Clock::now();
      rdfref::Result<query::Cq> q =
          query::ParseSparql(r.sparql, &answerer_.dict());
      out.parse_us += MillisSince(tp) * 1e3;
      ++out.parses;
      if (!q.ok()) {
        ++out.failed;
        continue;
      }
      rdfref::storage::SnapshotPtr snap = answerer_.PinSnapshot();
      const rdfref::storage::TripleSource* source =
          r.strategy == Strategy::kSaturation
              ? static_cast<const rdfref::storage::TripleSource*>(
                    &answerer_.sat_store())
              : snap.get();
      CountingSource counting(source);
      const engine::Evaluator evaluator(&counting);
      rdfref::Result<engine::Table> replayed =
          Stages(*q, r.strategy, evaluator, &out);
      api::AnswerOptions cold;
      cold.snapshot = snap;
      cold.use_view_cache = false;
      rdfref::Result<engine::Table> answered =
          answerer_.Answer(*q, r.strategy, nullptr, cold);
      const StorageCounters counters = counting.counters();
      out.storage.Add(counters);
      if (r.query == "Q6-members" && r.strategy == Strategy::kRefUcq) {
        out.q6_ucq_interval_fallback = counters.interval_fallback;
      }
      if (!replayed.ok() || !answered.ok() ||
          !SameRows(*replayed, *answered) || replayed->NumRows() != r.rows ||
          Digest(*replayed) != r.digest) {
        std::fprintf(stderr, "perfbench: replay mismatch on %s %s\n",
                     r.query.c_str(), api::StrategyName(r.strategy));
        ++out.failed;
      }
    }
    return out;
  }

 private:
  float DoneSeconds() const {
    return static_cast<float>(MillisSince(window_start_) / 1e3);
  }

  bool RowsPlausible(const Request& r, uint64_t rows) const {
    return w_.spec.churn ? rows >= r.rows && rows <= r.rows_hi
                         : rows == r.rows;
  }

  void Read(const Request& r, bool traced, ClientTally* tally) {
    ++tally->attempted;
    const auto t0 = Clock::now();
    std::optional<query::Cq> parsed;
    const query::Cq* q = &r.cq;
    if (!w_.spec.sp2b) {  // LUBM requests are parsed in the timed path
      rdfref::Result<query::Cq> p =
          query::ParseSparql(r.sparql, &answerer_.dict());
      if (!p.ok()) {
        ++tally->failed;
        return;
      }
      parsed = std::move(*p);
      q = &*parsed;
    }
    if (!traced) {
      rdfref::Result<engine::Table> answer = answerer_.Answer(*q, r.strategy);
      const double ms = MillisSince(t0);
      if (!answer.ok() || !RowsPlausible(r, answer->NumRows())) {
        ++tally->failed;
        return;
      }
      tally->samples.push_back({static_cast<uint32_t>(r.group),
                                static_cast<float>(ms), DoneSeconds()});
      return;
    }
    TraceSums& trace = tally->trace;
    api::AnswerOptions options;
    const auto tp = Clock::now();
    options.snapshot = answerer_.PinSnapshot();
    trace.pin_us += MillisSince(tp) * 1e3;
    trace.runs_max = std::max(trace.runs_max, options.snapshot->num_runs());
    trace.head_max = std::max(trace.head_max, options.snapshot->head_size());
    api::AnswerProfile profile;
    rdfref::Result<engine::Table> answer =
        answerer_.Answer(*q, r.strategy, &profile, options);
    const double ms = MillisSince(t0);
    if (!answer.ok()) {
      ++tally->failed;
      return;
    }
    tally->samples.push_back({static_cast<uint32_t>(r.group),
                              static_cast<float>(ms), DoneSeconds()});
    ++trace.calls;
    trace.prepare_ms += profile.prepare_millis;
    trace.eval_ms += profile.eval_millis;
    trace.answer_rows += answer->NumRows();
    if (!profile.jucq.fragments.empty()) {
      ++trace.jucq_calls;
      trace.join_ms += profile.jucq.join_millis;
      for (const engine::FragmentProfile& f : profile.jucq.fragments) {
        trace.fragment_rows += f.result_rows;
      }
      trace.jucq_answer_rows += answer->NumRows();
    }
    bool right = RowsPlausible(r, answer->NumRows());
    if (w_.spec.churn) {
      // Compare with an uncached evaluation of the same pinned snapshot.
      api::AnswerOptions cold = options;
      cold.use_view_cache = false;
      rdfref::Result<engine::Table> check =
          answerer_.Answer(*q, r.strategy, nullptr, cold);
      right = right && check.ok() && check->NumRows() == answer->NumRows() &&
              Digest(*check) == Digest(*answer);
    } else {
      right = right && Digest(*answer) == r.digest;
    }
    if (!right) ++tally->failed;
  }

  // The sp2b-churn writer: open loop at kWriteRate, each write timed from
  // its due time.
  void Write(Clock::time_point start, Clock::time_point end,
             WriterTally* tally) {
    rdfref::storage::VersionSet& versions = answerer_.versions();
    const std::chrono::duration<double> period(1.0 / kWriteRate);
    size_t last_runs = versions.num_runs();
    for (uint64_t k = 0;; ++k) {
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(
                      period * static_cast<double>(k));
      if (due >= end) break;
      std::this_thread::sleep_until(due);
      tally->max_lag_ms = std::max(tally->max_lag_ms, MillisSince(due));
      bool ok = false;
      if (live_.size() < kLiveEdges) {
        const Triple& t = churn_[next_edge_++ % churn_.size()];
        ok = versions.Insert(t);
        live_.push_back(t);
      } else {
        ok = versions.Remove(live_.front());
        live_.pop_front();
      }
      tally->latency_ms.push_back(MillisSince(due));
      ++tally->attempted;
      if (!ok) ++tally->failed;
      const size_t runs = versions.num_runs();
      if (runs < last_runs) ++tally->compactions;
      last_runs = runs;
    }
  }

  rdfref::Result<engine::Table> Stages(const query::Cq& q, Strategy strategy,
                                       const engine::Evaluator& evaluator,
                                       ReplayResult* out) {
    if (strategy == Strategy::kSaturation) return evaluator.EvaluateCq(q);
    rdfref::reformulation::Reformulator ref(&answerer_.schema(), {},
                                            &answerer_.dict());
    ++out->reformulations;
    if (strategy == Strategy::kRefUcq) {
      const auto tr = Clock::now();
      rdfref::Result<query::Ucq> ucq = ref.Reformulate(q);
      out->reformulate_ms += MillisSince(tr);
      if (!ucq.ok()) return ucq.status();
      out->cqs += ucq->size();
      return evaluator.EvaluateUcq(*ucq, rdfref::Deadline());
    }
    query::Cover cover = query::Cover::Singletons(q.body().size());
    if (strategy == Strategy::kRefGcov) {
      rdfref::cost::CostModel cost_model(&answerer_.ref_store().stats());
      rdfref::optimizer::CoverOptimizer optimizer(
          &ref, &cost_model, hints_.empty() ? nullptr : &hints_);
      rdfref::optimizer::GcovTrace trace;
      const auto tg = Clock::now();
      rdfref::Result<query::Cover> chosen = optimizer.Greedy(q, &trace);
      out->gcov_ms += MillisSince(tg);
      ++out->gcov_calls;
      out->covers_explored += trace.explored.size();
      if (!chosen.ok()) return chosen.status();
      cover = *chosen;
    }
    const auto tr = Clock::now();
    std::vector<query::Cq> fragments = cover.FragmentQueries(q);
    std::vector<query::Ucq> ucqs;
    for (const query::Cq& f : fragments) {
      rdfref::Result<query::Ucq> ucq = ref.Reformulate(f);
      if (!ucq.ok()) return ucq.status();
      out->cqs += ucq->size();
      ucqs.push_back(std::move(*ucq));
    }
    out->reformulate_ms += MillisSince(tr);
    return evaluator.EvaluateJucq(q, fragments, ucqs, rdfref::Deadline());
  }

  const Workload& w_;
  api::QueryAnswerer& answerer_;
  const rdfref::optimizer::ViewHints& hints_;
  std::vector<Triple> churn_;
  std::deque<Triple> live_;  // writer thread only, between windows main
  size_t next_edge_ = 0;
  size_t next_ = 0;  // sequence position carried across windows
  Clock::time_point window_start_;
};

// ---------------------------------------------------------------------------
// Report

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

std::vector<Metric> EndToEnd(const Serving& s, const WindowResult& win) {
  // p99 is taken over the whole window: a slice holds too few samples
  // beyond it.
  std::vector<double> qps, p50, cpu;
  for (const Slice& slice : win.slices) {
    const double reads = static_cast<double>(slice.latency_ms.size());
    qps.push_back(reads / win.slice_s);
    p50.push_back(Percentile(slice.latency_ms, 0.50));
    cpu.push_back(Ratio(slice.cpu_ms, reads));
  }
  return {
      {"setup_s", Median(s.setup_s), "s"},
      {"qps", Median(qps), "1/s"},
      {"p50_ms", Median(p50), "ms"},
      {"p99_ms", Percentile(win.latency_ms, 0.99), "ms"},
      {"cpu_ms_per_query", Median(cpu), "ms"},
      {"heap_mb", win.heap_mb, "MB"},
  };
}

std::vector<Metric> PerLayer(const Workload& w, const Serving& s,
                             const WindowResult& plain,
                             const WindowResult& traced,
                             const ReplayResult& replay, uint64_t attempted,
                             uint64_t failed) {
  const StorageCounters& st = replay.storage;
  const TraceSums& tr = traced.trace;
  const engine::ViewCacheStats& vc = plain.cache;
  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  std::vector<Metric> m = {
      {"storage.range_calls", d(st.range_calls), "count"},
      {"storage.hinted_calls", d(st.hinted_calls), "count"},
      {"storage.interval_zero_copy", d(st.interval_zero_copy), "count"},
      {"storage.interval_fallback", d(st.interval_fallback), "count"},
      {"storage.scan_into_calls", d(st.scan_into_calls), "count"},
      {"storage.count_calls", d(st.count_calls), "count"},
      {"storage.triples_touched", d(st.triples_touched), "count"},
      {"storage.zero_copy_ratio", st.zero_copy_ratio(), "ratio"},
      {"storage.q6_ucq_interval_fallback", d(replay.q6_ucq_interval_fallback),
       "count"},
      {"storage.snapshot_pin_us", Ratio(tr.pin_us, d(tr.calls)), "us"},
      {"storage.runs_max", d(tr.runs_max), "count"},
      {"storage.head_max", d(tr.head_max), "count"},
      {"storage.write_ops", d(plain.writer.attempted), "count"},
      {"storage.compactions", d(plain.writer.compactions), "count"},
      {"query.parse_us", Ratio(replay.parse_us, d(replay.parses)), "us"},
      {"reformulation.reformulate_ms",
       Ratio(replay.reformulate_ms, d(replay.reformulations)), "ms"},
      {"reformulation.cqs", Ratio(d(replay.cqs), d(replay.reformulations)),
       "count"},
      {"optimizer.gcov_ms", Ratio(replay.gcov_ms, d(replay.gcov_calls)), "ms"},
      {"optimizer.gcov_covers_explored",
       Ratio(d(replay.covers_explored), d(replay.gcov_calls)), "count"},
      {"api.prepare_ms", Ratio(tr.prepare_ms, d(tr.calls)), "ms"},
      {"api.eval_ms", Ratio(tr.eval_ms, d(tr.calls)), "ms"},
      {"engine.jucq_join_ms", Ratio(tr.join_ms, d(tr.jucq_calls)), "ms"},
      {"engine.fragment_rows_per_row",
       Ratio(d(tr.fragment_rows), d(tr.jucq_answer_rows)), "ratio"},
      {"engine.answer_rows", Ratio(d(tr.answer_rows), d(tr.calls)), "count"},
      {"view_cache.hit_rate", vc.hit_rate(), "ratio"},
      {"view_cache.hits", d(vc.hits), "count"},
      {"view_cache.misses", d(vc.misses), "count"},
      {"view_cache.installs", d(vc.installs), "count"},
      {"view_cache.evictions", d(vc.evictions), "count"},
      {"view_cache.invalidations", d(vc.invalidations), "count"},
      {"view_cache.rejected", d(vc.rejected), "count"},
      {"view_cache.lost_races", d(vc.lost_races), "count"},
      {"view_cache.bytes", d(vc.bytes), "bytes"},
      {"view_cache.entries", d(vc.entries), "count"},
      {"reasoner.saturation_ms", s.answerer->saturation_millis(), "ms"},
      {"optimizer.select_views_ms", s.select_views_ms, "ms"},
      {"bench.trace_overhead", Ratio(traced.qps(), plain.qps()), "ratio"},
      {"bench.writer_lag_ms", plain.writer.max_lag_ms, "ms"},
      {"bench.error_rate", Ratio(d(failed), d(attempted)), "ratio"},
      {"bench.read_samples", d(plain.latency_ms.size()), "count"},
      {"bench.rss_mb", plain.rss_mb, "MB"},
      {"write_p50_ms", Percentile(plain.writer.latency_ms, 0.50), "ms"},
      {"write_p99_ms", Percentile(plain.writer.latency_ms, 0.99), "ms"},
  };
  // Per-request p50 of the untraced window, for every group of both
  // families (0 for the family this workload does not run).
  const auto add_groups = [&](const std::vector<std::string>& names,
                              const char* prefix, bool mine) {
    for (size_t g = 0; g < names.size(); ++g) {
      m.push_back({std::string(prefix) + names[g] + ".p50_ms",
                   mine ? Percentile(plain.group_ms[g], 0.5) : 0.0, "ms"});
    }
  };
  add_groups(LubmGroups(), "api.pair.", !w.spec.sp2b);
  add_groups(Sp2bGroups(), "api.query.", w.spec.sp2b);
  return m;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

Options ParseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "smoke") Die("bad --scale " + value);
      opt.smoke = value == "smoke";
    } else if (flag == "--budget-kb") {
      opt.budget_bytes = static_cast<size_t>(std::stoull(value)) << 10;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (opt.workload.empty()) Die("--workload is required");
  if (!(opt.seconds > 0.0)) Die("--seconds must be positive");
  return opt;
}

int Main(int argc, char** argv) {
  const Options opt = ParseArgs(argc, argv);
  Workload w;
  w.spec = SpecFor(opt.workload);
  w.sizes = SizesFor(opt.smoke);
  if (w.spec.sp2b) {
    BuildSp2bRequests(opt, &w);
  } else {
    BuildLubmRequests(opt, &w);
  }
  const auto t_oracle = Clock::now();
  const Oracle oracle = ComputeOracle(opt, &w);
  std::fprintf(stderr, "perfbench: oracle %.2f s\n",
               MillisSince(t_oracle) / 1e3);
  Serving serving = SetUp(opt, oracle, &w);
  std::fprintf(stderr,
               "perfbench: %s: %zu explicit triples, %zu distinct requests, "
               "%d client(s), setup %.3f s\n",
               w.spec.name.c_str(), serving.start_triples, w.requests.size(),
               w.spec.clients, Median(serving.setup_s));

  std::vector<std::string> problems;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  WindowResult plain;
  WindowResult traced;
  ReplayResult replay;
  {
    Runner runner(w, serving, oracle.churn);
    plain = runner.RunWindow(opt.seconds, false);
    attempted += plain.attempted;
    failed += plain.failed;
    if (opt.trace) {
      // Half as long: the per-layer figures need fewer samples.
      traced = runner.RunWindow(opt.seconds / 2, true);
      attempted += traced.attempted;
      failed += traced.failed;
    }
    if (w.spec.churn && !runner.DrainChurn(serving.start_triples)) {
      problems.push_back("store did not return to its starting triple count");
    }
    if (opt.trace) {
      const auto t_replay = Clock::now();
      replay = runner.Replay();
      std::fprintf(stderr, "perfbench: replay %.2f s\n",
                   MillisSince(t_replay) / 1e3);
      attempted += replay.attempted;
      failed += replay.failed;
    }
  }
  if (w.spec.churn && plain.cache.invalidations == 0) {
    problems.push_back("no view-cache invalidations under churn");
  }
  if (w.spec.view_cache && !w.spec.churn && plain.cache.invalidations != 0) {
    problems.push_back("view-cache invalidations without writes");
  }
  if (plain.latency_ms.empty()) problems.push_back("no read completed");
  if (failed > 0) problems.push_back("failed or wrong operations");
  for (const std::string& p : problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  }
  std::fprintf(stderr,
               "perfbench: %zu reads in %.2f s, %llu attempted, %llu failed\n",
               plain.latency_ms.size(), plain.wall_s,
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed));
  const std::vector<Metric> metrics =
      opt.trace ? PerLayer(w, serving, plain, traced, replay, attempted, failed)
                : EndToEnd(serving, plain);
  PrintResult(problems.empty(), std::max<uint64_t>(attempted, 1), failed,
              metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
