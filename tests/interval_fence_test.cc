// Deterministic fence for "hierarchy encoding must never lose to classic
// reformulation": with encoding on, every LUBM suite query under REF-UCQ,
// REF-SCQ and REF-GCOV must reach storage only through the batch access
// paths — zero calls of the legacy per-triple Scan, on a clean snapshot
// and on a churned one — and return exactly the rows Answer returns on the
// same snapshot. A work counter, not a wall-time gate: it cannot flake.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/query_answering.h"
#include "cost/cost_model.h"
#include "datagen/lubm.h"
#include "engine/evaluator.h"
#include "optimizer/gcov.h"
#include "query/cover.h"
#include "query/sparql_parser.h"
#include "rdf/vocab.h"
#include "reformulation/reformulator.h"
#include "storage/version_set.h"

namespace rdfref {
namespace {

using api::Strategy;
using rdf::TermId;
using rdf::Triple;

/// Forwards every TripleSource method to the wrapped source and counts the
/// legacy Scan calls made through it.
class ScanCountingSource : public storage::TripleSource {
 public:
  explicit ScanCountingSource(const storage::TripleSource* inner)
      : inner_(inner) {}

  void Scan(TermId s, TermId p, TermId o,
            const std::function<void(const Triple&)>& fn)
      const override {  // rdfref-check: allow(std-function)
    scans_.fetch_add(1, std::memory_order_relaxed);
    inner_->Scan(s, p, o, fn);
  }
  bool TryGetRange(TermId s, TermId p, TermId o,
                   std::span<const Triple>* out) const override {
    return inner_->TryGetRange(s, p, o, out);
  }
  bool TryGetRangeHinted(TermId s, TermId p, TermId o,
                         std::span<const Triple>* out,
                         storage::RangeHint* hint) const override {
    return inner_->TryGetRangeHinted(s, p, o, out, hint);
  }
  void ScanInto(TermId s, TermId p, TermId o,
                std::vector<Triple>* out) const override {
    inner_->ScanInto(s, p, o, out);
  }
  size_t CountMatches(TermId s, TermId p, TermId o) const override {
    return inner_->CountMatches(s, p, o);
  }
  bool TryGetIntervalRange(TermId s, TermId p, TermId o, int range_pos,
                           TermId hi,
                           std::span<const Triple>* out) const override {
    return inner_->TryGetIntervalRange(s, p, o, range_pos, hi, out);
  }
  bool TryGetIntervalRangeHinted(TermId s, TermId p, TermId o, int range_pos,
                                 TermId hi, std::span<const Triple>* out,
                                 storage::RangeHint* hint) const override {
    return inner_->TryGetIntervalRangeHinted(s, p, o, range_pos, hi, out,
                                             hint);
  }
  void ScanIntervalInto(TermId s, TermId p, TermId o, int range_pos,
                        TermId hi, std::vector<Triple>* out) const override {
    inner_->ScanIntervalInto(s, p, o, range_pos, hi, out);
  }
  size_t CountIntervalMatches(TermId s, TermId p, TermId o, int range_pos,
                              TermId hi) const override {
    return inner_->CountIntervalMatches(s, p, o, range_pos, hi);
  }
  const rdf::Dictionary& dict() const override { return inner_->dict(); }

  uint64_t scans() const { return scans_.load(); }

 private:
  const storage::TripleSource* inner_;
  mutable std::atomic<uint64_t> scans_{0};
};

// The wrapper only sees calls made through it. A snapshot (or its Store
// generations) inheriting one of TripleSource's Scan-based defaults would
// reach its own Scan out of the wrapper's sight, so the overrides that
// rule that out are checked at compile time: `&Derived::Method` names the
// class that declares the method.
template <typename Owner, typename Declarer, typename R, typename... Args>
constexpr bool DeclaredBy(R (Declarer::*)(Args...) const) {
  return std::is_same_v<Owner, Declarer>;
}
static_assert(DeclaredBy<storage::SnapshotSource>(
    &storage::SnapshotSource::ScanInto));
static_assert(DeclaredBy<storage::SnapshotSource>(
    &storage::SnapshotSource::ScanIntervalInto));
static_assert(DeclaredBy<storage::SnapshotSource>(
    &storage::SnapshotSource::CountIntervalMatches));
static_assert(DeclaredBy<storage::Store>(&storage::Store::ScanIntervalInto));
static_assert(DeclaredBy<storage::Store>(
    &storage::Store::CountIntervalMatches));

constexpr const char* kUb =
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n";

// The LUBM suite and the paper's Example 1.
std::vector<std::pair<std::string, std::string>> Suite() {
  const std::string univ1 = datagen::Lubm::UniversityUri(1);
  return {
      {"Q1", "SELECT ?x WHERE { ?x a ub:Person . }"},
      {"Q2", "SELECT ?x ?d WHERE { ?x a ub:Professor . ?x ub:worksFor ?d . }"},
      {"Q3",
       "SELECT ?x ?c WHERE { ?x a ub:Student . ?x ub:takesCourse ?c . }"},
      {"Q4", "SELECT ?x ?a WHERE { ?x ub:advisor ?a . ?a ub:headOf ?d . }"},
      {"Q5", "SELECT ?x WHERE { ?x ub:degreeFrom <" + univ1 + "> . }"},
      {"Q6", "SELECT ?x ?u ?z WHERE { ?x rdf:type ?u . ?x ub:memberOf ?z . }"},
      {"Q7",
       "SELECT ?x ?u WHERE { ?x rdf:type ?u . "
       "?x ub:mastersDegreeFrom <" + univ1 + "> . }"},
      {"Q8",
       "SELECT ?g ?d WHERE { ?g a ub:Organization . "
       "?g ub:subOrganizationOf ?d . }"},
      {"Q9",
       "SELECT ?f ?c ?s WHERE { ?f ub:teacherOf ?c . "
       "?s ub:takesCourse ?c . ?s a ub:Student . }"},
      {"Q10",
       "SELECT ?s ?a ?d WHERE { ?s ub:advisor ?a . "
       "?a ub:worksFor ?d . ?d ub:subOrganizationOf ?u . }"},
      {"E1",
       "SELECT ?x ?u ?y ?v ?z WHERE { ?x rdf:type ?u . ?y rdf:type ?v . "
       "?x ub:mastersDegreeFrom <" + univ1 + "> . "
       "?y ub:doctoralDegreeFrom <" + univ1 + "> . "
       "?x ub:memberOf ?z . ?y ub:memberOf ?z . }"},
  };
}

class IntervalFenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::LubmConfig config;
    config.universities = 1;
    config.scale = 0.3;
    config.referenced_universities = 4;
    rdf::Graph graph;
    datagen::Lubm::Generate(config, &graph);
    answerer_ = std::make_unique<api::QueryAnswerer>(std::move(graph));
  }

  TermId Ub(const std::string& local) {
    return answerer_->dict().InternUri(datagen::Lubm::Uri(local));
  }

  // The Ref strategies stage by stage — reformulate (encoding on), GCov,
  // evaluate — over `source`, as QueryAnswerer::Answer runs them.
  Result<engine::Table> Staged(const query::Cq& q, Strategy strategy,
                               const storage::TripleSource* source,
                               size_t* interval_atoms) {
    reformulation::Reformulator ref(&answerer_->schema(), {},
                                    &answerer_->dict());
    const engine::Evaluator evaluator(source);
    auto count_intervals = [&](const query::Ucq& ucq) {
      for (const query::Cq& member : ucq.members()) {
        for (const query::Atom& atom : member.body()) {
          if (atom.has_range()) ++*interval_atoms;
        }
      }
    };
    if (strategy == Strategy::kRefUcq) {
      RDFREF_ASSIGN_OR_RETURN(query::Ucq ucq, ref.Reformulate(q));
      count_intervals(ucq);
      return evaluator.EvaluateUcq(ucq, Deadline::Infinite());
    }
    query::Cover cover = query::Cover::Singletons(q.body().size());
    if (strategy == Strategy::kRefGcov) {
      cost::CostModel cost_model(&answerer_->ref_store().stats());
      optimizer::CoverOptimizer optimizer(&ref, &cost_model, nullptr);
      RDFREF_ASSIGN_OR_RETURN(cover, optimizer.Greedy(q));
    }
    std::vector<query::Cq> fragments = cover.FragmentQueries(q);
    std::vector<query::Ucq> ucqs;
    for (const query::Cq& f : fragments) {
      RDFREF_ASSIGN_OR_RETURN(query::Ucq ucq, ref.Reformulate(f));
      count_intervals(ucq);
      ucqs.push_back(std::move(ucq));
    }
    return evaluator.EvaluateJucq(q, fragments, ucqs, Deadline::Infinite());
  }

  // Runs the suite on `snap`, adding the interval atoms it evaluated to
  // `*interval_atoms`.
  void ExpectNoLegacyScans(const storage::SnapshotPtr& snap,
                           size_t* interval_atoms) {
    for (const auto& [name, body] : Suite()) {
      Result<query::Cq> q = query::ParseSparql(kUb + body, &answerer_->dict());
      ASSERT_TRUE(q.ok()) << name << ": " << q.status().ToString();
      for (Strategy strategy :
           {Strategy::kRefUcq, Strategy::kRefScq, Strategy::kRefGcov}) {
        // Example 1's UCQ reformulation exceeds the reformulation budget.
        if (name == "E1" && strategy == Strategy::kRefUcq) continue;
        SCOPED_TRACE(name + " " + api::StrategyName(strategy));
        ScanCountingSource counting(snap.get());
        Result<engine::Table> staged =
            Staged(*q, strategy, &counting, interval_atoms);
        api::AnswerOptions options;
        options.snapshot = snap;
        options.use_view_cache = false;
        Result<engine::Table> answered =
            answerer_->Answer(*q, strategy, nullptr, options);
        ASSERT_TRUE(staged.ok()) << staged.status().ToString();
        ASSERT_TRUE(answered.ok()) << answered.status().ToString();
        EXPECT_EQ(counting.scans(), 0u);
        EXPECT_EQ(staged->NumRows(), answered->NumRows());
        EXPECT_EQ(staged->data(), answered->data());
      }
    }
  }

  std::unique_ptr<api::QueryAnswerer> answerer_;
};

TEST_F(IntervalFenceTest, CleanSnapshotMakesNoLegacyScans) {
  storage::SnapshotPtr snap = answerer_->PinSnapshot();
  ASSERT_EQ(snap->num_runs(), 0u);
  ASSERT_EQ(snap->head_size(), 0u);
  // The fence only means something if the encoded reformulations really
  // evaluate interval atoms.
  size_t interval_atoms = 0;
  ExpectNoLegacyScans(snap, &interval_atoms);
  EXPECT_GT(interval_atoms, 0u);
}

TEST_F(IntervalFenceTest, ChurnedSnapshotMakesNoLegacyScans) {
  // Churn instance triples on properties and classes the suite queries: a
  // sealed run with adds and removals, then a head with more of both.
  const std::vector<Triple> explicit_triples =
      answerer_->PinSnapshot()->Materialize();
  const TermId type = rdf::vocab::kTypeId;
  const std::vector<TermId> queried = {
      type,           Ub("memberOf"), Ub("worksFor"),   Ub("takesCourse"),
      Ub("advisor"),  Ub("headOf"),   Ub("teacherOf"),  Ub("subOrganizationOf"),
      Ub("mastersDegreeFrom"),        Ub("doctoralDegreeFrom")};
  std::vector<Triple> victims;
  for (size_t i = 0; i < explicit_triples.size(); i += 37) {
    const Triple& t = explicit_triples[i];
    if (std::find(queried.begin(), queried.end(), t.p) != queried.end()) {
      victims.push_back(t);
    }
  }
  ASSERT_GE(victims.size(), 8u);
  const TermId univ1 =
      answerer_->dict().InternUri(datagen::Lubm::UniversityUri(1));
  auto churn = [&](size_t from, size_t to, const std::string& tag) {
    for (size_t i = from; i < to && i < victims.size(); ++i) {
      ASSERT_TRUE(answerer_->RemoveTriple(victims[i]).ok());
      const TermId fresh = answerer_->dict().InternUri(
          "http://rdfref.org/fence#" + tag + std::to_string(i));
      // Re-home the victim's object on a fresh subject, and give it a
      // most-specific type and a degree, so every interval family moves.
      ASSERT_TRUE(answerer_
                      ->InsertTriple(Triple(fresh, victims[i].p, victims[i].o))
                      .ok());
      ASSERT_TRUE(
          answerer_->InsertTriple(Triple(fresh, type, Ub("GraduateStudent")))
              .ok());
      ASSERT_TRUE(answerer_
                      ->InsertTriple(
                          Triple(fresh, Ub("mastersDegreeFrom"), univ1))
                      .ok());
      ASSERT_TRUE(answerer_
                      ->InsertTriple(Triple(victims[i].s, Ub("worksFor"),
                                            victims[i].o))
                      .ok());
    }
  };
  churn(0, victims.size() / 2, "run");
  answerer_->versions().Freeze();
  churn(victims.size() / 2, victims.size(), "head");
  storage::SnapshotPtr snap = answerer_->PinSnapshot();
  ASSERT_EQ(snap->num_runs(), 1u);
  ASSERT_GT(snap->head_size(), 0u);
  size_t interval_atoms = 0;
  ExpectNoLegacyScans(snap, &interval_atoms);
  EXPECT_GT(interval_atoms, 0u);
}

}  // namespace
}  // namespace rdfref
