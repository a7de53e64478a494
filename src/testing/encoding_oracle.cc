#include "testing/encoding_oracle.h"

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "api/query_answering.h"
#include "common/hash.h"
#include "rdf/vocab.h"
#include "storage/version_set.h"

namespace rdfref {
namespace testing {

namespace {

std::string Diagnose(const query::Cq& q, const rdf::Dictionary& dict,
                     const std::set<DecodedRow>& expected,
                     const std::set<DecodedRow>& got) {
  std::ostringstream os;
  os << "expected " << RowSetPreview(expected) << "; got "
     << RowSetPreview(got) << "\nquery: " << q.ToString(dict);
  return os.str();
}

/// Answers q under both reformulation modes and compares the decoded sets
/// against `expected` (saturation ground truth). `stage` labels the phase
/// ("load" / "churn" / "schema-insert" / "reencode") in the divergence
/// relation. A non-null `snapshot` pins the epoch both modes read.
Divergence CompareModes(api::QueryAnswerer* answerer, const query::Cq& q,
                        const std::set<DecodedRow>& expected,
                        const std::string& stage,
                        storage::SnapshotPtr snapshot = nullptr) {
  api::AnswerOptions encoded;  // use_encoding stays at its default (on)
  encoded.snapshot = snapshot;
  api::AnswerOptions classic = encoded;
  classic.reform.use_encoding = false;
  for (api::Strategy s : {api::Strategy::kRefUcq, api::Strategy::kRefScq}) {
    for (bool use_encoding : {true, false}) {
      const api::AnswerOptions& options = use_encoding ? encoded : classic;
      auto got = answerer->Answer(q, s, nullptr, options);
      std::string name = "encoded:" + stage + ":" +
                         std::string(api::StrategyName(s)) +
                         (use_encoding ? ":interval" : ":classic");
      if (!got.ok()) return Divergence::Of(name, got.status().ToString());
      std::set<DecodedRow> rows = DecodeRows(*got, answerer->dict());
      if (rows != expected) {
        return Divergence::Of(name,
                              Diagnose(q, answerer->dict(), expected, rows));
      }
    }
  }
  return Divergence::None();
}

Divergence GroundTruth(api::QueryAnswerer* answerer, const query::Cq& q,
                       const std::string& stage,
                       std::set<DecodedRow>* expected) {
  auto sat = answerer->Answer(q, api::Strategy::kSaturation);
  if (!sat.ok()) {
    return Divergence::Of("encoded:" + stage + ":SAT",
                          sat.status().ToString());
  }
  *expected = DecodeRows(*sat, answerer->dict());
  return Divergence::None();
}

/// Churns instance triples on the properties and classes the query names
/// (and the scenario's other properties, which include their
/// subproperties): a sealed run of inserts and removals, then a head with
/// more of both — so interval atoms read every kind of generation.
/// Deterministic in the scenario and the query.
Status Churn(const Scenario& sc, const query::Cq& scenario_q,
             api::QueryAnswerer* answerer) {
  std::vector<rdf::TermId> properties = sc.properties;
  std::vector<rdf::TermId> classes = sc.classes;
  for (const query::Atom& atom : scenario_q.body()) {
    if (atom.p.is_var) continue;
    if (atom.p.term() != rdf::vocab::kTypeId) {
      properties.push_back(atom.p.term());
    } else if (!atom.o.is_var) {
      classes.push_back(atom.o.term());
    }
  }
  if (sc.subjects.empty() || properties.empty()) return Status::OK();
  Rng rng(HashCombine(HashCombine(0xc4a2, sc.data_triples.size()),
                      scenario_q.body().size()));
  auto pick = [&rng](const std::vector<rdf::TermId>& pool) {
    return pool[rng.Uniform(pool.size())];
  };
  auto translate = [&](const rdf::Triple& t) {
    return TranslateTriple(t, sc.graph.dict(), &answerer->dict());
  };
  auto apply = [&](int inserts, int removals) -> Status {
    for (int i = 0; i < inserts; ++i) {
      const rdf::Triple t =
          !classes.empty() && rng.Chance(0.4)
              ? rdf::Triple(pick(sc.subjects), rdf::vocab::kTypeId,
                            pick(classes))
              : rdf::Triple(pick(sc.subjects), pick(properties),
                            pick(sc.subjects));
      RDFREF_RETURN_NOT_OK(answerer->InsertTriple(translate(t)));
    }
    for (int i = 0; i < removals && !sc.data_triples.empty(); ++i) {
      const rdf::Triple t =
          translate(sc.data_triples[rng.Uniform(sc.data_triples.size())]);
      if (!answerer->versions().Contains(t)) continue;  // drawn twice
      RDFREF_RETURN_NOT_OK(answerer->RemoveTriple(t));
    }
    return Status::OK();
  };
  RDFREF_RETURN_NOT_OK(apply(4, 3));
  answerer->versions().Freeze();
  return apply(3, 2);
}

}  // namespace

Divergence CheckEncodedEquivalence(const Scenario& sc,
                                   const query::Cq& scenario_q) {
  api::QueryAnswerer answerer(sc.graph.Clone());
  query::Cq q = TranslateQuery(scenario_q, sc.graph.dict(), &answerer.dict());

  // Phase 1: the load-time encoding. Interval reformulation must be
  // answer-set-equal to the classic UCQ members it fused away.
  std::set<DecodedRow> expected;
  Divergence d = GroundTruth(&answerer, q, "load", &expected);
  if (d.found) return d;
  d = CompareModes(&answerer, q, expected, "load");
  if (d.found) return d;

  // Phase 2: churn instance triples into a sealed run and the head, then
  // compare on one pinned snapshot. Interval atoms must read every
  // generation's matches, with removals filtered, exactly as classic
  // members and saturation see them.
  Status churned = Churn(sc, scenario_q, &answerer);
  if (!churned.ok()) {
    return Divergence::Of("encoded:churn",
                          "update failed: " + churned.ToString());
  }
  storage::SnapshotPtr pinned = answerer.PinSnapshot();
  d = GroundTruth(&answerer, q, "churn", &expected);
  if (d.found) return d;
  d = CompareModes(&answerer, q, expected, "churn", pinned);
  if (d.found) return d;

  // Phase 3: grow the schema after load. The new edge escapes the frozen
  // intervals (classic-member fallback); existing intervals must stay sound.
  if (sc.classes.size() >= 2) {
    rdf::Triple edge(sc.classes[0], rdf::vocab::kSubClassOfId,
                     sc.classes[sc.classes.size() / 2]);
    Status st = answerer.InsertTriple(
        TranslateTriple(edge, sc.graph.dict(), &answerer.dict()));
    if (!st.ok()) {
      return Divergence::Of("encoded:schema-insert",
                            "insert failed: " + st.ToString());
    }
    d = GroundTruth(&answerer, q, "schema-insert", &expected);
    if (d.found) return d;
    d = CompareModes(&answerer, q, expected, "schema-insert");
    if (d.found) return d;
  }

  // Phase 4: re-encode at a compaction point. Every id moves again; the
  // escaped edge from phase 3 is folded into fresh intervals. The query is
  // re-translated — all pre-Reencode TermIds are invalidated by contract.
  answerer.Reencode();
  q = TranslateQuery(scenario_q, sc.graph.dict(), &answerer.dict());
  d = GroundTruth(&answerer, q, "reencode", &expected);
  if (d.found) return d;
  return CompareModes(&answerer, q, expected, "reencode");
}

}  // namespace testing
}  // namespace rdfref
