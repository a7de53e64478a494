#include "schema/encoder.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "api/query_answering.h"
#include "query/cq.h"
#include "rdf/encoding.h"
#include "rdf/graph.h"
#include "rdf/vocab.h"
#include "reformulation/reformulator.h"

namespace rdfref {
namespace schema {
namespace {

namespace vocab = rdf::vocab;

/// SELECT ?x WHERE { ?x rdf:type <cls> . } against an already-constructed
/// answerer (the constant interned post-encoding).
query::Cq TypeQuery(api::QueryAnswerer* answerer, const std::string& cls) {
  query::Cq q;
  query::VarId x = q.AddVar("x");
  q.AddAtom(query::Atom(query::QTerm::Var(x),
                        query::QTerm::Const(vocab::kTypeId),
                        query::QTerm::Const(answerer->dict().InternUri(cls))));
  q.AddHead(query::QTerm::Var(x));
  return q;
}

/// SELECT ?s ?o WHERE { ?s <prop> ?o . }
query::Cq PropQuery(api::QueryAnswerer* answerer, const std::string& prop) {
  query::Cq q;
  query::VarId s = q.AddVar("s");
  query::VarId o = q.AddVar("o");
  q.AddAtom(query::Atom(
      query::QTerm::Var(s),
      query::QTerm::Const(answerer->dict().InternUri(prop)),
      query::QTerm::Var(o)));
  q.AddHead(query::QTerm::Var(s));
  q.AddHead(query::QTerm::Var(o));
  return q;
}

/// The answer set of q under interval reformulation must equal the classic
/// UCQ reformulation and saturation ground truth.
void ExpectEncodedEqualsClassic(api::QueryAnswerer* answerer,
                                const query::Cq& q) {
  auto sat = answerer->Answer(q, api::Strategy::kSaturation);
  ASSERT_TRUE(sat.ok()) << sat.status();
  api::AnswerOptions classic;
  classic.reform.use_encoding = false;
  auto fused = answerer->Answer(q, api::Strategy::kRefUcq);
  auto plain = answerer->Answer(q, api::Strategy::kRefUcq, nullptr, classic);
  ASSERT_TRUE(fused.ok()) << fused.status();
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_EQ(fused->RowSet(), sat->RowSet());
  EXPECT_EQ(plain->RowSet(), sat->RowSet());
}

TEST(EncoderTest, CycleMembersShareOneInterval) {
  // The seed-231 family: a subClassOf cycle entails reflexive pairs; the
  // encoder must condense the cycle into a single SCC with ONE interval.
  rdf::Graph g;
  rdf::TermId c0 = g.dict().InternUri("http://t/C0");
  rdf::TermId c3 = g.dict().InternUri("http://t/C3");
  g.Add(c0, vocab::kSubClassOfId, c3);
  g.Add(c3, vocab::kSubClassOfId, c0);
  rdf::TermId s = g.dict().InternUri("http://t/s");
  g.Add(s, vocab::kTypeId, c0);

  EncodingResult result = EncodeGraphHierarchy(&g);
  EXPECT_EQ(result.report.classes_encoded, 2u);
  EXPECT_EQ(result.report.class_cycles, 1u);

  const rdf::TermEncoding* enc = g.dict().encoding();
  ASSERT_NE(enc, nullptr);
  rdf::TermId nc0 = result.old_to_new[c0];
  rdf::TermId nc3 = result.old_to_new[c3];
  auto i0 = enc->ClassInterval(nc0);
  auto i3 = enc->ClassInterval(nc3);
  ASSERT_TRUE(i0.has_value());
  ASSERT_TRUE(i3.has_value());
  EXPECT_EQ(*i0, *i3);  // the cycle shares one interval, it does not diverge
  EXPECT_EQ(enc->SccRepresentative(nc0), enc->SccRepresentative(nc3));
  // Both members' ids lie inside the shared interval.
  EXPECT_LE(i0->lo, nc0);
  EXPECT_LE(nc0, i0->hi);
  EXPECT_LE(i0->lo, nc3);
  EXPECT_LE(nc3, i0->hi);

  api::QueryAnswerer answerer(std::move(g));
  query::Cq q = TypeQuery(&answerer, "http://t/C3");
  ExpectEncodedEqualsClassic(&answerer, q);
  auto table = answerer.Answer(q, api::Strategy::kRefUcq);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->NumRows(), 1u);  // s : C0 ⊑ C3 via the cycle
}

TEST(EncoderTest, DiamondMultiParentEscapesButStaysComplete) {
  // A ⊑ B, A ⊑ C, B ⊑ D, C ⊑ D: A has two direct super-SCCs, so one of
  // B/C cannot cover A in its interval — the reformulator must emit a
  // classic member for the escapee and answers must not change.
  rdf::Graph g;
  rdf::TermId a = g.dict().InternUri("http://t/A");
  rdf::TermId b = g.dict().InternUri("http://t/B");
  rdf::TermId c = g.dict().InternUri("http://t/C");
  rdf::TermId d = g.dict().InternUri("http://t/D");
  g.Add(a, vocab::kSubClassOfId, b);
  g.Add(a, vocab::kSubClassOfId, c);
  g.Add(b, vocab::kSubClassOfId, d);
  g.Add(c, vocab::kSubClassOfId, d);
  rdf::TermId x = g.dict().InternUri("http://t/x");
  g.Add(x, vocab::kTypeId, a);

  EncodingResult result = EncodeGraphHierarchy(&g);
  EXPECT_EQ(result.report.classes_encoded, 4u);
  EXPECT_EQ(result.report.multi_parent_classes, 1u);  // A

  api::QueryAnswerer answerer(std::move(g));
  for (const char* cls :
       {"http://t/A", "http://t/B", "http://t/C", "http://t/D"}) {
    query::Cq q = TypeQuery(&answerer, cls);
    ExpectEncodedEqualsClassic(&answerer, q);
    auto table = answerer.Answer(q, api::Strategy::kRefUcq);
    ASSERT_TRUE(table.ok());
    EXPECT_EQ(table->NumRows(), 1u) << cls;  // x is in every class via A
  }
}

TEST(EncoderTest, FusedIntervalReplacesTheClassicMemberItCovers) {
  // C0 ⊑ C1 ⊑ C2 and q ⊑ p: the interval of C2 (and of p) holds the term
  // itself, so its classic member would only retrieve a subset of the
  // interval member's rows — each union is exactly one interval member.
  rdf::Graph g;
  std::vector<rdf::TermId> cls;
  for (int i = 0; i < 3; ++i) {
    cls.push_back(g.dict().InternUri("http://t/C" + std::to_string(i)));
  }
  g.Add(cls[0], vocab::kSubClassOfId, cls[1]);
  g.Add(cls[1], vocab::kSubClassOfId, cls[2]);
  rdf::TermId p = g.dict().InternUri("http://t/p");
  rdf::TermId q = g.dict().InternUri("http://t/q");
  g.Add(q, vocab::kSubPropertyOfId, p);
  rdf::TermId i0 = g.dict().InternUri("http://t/i0");
  rdf::TermId i1 = g.dict().InternUri("http://t/i1");
  g.Add(i0, vocab::kTypeId, cls[0]);
  g.Add(i1, vocab::kTypeId, cls[2]);
  g.Add(i0, q, i1);
  g.Add(i1, p, i0);

  api::QueryAnswerer answerer(std::move(g));
  reformulation::Reformulator ref(&answerer.schema(), {}, &answerer.dict());
  for (const query::Cq& single :
       {TypeQuery(&answerer, "http://t/C2"), PropQuery(&answerer, "http://t/p")}) {
    auto ucq = ref.Reformulate(single);
    ASSERT_TRUE(ucq.ok()) << ucq.status();
    ASSERT_EQ(ucq->size(), 1u);
    EXPECT_TRUE(ucq->members()[0].body()[0].has_range());
    ExpectEncodedEqualsClassic(&answerer, single);
  }

  // In a product, every member keeps the one interval member of ?x p ?o.
  query::Cq q6;
  query::VarId x = q6.AddVar("x");
  query::VarId u = q6.AddVar("u");
  query::VarId z = q6.AddVar("z");
  q6.AddAtom(query::Atom(query::QTerm::Var(x),
                         query::QTerm::Const(vocab::kTypeId),
                         query::QTerm::Var(u)));
  q6.AddAtom(query::Atom(query::QTerm::Var(x),
                         query::QTerm::Const(answerer.dict().InternUri(
                             "http://t/p")),
                         query::QTerm::Var(z)));
  q6.AddHead(query::QTerm::Var(x));
  q6.AddHead(query::QTerm::Var(u));
  q6.AddHead(query::QTerm::Var(z));
  auto ucq = ref.Reformulate(q6);
  ASSERT_TRUE(ucq.ok()) << ucq.status();
  for (const query::Cq& member : ucq->members()) {
    EXPECT_TRUE(member.body()[1].has_range()) << member.ToString(answerer.dict());
  }
  ExpectEncodedEqualsClassic(&answerer, q6);
}

TEST(EncoderTest, OverBudgetHierarchyFallsBackToClassic) {
  rdf::Graph g;
  rdf::TermId top = g.dict().InternUri("http://t/Top");
  for (int i = 0; i < 8; ++i) {
    rdf::TermId c = g.dict().InternUri("http://t/C" + std::to_string(i));
    g.Add(c, vocab::kSubClassOfId, top);
    rdf::TermId inst = g.dict().InternUri("http://t/i" + std::to_string(i));
    g.Add(inst, vocab::kTypeId, c);
  }
  // Also a small property hierarchy that stays under budget.
  rdf::TermId p = g.dict().InternUri("http://t/p");
  rdf::TermId q_ = g.dict().InternUri("http://t/q");
  g.Add(q_, vocab::kSubPropertyOfId, p);
  g.Add(g.dict().InternUri("http://t/i0"), q_,
        g.dict().InternUri("http://t/i1"));

  EncoderOptions options;
  options.max_hierarchy_terms = 4;  // class hierarchy (9 terms) blows this
  EncodingResult result = EncodeGraphHierarchy(&g, options);
  EXPECT_EQ(result.report.classes_encoded, 0u);
  EXPECT_GT(result.report.classes_skipped, 0u);
  EXPECT_EQ(result.report.properties_encoded, 2u);  // p, q under budget

  const rdf::TermEncoding* enc = g.dict().encoding();
  ASSERT_NE(enc, nullptr);
  EXPECT_FALSE(enc->ClassInterval(result.old_to_new[top]).has_value());

  api::QueryAnswerer answerer(std::move(g), options);
  query::Cq tq = TypeQuery(&answerer, "http://t/Top");
  ExpectEncodedEqualsClassic(&answerer, tq);
  auto table = answerer.Answer(tq, api::Strategy::kRefUcq);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->NumRows(), 8u);
  query::Cq pq = PropQuery(&answerer, "http://t/p");
  ExpectEncodedEqualsClassic(&answerer, pq);
}

TEST(EncoderTest, EmptySchemaLeavesDictionaryUnencoded) {
  rdf::Graph g;
  rdf::TermId s = g.dict().InternUri("http://t/s");
  rdf::TermId p = g.dict().InternUri("http://t/p");
  rdf::TermId o = g.dict().InternUri("http://t/o");
  g.Add(s, p, o);

  EncodingResult result = EncodeGraphHierarchy(&g);
  EXPECT_EQ(result.report.classes_encoded, 0u);
  EXPECT_EQ(result.report.properties_encoded, 0u);
  // Identity permutation, no encoding attached (empty() tables are not
  // installed — downstream checks stay on the classic fast path).
  for (rdf::TermId id = 0; id < result.old_to_new.size(); ++id) {
    EXPECT_EQ(result.old_to_new[id], id);
  }
  EXPECT_EQ(g.dict().encoding(), nullptr);

  api::QueryAnswerer answerer(std::move(g));
  query::Cq q = PropQuery(&answerer, "http://t/p");
  ExpectEncodedEqualsClassic(&answerer, q);
}

TEST(EncoderTest, ClosureInputLaysOutLikeDirectInput) {
  // Reencode() reads the *saturated* schema back from the stored triples;
  // the encoder's transitive reduction must recover the Hasse diagram so a
  // closure input produces the same intervals as the direct input.
  auto build = [](bool closed) {
    rdf::Graph g;
    rdf::TermId a = g.dict().InternUri("http://t/A");
    rdf::TermId b = g.dict().InternUri("http://t/B");
    rdf::TermId c = g.dict().InternUri("http://t/C");
    g.Add(a, vocab::kSubClassOfId, b);
    g.Add(b, vocab::kSubClassOfId, c);
    if (closed) {
      g.Add(a, vocab::kSubClassOfId, c);  // the transitive edge
    }
    return g;
  };
  rdf::Graph direct = build(false);
  rdf::Graph closure = build(true);
  EncodingResult rd = EncodeGraphHierarchy(&direct);
  EncodingResult rc = EncodeGraphHierarchy(&closure);
  EXPECT_EQ(rd.report.multi_parent_classes, 0u);
  EXPECT_EQ(rc.report.multi_parent_classes, 0u);  // reduced away

  const rdf::TermEncoding* ed = direct.dict().encoding();
  const rdf::TermEncoding* ec = closure.dict().encoding();
  ASSERT_NE(ed, nullptr);
  ASSERT_NE(ec, nullptr);
  for (const char* cls : {"http://t/A", "http://t/B", "http://t/C"}) {
    rdf::TermId idd = direct.dict().InternUri(cls);
    rdf::TermId idc = closure.dict().InternUri(cls);
    EXPECT_EQ(idd, idc) << cls;  // same layout, term for term
    auto ivd = ed->ClassInterval(idd);
    auto ivc = ec->ClassInterval(idc);
    ASSERT_TRUE(ivd.has_value()) << cls;
    ASSERT_TRUE(ivc.has_value()) << cls;
    EXPECT_EQ(*ivd, *ivc) << cls;
  }
}

TEST(EncoderTest, IntervalsAreSoundAndSubtreesContiguous) {
  // A two-level tree: every parent's interval must cover exactly its
  // subtree (preorder contiguity), and disjoint siblings stay disjoint.
  rdf::Graph g;
  rdf::TermId root = g.dict().InternUri("http://t/Root");
  rdf::TermId l = g.dict().InternUri("http://t/L");
  rdf::TermId r = g.dict().InternUri("http://t/R");
  rdf::TermId l1 = g.dict().InternUri("http://t/L1");
  rdf::TermId l2 = g.dict().InternUri("http://t/L2");
  g.Add(l, vocab::kSubClassOfId, root);
  g.Add(r, vocab::kSubClassOfId, root);
  g.Add(l1, vocab::kSubClassOfId, l);
  g.Add(l2, vocab::kSubClassOfId, l);

  EncodingResult result = EncodeGraphHierarchy(&g);
  EXPECT_EQ(result.report.classes_encoded, 5u);
  const rdf::TermEncoding* enc = g.dict().encoding();
  ASSERT_NE(enc, nullptr);
  auto iv = [&](rdf::TermId old_id) {
    auto interval = enc->ClassInterval(result.old_to_new[old_id]);
    EXPECT_TRUE(interval.has_value());
    return *interval;
  };
  auto width = [](rdf::TermEncoding::Interval i) { return i.hi - i.lo + 1; };
  EXPECT_EQ(width(iv(root)), 5u);
  EXPECT_EQ(width(iv(l)), 3u);
  EXPECT_EQ(width(iv(r)), 1u);
  // Children nest inside parents; siblings are disjoint.
  EXPECT_GE(iv(l).lo, iv(root).lo);
  EXPECT_LE(iv(l).hi, iv(root).hi);
  EXPECT_GE(iv(l1).lo, iv(l).lo);
  EXPECT_LE(iv(l1).hi, iv(l).hi);
  EXPECT_TRUE(iv(l).hi < iv(r).lo || iv(r).hi < iv(l).lo);
}

}  // namespace
}  // namespace schema
}  // namespace rdfref
