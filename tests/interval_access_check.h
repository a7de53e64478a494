// Interval access-path property shared by store_test and snapshot_test:
// every interval pattern shape — subject, property and object each bound
// or free, with the range on the property or on the object — answered by
// a TripleSource must equal a brute-force filter of the visible triples.

#ifndef RDFREF_TESTS_INTERVAL_ACCESS_CHECK_H_
#define RDFREF_TESTS_INTERVAL_ACCESS_CHECK_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "rdf/graph.h"
#include "rdf/triple.h"
#include "storage/store.h"
#include "storage/triple_source.h"

namespace rdfref {
namespace storage {
namespace interval_check {

// A small graph whose subject, property and object ids interleave (s0 p0
// o0 s1 p1 o1 ...), so every id interval spans several kinds of term, plus
// seeded random triples over them. `ids` receives every interned id in
// order; the last four (s9 p9 o9 x9) occur in no triple, for overlays and
// misses.
struct IntervalGraph {
  rdf::Graph graph;
  std::vector<rdf::TermId> ids, subjects, properties, objects;

  explicit IntervalGraph(uint64_t seed, int triples = 40) {
    auto uri = [&](const std::string& name) {
      const rdf::TermId id = graph.dict().InternUri("http://ex/" + name);
      ids.push_back(id);
      return id;
    };
    for (int i = 0; i < 4; ++i) {
      subjects.push_back(uri("s" + std::to_string(i)));
      properties.push_back(uri("p" + std::to_string(i)));
      objects.push_back(uri("o" + std::to_string(i)));
    }
    uri("s9");
    uri("p9");
    uri("o9");
    uri("x9");
    uint64_t state = seed * 0x9E3779B97F4A7C15ULL + 1;
    auto next = [&](size_t n) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      return static_cast<size_t>((state >> 33) % n);
    };
    for (int k = 0; k < triples; ++k) {
      graph.Add(subjects[next(4)], properties[next(4)], objects[next(4)]);
    }
  }

  rdf::TermId id(const std::string& name) {
    return graph.dict().InternUri("http://ex/" + name);
  }
};

// The matches of an interval pattern among `visible`, in SPO order.
inline std::vector<rdf::Triple> BruteForce(
    const std::vector<rdf::Triple>& visible, rdf::TermId s, rdf::TermId p,
    rdf::TermId o, int range_pos, rdf::TermId hi) {
  std::vector<rdf::Triple> out;
  for (const rdf::Triple& t : visible) {
    if (MatchesPattern(t, s, p, o, range_pos, hi)) out.push_back(t);
  }
  std::sort(out.begin(), out.end());
  return out;
}

inline std::string Describe(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                            int range_pos, rdf::TermId hi) {
  auto id = [](rdf::TermId v) {
    return v == kAny ? std::string("?") : std::to_string(v);
  };
  std::string lo_hi = "[" + (range_pos == kIntervalP ? id(p) : id(o)) +
                      ".." + id(hi) + "]";
  return "(" + id(s) + " " + (range_pos == kIntervalP ? lo_hi : id(p)) + " " +
         (range_pos == kIntervalO ? lo_hi : id(o)) + ")";
}

// Checks one interval pattern: TryGetIntervalRange's set (when it
// succeeds), the hinted lookup (same outcome and same span as unhinted),
// ScanIntervalInto's exact SPO sequence and CountIntervalMatches. Returns
// whether the zero-copy path served it.
inline bool CheckPattern(const TripleSource& source,
                         const std::vector<rdf::Triple>& visible,
                         rdf::TermId s, rdf::TermId p, rdf::TermId o,
                         int range_pos, rdf::TermId hi, RangeHint* hint) {
  const std::string what = Describe(s, p, o, range_pos, hi);
  const std::vector<rdf::Triple> expected =
      BruteForce(visible, s, p, o, range_pos, hi);

  std::span<const rdf::Triple> range;
  const bool zero_copy =
      source.TryGetIntervalRange(s, p, o, range_pos, hi, &range);
  if (zero_copy) {
    std::vector<rdf::Triple> got(range.begin(), range.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "TryGetIntervalRange " << what;
  }
  std::span<const rdf::Triple> hinted;
  const bool hinted_ok =
      source.TryGetIntervalRangeHinted(s, p, o, range_pos, hi, &hinted, hint);
  EXPECT_EQ(hinted_ok, zero_copy) << "TryGetIntervalRangeHinted " << what;
  if (hinted_ok && zero_copy) {
    EXPECT_EQ(hinted.data(), range.data()) << "hinted span " << what;
    EXPECT_EQ(hinted.size(), range.size()) << "hinted span " << what;
  }

  std::vector<rdf::Triple> scanned = {rdf::Triple(1, 2, 3)};  // must clear
  source.ScanIntervalInto(s, p, o, range_pos, hi, &scanned);
  EXPECT_EQ(scanned, expected) << "ScanIntervalInto (SPO order) " << what;
  EXPECT_EQ(source.CountIntervalMatches(s, p, o, range_pos, hi),
            expected.size())
      << "CountIntervalMatches " << what;
  return zero_copy;
}

// Sweeps every interval shape over `ids` (bound values and interval
// endpoints; include ids absent from the data too). One hint is carried
// through the whole sweep, so it sees monotone, backward and cross-index
// sequences. With `zero_copy_when_contiguous`, every shape a clustered
// Store order holds contiguously must be served zero-copy (a Store, or a
// snapshot whose overlays cannot touch the sweep). Returns the number of
// patterns served zero-copy.
inline size_t CheckAllShapes(const TripleSource& source,
                             const std::vector<rdf::Triple>& visible,
                             const std::vector<rdf::TermId>& ids,
                             bool zero_copy_when_contiguous) {
  std::vector<rdf::TermId> bound = ids;
  bound.push_back(kAny);
  RangeHint hint;
  size_t served = 0;
  for (int range_pos : {kIntervalP, kIntervalO}) {
    for (rdf::TermId s : bound) {
      for (rdf::TermId other : bound) {
        for (rdf::TermId lo : ids) {
          for (rdf::TermId hi : ids) {
            if (hi < lo) continue;
            const rdf::TermId p = range_pos == kIntervalP ? lo : other;
            const rdf::TermId o = range_pos == kIntervalO ? lo : other;
            const bool zero_copy =
                CheckPattern(source, visible, s, p, o, range_pos, hi, &hint);
            if (zero_copy) ++served;
            if (zero_copy_when_contiguous &&
                Store::IntervalIsContiguous(s, p, o, range_pos)) {
              EXPECT_TRUE(zero_copy)
                  << "contiguous shape not zero-copy: "
                  << Describe(s, p, o, range_pos, hi);
            }
          }
        }
      }
    }
  }
  return served;
}

// Hinted interval lookups equal unhinted ones along a monotone sequence
// (subjects ascending), a backward one (descending), and with a hint
// carried over from another index (a classic PSO lookup, then an OSP
// interval lookup, then SPO again).
inline void CheckHintSequences(const TripleSource& source,
                               const std::vector<rdf::TermId>& ascending,
                               rdf::TermId lo, rdf::TermId hi) {
  auto same = [&](rdf::TermId s, rdf::TermId p, rdf::TermId o, int range_pos,
                  rdf::TermId range_hi, RangeHint* hint) {
    std::span<const rdf::Triple> plain, hinted;
    const bool a =
        source.TryGetIntervalRange(s, p, o, range_pos, range_hi, &plain);
    const bool b = source.TryGetIntervalRangeHinted(s, p, o, range_pos,
                                                    range_hi, &hinted, hint);
    EXPECT_EQ(a, b) << Describe(s, p, o, range_pos, range_hi);
    if (a && b) {
      EXPECT_EQ(plain.data(), hinted.data())
          << Describe(s, p, o, range_pos, range_hi);
      EXPECT_EQ(plain.size(), hinted.size())
          << Describe(s, p, o, range_pos, range_hi);
    }
  };
  RangeHint monotone;
  for (rdf::TermId s : ascending) {
    same(s, lo, kAny, kIntervalP, hi, &monotone);
    same(s, lo, kAny, kIntervalP, hi, &monotone);  // repeated prefix
  }
  RangeHint backward;
  for (auto it = ascending.rbegin(); it != ascending.rend(); ++it) {
    same(*it, lo, kAny, kIntervalP, hi, &backward);
  }
  RangeHint carried;
  std::span<const rdf::Triple> classic;
  source.TryGetRangeHinted(kAny, lo, kAny, &classic, &carried);  // PSO
  for (rdf::TermId s : ascending) {
    same(s, lo, ascending.back(), kIntervalP, hi, &carried);  // OSP
    same(s, lo, kAny, kIntervalP, hi, &carried);              // SPO
    same(kAny, kAny, lo, kIntervalO, hi, &carried);           // OSP
  }
}

}  // namespace interval_check
}  // namespace storage
}  // namespace rdfref

#endif  // RDFREF_TESTS_INTERVAL_ACCESS_CHECK_H_
