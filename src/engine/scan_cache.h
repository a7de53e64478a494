#ifndef RDFREF_ENGINE_SCAN_CACHE_H_
#define RDFREF_ENGINE_SCAN_CACHE_H_

#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/hash.h"
#include "common/synchronization.h"
#include "rdf/triple.h"
#include "storage/triple_source.h"

namespace rdfref {
namespace engine {

/// \brief Per-query scan memo shared across the members of one UCQ (or all
/// fragment UCQs of one JUCQ).
///
/// Reformulation unions are massively redundant: the members of a
/// reformulated UCQ share most of their atoms (Example 1's 318,096-CQ
/// reformulation touches a handful of distinct properties), so the same
/// bound pattern is counted by OrderAtoms and range-scanned at join depth 0
/// over and over — once per member in the seed engine. The ScanCache keys
/// both on the bound `(s, p, o)` pattern:
///
///  - `CountMatches` memoizes the source's cardinality answers, so a
///    462-member UCQ pays one count per *distinct* pattern instead of one
///    per member atom (this matters most for the federation mediator, where
///    a count is a per-endpoint fan-out);
///  - `LeafRange` memoizes materialized leaf scans for sources that cannot
///    expose a contiguous range (overlay and mediator sources). Range-
///    capable sources bypass the cache entirely — their span is already
///    zero-copy and caching it would only add a lock.
///
/// Thread-safety: all methods are const and safe to call concurrently; the
/// parallel UCQ chunk path and the parallel JUCQ fragment path share one
/// cache instance. Returned spans stay valid for the cache's lifetime:
/// materialized scans are held behind unique_ptr, never erased, and a map
/// rehash does not move the pointed-to vectors. Misses are materialized
/// OUTSIDE the lock (a federation scan can take milliseconds and must not
/// serialize sibling chunks); on a racing double-materialization the first
/// insert wins and the loser's buffer is discarded.
///
/// Deadline/cancellation interaction: a cache fill is one source-level
/// batch scan, which is not cancellable mid-pattern — exactly like the
/// seed engine's Scan callbacks. Cancellation is polled by the evaluator
/// between pattern scans (every kCancelStride consumed triples), so an
/// expired deadline aborts after the current pattern, never mid-buffer.
class ScanCache {
 public:
  /// \brief `source` must outlive the cache.
  explicit ScanCache(const storage::TripleSource* source) : source_(source) {}

  ScanCache(const ScanCache&) = delete;
  ScanCache& operator=(const ScanCache&) = delete;

  /// \brief Memoized source->CountMatches(s, p, o).
  size_t CountMatches(rdf::TermId s, rdf::TermId p, rdf::TermId o) const
      RDFREF_EXCLUDES(mu_);

  /// \brief Memoized source->CountIntervalMatches: the interval-atom
  /// analogue, keyed on (pattern, range_pos, hi) so classic and interval
  /// probes of the same bound pattern never collide.
  size_t CountIntervalMatches(rdf::TermId s, rdf::TermId p, rdf::TermId o,
                              int range_pos, rdf::TermId hi) const
      RDFREF_EXCLUDES(mu_);

  /// \brief All matches of the pattern as a contiguous span: zero-copy
  /// when the source is range-capable, otherwise materialized once per
  /// distinct pattern and shared by every later caller (and every thread).
  std::span<const rdf::Triple> LeafRange(rdf::TermId s, rdf::TermId p,
                                         rdf::TermId o) const
      RDFREF_LIFETIME_BOUND RDFREF_EXCLUDES(mu_);

  /// \brief Interval analogue of LeafRange: zero-copy when the source
  /// exposes the interval contiguously, else one shared materialization of
  /// the source's ScanIntervalInto per distinct interval pattern (a filtered
  /// prefix block, or a per-generation snapshot merge; DESIGN.md §12.2).
  std::span<const rdf::Triple> LeafIntervalRange(rdf::TermId s, rdf::TermId p,
                                                 rdf::TermId o, int range_pos,
                                                 rdf::TermId hi) const
      RDFREF_LIFETIME_BOUND RDFREF_EXCLUDES(mu_);

  const storage::TripleSource& source() const RDFREF_LIFETIME_BOUND {
    return *source_;
  }

  /// \brief Introspection for tests: distinct patterns memoized so far.
  size_t num_cached_counts() const RDFREF_EXCLUDES(mu_) {
    common::MutexLock lock(&mu_);
    return counts_.size();
  }
  size_t num_cached_leaves() const RDFREF_EXCLUDES(mu_) {
    common::MutexLock lock(&mu_);
    return leaves_.size();
  }

 private:
  struct PatternKey {
    rdf::TermId s, p, o;
    // Interval annotation; 3 (query::Atom::kRangeNone) + 0 for classic
    // patterns, so classic and interval entries share one map without
    // colliding.
    int range_pos = 3;
    rdf::TermId range_hi = 0;
    friend bool operator==(const PatternKey& a, const PatternKey& b) {
      return a.s == b.s && a.p == b.p && a.o == b.o &&
             a.range_pos == b.range_pos && a.range_hi == b.range_hi;
    }
  };
  struct PatternKeyHash {
    size_t operator()(const PatternKey& k) const {
      size_t h = HashCombine(HashCombine(HashCombine(0x5ca9c4a3, k.s), k.p), k.o);
      return HashCombine(HashCombine(h, static_cast<size_t>(k.range_pos)),
                         k.range_hi);
    }
  };

  const storage::TripleSource* source_;
  mutable common::Mutex mu_;
  mutable std::unordered_map<PatternKey, size_t, PatternKeyHash> counts_
      RDFREF_GUARDED_BY(mu_);
  // unique_ptr: span stability across rehash; entries are never erased.
  mutable std::unordered_map<PatternKey,
                             std::unique_ptr<std::vector<rdf::Triple>>,
                             PatternKeyHash>
      leaves_ RDFREF_GUARDED_BY(mu_);
};

}  // namespace engine
}  // namespace rdfref

#endif  // RDFREF_ENGINE_SCAN_CACHE_H_
