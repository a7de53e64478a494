#ifndef RDFREF_PERFBENCH_COUNTING_SOURCE_H_
#define RDFREF_PERFBENCH_COUNTING_SOURCE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "storage/triple_source.h"

namespace perfbench {

/// \brief Access-path counters of one CountingSource.
struct StorageCounters {
  uint64_t range_calls = 0;         ///< TryGetRange calls
  uint64_t hinted_calls = 0;        ///< TryGetRangeHinted calls
  uint64_t range_zero_copy = 0;     ///< ...of the two above that succeeded
  uint64_t interval_calls = 0;      ///< TryGetIntervalRange calls
  uint64_t interval_zero_copy = 0;  ///< ...that succeeded
  uint64_t interval_fallback = 0;   ///< ScanIntervalInto calls
  uint64_t scan_into_calls = 0;     ///< ScanInto calls
  uint64_t count_calls = 0;         ///< CountMatches + CountIntervalMatches
  uint64_t triples_touched = 0;     ///< triples in every returned range/buffer

  void Add(const StorageCounters& o) {
    range_calls += o.range_calls;
    hinted_calls += o.hinted_calls;
    range_zero_copy += o.range_zero_copy;
    interval_calls += o.interval_calls;
    interval_zero_copy += o.interval_zero_copy;
    interval_fallback += o.interval_fallback;
    scan_into_calls += o.scan_into_calls;
    count_calls += o.count_calls;
    triples_touched += o.triples_touched;
  }

  /// Share of batch lookups served zero-copy (0 when there were none).
  double zero_copy_ratio() const {
    const uint64_t lookups = range_calls + hinted_calls + interval_calls;
    return lookups == 0 ? 0.0
                        : static_cast<double>(range_zero_copy +
                                              interval_zero_copy) /
                              static_cast<double>(lookups);
  }
};

/// \brief A TripleSource that forwards every virtual method to another
/// source and counts each call by access path. Every method is forwarded —
/// including the ones with base-class defaults — so the wrapped source's
/// own overrides (and its own defaults, which call its own virtuals) run
/// exactly as they would unwrapped: the evaluator sees the same spans,
/// the same fallbacks and the same rows.
class CountingSource : public rdfref::storage::TripleSource {
 public:
  explicit CountingSource(const rdfref::storage::TripleSource* inner)
      : inner_(inner) {}

  CountingSource(const CountingSource&) = delete;
  CountingSource& operator=(const CountingSource&) = delete;

  void Scan(rdfref::rdf::TermId s, rdfref::rdf::TermId p,
            rdfref::rdf::TermId o,
            const std::function<void(const rdfref::rdf::Triple&)>& fn)
      const override {  // rdfref-check: allow(std-function)
    inner_->Scan(s, p, o, [&](const rdfref::rdf::Triple& t) {
      Bump(triples_touched_);
      fn(t);
    });
  }

  bool TryGetRange(rdfref::rdf::TermId s, rdfref::rdf::TermId p,
                   rdfref::rdf::TermId o,
                   std::span<const rdfref::rdf::Triple>* out) const override {
    Bump(range_calls_);
    const bool ok = inner_->TryGetRange(s, p, o, out);
    if (ok) Served(out->size(), range_zero_copy_);
    return ok;
  }

  bool TryGetRangeHinted(rdfref::rdf::TermId s, rdfref::rdf::TermId p,
                         rdfref::rdf::TermId o,
                         std::span<const rdfref::rdf::Triple>* out,
                         rdfref::storage::RangeHint* hint) const override {
    Bump(hinted_calls_);
    const bool ok = inner_->TryGetRangeHinted(s, p, o, out, hint);
    if (ok) Served(out->size(), range_zero_copy_);
    return ok;
  }

  void ScanInto(rdfref::rdf::TermId s, rdfref::rdf::TermId p,
                rdfref::rdf::TermId o,
                std::vector<rdfref::rdf::Triple>* out) const override {
    Bump(scan_into_calls_);
    inner_->ScanInto(s, p, o, out);
    Add(triples_touched_, out->size());
  }

  size_t CountMatches(rdfref::rdf::TermId s, rdfref::rdf::TermId p,
                      rdfref::rdf::TermId o) const override {
    Bump(count_calls_);
    return inner_->CountMatches(s, p, o);
  }

  bool TryGetIntervalRange(
      rdfref::rdf::TermId s, rdfref::rdf::TermId p, rdfref::rdf::TermId o,
      int range_pos, rdfref::rdf::TermId hi,
      std::span<const rdfref::rdf::Triple>* out) const override {
    Bump(interval_calls_);
    const bool ok = inner_->TryGetIntervalRange(s, p, o, range_pos, hi, out);
    if (ok) Served(out->size(), interval_zero_copy_);
    return ok;
  }

  void ScanIntervalInto(rdfref::rdf::TermId s, rdfref::rdf::TermId p,
                        rdfref::rdf::TermId o, int range_pos,
                        rdfref::rdf::TermId hi,
                        std::vector<rdfref::rdf::Triple>* out) const override {
    Bump(interval_fallback_);
    inner_->ScanIntervalInto(s, p, o, range_pos, hi, out);
    Add(triples_touched_, out->size());
  }

  size_t CountIntervalMatches(rdfref::rdf::TermId s, rdfref::rdf::TermId p,
                              rdfref::rdf::TermId o, int range_pos,
                              rdfref::rdf::TermId hi) const override {
    Bump(count_calls_);
    return inner_->CountIntervalMatches(s, p, o, range_pos, hi);
  }

  const rdfref::rdf::Dictionary& dict() const override {
    return inner_->dict();
  }

  StorageCounters counters() const {
    StorageCounters c;
    c.range_calls = range_calls_.load();
    c.hinted_calls = hinted_calls_.load();
    c.range_zero_copy = range_zero_copy_.load();
    c.interval_calls = interval_calls_.load();
    c.interval_zero_copy = interval_zero_copy_.load();
    c.interval_fallback = interval_fallback_.load();
    c.scan_into_calls = scan_into_calls_.load();
    c.count_calls = count_calls_.load();
    c.triples_touched = triples_touched_.load();
    return c;
  }

 private:
  using Counter = std::atomic<uint64_t>;

  static void Bump(Counter& c) { c.fetch_add(1, std::memory_order_relaxed); }
  static void Add(Counter& c, uint64_t n) {
    c.fetch_add(n, std::memory_order_relaxed);
  }
  void Served(size_t triples, Counter& zero_copy) const {
    Bump(zero_copy);
    Add(triples_touched_, triples);
  }

  const rdfref::storage::TripleSource* inner_;
  mutable Counter range_calls_{0};
  mutable Counter hinted_calls_{0};
  mutable Counter range_zero_copy_{0};
  mutable Counter interval_calls_{0};
  mutable Counter interval_zero_copy_{0};
  mutable Counter interval_fallback_{0};
  mutable Counter scan_into_calls_{0};
  mutable Counter count_calls_{0};
  mutable Counter triples_touched_{0};
};

}  // namespace perfbench

#endif  // RDFREF_PERFBENCH_COUNTING_SOURCE_H_
