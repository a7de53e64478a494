#ifndef RDFREF_WORKLOAD_WORKLOAD_H_
#define RDFREF_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/query_answering.h"
#include "common/result.h"
#include "datagen/sp2b.h"
#include "query/cover.h"
#include "query/cq.h"
#include "workload/histogram.h"

namespace rdfref {
namespace workload {

/// \brief One named query of a mix, with a relative weight (how often the
/// closed-loop clients draw it) and an optional JUCQ cover (used by
/// Strategy::kRefJucq; strategies that pick their own cover ignore it, and
/// a query without one falls back to the single-fragment cover, i.e. plain
/// UCQ evaluation of that query).
struct WorkloadQuery {
  std::string name;
  query::Cq cq;
  double weight = 1.0;
  query::Cover cover;
};

/// \brief A weighted query mix. Weights need not sum to 1.
struct WorkloadMix {
  std::vector<WorkloadQuery> queries;
};

/// \brief Deterministic weighted sampler over a mix (cumulative weights +
/// one Rng draw). Each client thread owns one, seeded from its own split,
/// so the sequence of queries a client replays is a pure function of
/// (mix, seed, client index).
class MixSampler {
 public:
  explicit MixSampler(const WorkloadMix* mix);

  /// \brief Index into mix->queries of the next draw.
  size_t Sample(Rng* rng) const;

 private:
  const WorkloadMix* mix_;
  std::vector<double> cumulative_;
};

/// \brief Options of one closed-loop run.
struct DriverOptions {
  api::Strategy strategy = api::Strategy::kRefUcq;
  /// Closed-loop client threads sharing the one QueryAnswerer.
  int clients = 4;
  /// Seed of every random stream in the run (client mixes, writer churn).
  uint64_t seed = 1;
  /// Stop condition: when > 0, every client runs exactly this many queries
  /// (deterministic; what the unit tests use). When 0, clients run until
  /// `duration_ms` of wall clock elapses.
  int ops_per_client = 0;
  double duration_ms = 500;
  /// Start a concurrent writer thread churning pre-interned triples
  /// through the shared VersionSet (insert waves, then delete waves), with
  /// background freeze/compaction enabled — the snapshot-isolation serving
  /// scenario. Only the Ref strategies are allowed with a writer: Sat/Dat
  /// maintain lazy state that is not synchronized against updates.
  bool concurrent_writer = false;
  /// Churn triples the writer cycles through per wave.
  int writer_batch = 512;
  /// AnswerOptions::threads for each query evaluation (1 = the client
  /// thread itself; the default, so saturation throughput scales with the
  /// client count, not with nested pools).
  int eval_threads = 1;
  /// Enable the cross-query view cache for the run (Ref strategies only):
  /// the driver turns it on before the warm-up pass, so warm-up installs
  /// the hot views and the measured window runs against a warm cache.
  /// Counters in the report cover the measured window only. The run owns
  /// that view state: when it ends, the cache is disabled and the selection
  /// hints are cleared, so the next run on the same answerer (the next row
  /// of a sweep) starts with no cached entries and no GCov hints.
  bool view_cache = false;
  /// With view_cache: run the workload-driven view-selection pass over the
  /// mix first, so the chosen views get eviction protection and GCov
  /// cover-alignment hints.
  bool view_selection = true;
};

/// \brief Latency/throughput digest of one query name within a run.
struct QueryStats {
  std::string name;
  uint64_t count = 0;
  uint64_t rows = 0;
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
};

/// \brief Result of one closed-loop run.
struct WorkloadReport {
  uint64_t total_queries = 0;
  uint64_t total_rows = 0;
  /// Queries that returned a non-OK status (any error fails the run's
  /// acceptance in tests; the count keeps the driver robust in benches).
  uint64_t errors = 0;
  /// Insert/Remove operations the churn writer completed (0 without one).
  uint64_t writer_ops = 0;
  double wall_ms = 0.0;
  double throughput_qps = 0.0;
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
  std::vector<QueryStats> per_query;
  /// View-cache digest of the measured window (all zero when the run had
  /// DriverOptions::view_cache off). Counter fields are deltas from the
  /// end of warm-up to the end of the run; bytes/entries are end gauges.
  bool view_cache = false;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_installs = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_invalidations = 0;
  double cache_hit_rate = 0.0;
  uint64_t cache_bytes = 0;
  uint64_t cache_entries = 0;
  /// Canonical keys the selection pass chose (empty without one).
  std::vector<std::string> selected_views;
};

/// \brief Runs one closed-loop workload: `clients` threads each replay a
/// seeded draw sequence from `mix` against the shared answerer, recording
/// per-query latency into lock-free histograms; optionally a writer thread
/// churns the version set underneath (snapshot isolation keeps every
/// answer consistent). Lazy strategy state (saturation store, Datalog
/// program) is warmed before the clock starts.
Result<WorkloadReport> RunClosedLoop(api::QueryAnswerer* answerer,
                                     const WorkloadMix& mix,
                                     const DriverOptions& options);

/// \brief The pinned sp2b query mix: long citation chains, high-fanout
/// stars, a cyclic mutual-citation join, deep-hierarchy type scans and a
/// Zipf-skewed point lookup — the shapes the LUBM suite never produces.
/// Queries are parsed against the answerer's dictionary; every one carries
/// a hand-picked connected cover for kRefJucq. Weights skew towards the
/// cheap lookups (an 80/20 serving profile).
Result<WorkloadMix> Sp2bQueryMix(api::QueryAnswerer* answerer);

/// \brief Builds a QueryAnswerer over a generated sp2b graph (scale
/// multiplies Sp2bConfig::documents).
std::unique_ptr<api::QueryAnswerer> MakeSp2bAnswerer(double scale,
                                                     uint64_t seed = 11);

}  // namespace workload
}  // namespace rdfref

#endif  // RDFREF_WORKLOAD_WORKLOAD_H_
