#ifndef RDFREF_TESTING_ENCODING_ORACLE_H_
#define RDFREF_TESTING_ENCODING_ORACLE_H_

#include "query/cq.h"
#include "testing/oracle.h"
#include "testing/scenario.h"

namespace rdfref {
namespace testing {

/// \brief The hierarchy-encoding differential oracle: over one scenario and
/// query, the encoded reformulation (interval atoms over the id-range
/// dictionary) must produce exactly the answer set of the classic UCQ
/// reformulation (use_encoding = false) — and both must match saturation
/// ground truth. Covers the Ref-UCQ and Ref-SCQ paths, an instance-churn
/// phase (inserts and removals on the query's properties, sealed into a
/// run and left in the head, compared on one pinned snapshot), plus a
/// post-update re-check, since intervals must stay *sound* while newly
/// inserted schema edges fall back to classic members.
Divergence CheckEncodedEquivalence(const Scenario& sc,
                                   const query::Cq& scenario_q);

}  // namespace testing
}  // namespace rdfref

#endif  // RDFREF_TESTING_ENCODING_ORACLE_H_
