// POCC server engine — the paper's primary contribution (§IV, Algorithm 2).
//
// Optimistic visibility: a GET always returns the freshest locally available
// version compatible with the client's history, even if that version is not
// yet *stable* in this data center. Consistency is enforced lazily: the
// server compares the client-supplied read-dependency vector RDV against its
// version vector VV and stalls the request on the rare occasions when a
// potential dependency has not been received yet. No stabilization protocol
// runs and GETs never search the version chain.
#pragma once

#include "server/replica_base.hpp"

namespace pocc {

class PoccServer : public server::ReplicaBase {
 public:
  using server::ReplicaBase::ReplicaBase;

 protected:
  /// Alg. 2 line 2: VV[i] >= RDV[i] for all i != m (local dependencies are
  /// trivially satisfied).
  [[nodiscard]] bool get_ready(const proto::GetReq& req) const override {
    return vv_.dominates(req.rdv, skip_local());
  }

  /// Alg. 2 line 3: the version with the highest update timestamp — always
  /// the chain head, independent of chain length (O(1), no stability search).
  proto::ReadItem choose_get_version(const proto::GetReq& req) override;

  /// Alg. 2 line 32: TV = max(VV, RDV), entry-wise. Snapshot boundaries are
  /// set by what this DC has *received*, not by what is stable.
  [[nodiscard]] VersionVector compute_tx_snapshot(
      const proto::RoTxReq& req) const override {
    return VersionVector::max_of(vv_, req.rdv);
  }

  /// Alg. 2 line 43: d is visible in the snapshot iff d.DV <= TV.
  [[nodiscard]] bool slice_visible(const store::VersionRecord& v,
                                   const VersionVector& tv,
                                   bool pessimistic) const override {
    (void)pessimistic;  // plain POCC has no pessimistic sessions
    return v.dv().leq(tv);
  }
};

}  // namespace pocc
