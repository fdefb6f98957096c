#include "cure/cure_server.hpp"

namespace pocc {

CureServer::CureServer(NodeId self, const TopologyConfig& topology,
                       const ProtocolConfig& protocol,
                       const ServiceConfig& service, server::Context& ctx)
    : server::ReplicaBase(self, topology, protocol, service, ctx),
      gss_(topology.num_dcs) {}

void CureServer::start() {
  server::ReplicaBase::start();
  ctx_.set_timer(stabilization_interval(), server::kTimerStabilization);
}

Duration CureServer::on_timer(std::uint64_t timer_id) {
  if (timer_id != server::kTimerStabilization) {
    return server::ReplicaBase::on_timer(timer_id);
  }
  work_ = 0;
  // Stabilization round: report this node's VV to the DC-local aggregator,
  // which computes the aggregate minimum (the GSS) and broadcasts it.
  charge(service_.stabilization_us);
  if (is_stab_aggregator()) {
    on_stab_report(proto::StabReport{self_, vv_});
  } else {
    ctx_.send(NodeId{local_dc(), 0}, proto::StabReport{self_, vv_});
  }
  ctx_.set_timer(stabilization_interval(), server::kTimerStabilization);
  return work_;
}

Duration CureServer::on_stab_report(const proto::StabReport& msg) {
  charge(service_.stabilization_us);
  POCC_ASSERT(is_stab_aggregator());
  stab_reports_[msg.from.part] = msg.vv;
  if (stab_reports_.size() == topology_.partitions_per_dc) {
    VersionVector gss = stab_reports_.begin()->second;
    for (const auto& [part, vv] : stab_reports_) gss.merge_min(vv);
    for (PartitionId p = 0; p < topology_.partitions_per_dc; ++p) {
      if (p == self_.part) continue;
      ctx_.send(NodeId{local_dc(), p}, proto::GssBroadcast{gss});
    }
    on_gss_broadcast(proto::GssBroadcast{gss});
  }
  return work_;
}

Duration CureServer::on_gss_broadcast(const proto::GssBroadcast& msg) {
  charge(service_.stabilization_us);
  gss_.merge_max(msg.gss);  // the GSS is monotone per node
  poke();                   // reads waiting on the GSS may now be ready
  return work_;
}

proto::ReadItem CureServer::choose_get_version(const proto::GetReq& req) {
  proto::ReadItem item;
  item.key = req.key;
  const store::VersionChain* chain = store_.find(req.key);
  if (chain == nullptr || chain->empty()) {
    item.found = false;
    item.sr = 0;
    item.ut = 0;
    item.dv = VersionVector(topology_.num_dcs);
    charge(service_.version_hop_us);
    return item;
  }
  const auto lookup = chain->freshest_where(
      [this](const store::VersionRecord& v) { return stable(v); });
  charge(service_.version_hop_us * static_cast<Duration>(lookup.hops));
  if (lookup.version == nullptr) {
    // Every explicit version is unstable; fall back to the implicit initial
    // version (dependency-free, hence trivially stable).
    item.found = false;
    item.sr = 0;
    item.ut = 0;
    item.dv = VersionVector(topology_.num_dcs);
  } else {
    item.found = true;
    item.value = lookup.version->value();
    item.sr = lookup.version->sr();
    item.ut = lookup.version->ut();
    item.dv = lookup.version->dv();
  }
  item.fresher_versions = lookup.fresher;
  item.unmerged_versions = count_unmerged(*chain);
  return item;
}

VersionVector CureServer::compute_tx_snapshot(
    const proto::RoTxReq& req) const {
  VersionVector tv = VersionVector::max_of(gss_, req.rdv);
  // Local items are always visible in Cure (§IV-C): the local boundary is the
  // coordinator's VV entry, not the (lagging) GSS entry.
  tv.raise(local_dc(), vv_[local_dc()]);
  return tv;
}

}  // namespace pocc
