#include "pocc/pocc_server.hpp"

namespace pocc {

proto::ReadItem PoccServer::choose_get_version(const proto::GetReq& req) {
  proto::ReadItem item;
  item.key = req.key;
  const store::VersionChain* chain = store_.find(req.key);
  charge(service_.version_hop_us);  // head access only
  if (chain == nullptr || chain->empty()) {
    item.found = false;
    item.sr = 0;
    item.ut = 0;
    item.dv = VersionVector(topology_.num_dcs);
    return item;
  }
  const store::VersionRecord* v = chain->freshest();
  item.found = true;
  item.value = v->value();
  item.sr = v->sr();
  item.ut = v->ut();
  item.dv = v->dv();
  // POCC returns the freshest version by construction: a GET is never "old"
  // and the freshness metrics stay at zero (§V-B).
  item.fresher_versions = 0;
  item.unmerged_versions = 0;
  return item;
}

}  // namespace pocc
