// Garbage-collection exchange tests (§IV-B): low-watermark reports, aggregate
// minimum GV, retention of the newest version at or below the floor, and
// protection of versions still needed by active transactions.
#include <gtest/gtest.h>

#include <iterator>

#include "cure/cure_server.hpp"
#include "pocc/pocc_server.hpp"
#include "store/key_space.hpp"
#include "test_util.hpp"

namespace pocc {
namespace {

KeyId K(const std::string& key) { return store::intern_key(key); }

using testutil::MockContext;
using testutil::test_topology;

class GcTest : public ::testing::Test {
 protected:
  GcTest()
      : server_(NodeId{0, 0}, test_topology(), protocol_, service_, ctx_) {
    ctx_.now = 1'000'000;
  }

  void replicate(const std::string& key, Timestamp ut, DcId sr,
                 VersionVector dv = VersionVector(3)) {
    store::Version v;
    v.key = K(key);
    v.value = "v";
    v.sr = sr;
    v.ut = ut;
    v.dv = std::move(dv);
    server_.handle_message(NodeId{sr, 0}, proto::Replicate{v});
  }

  MockContext ctx_;
  ProtocolConfig protocol_;
  ServiceConfig service_;
  PoccServer server_;
};

TEST_F(GcTest, TimerSendsReportToAggregator) {
  MockContext ctx2;
  ctx2.now = 1'000'000;
  PoccServer other(NodeId{0, 1}, test_topology(), protocol_, service_, ctx2);
  other.on_timer(server::kTimerGc);
  const auto reports = ctx2.sent_of<proto::GcReport>();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].first, (NodeId{0, 0}));
  // Idle node reports its VV (§IV-B).
  EXPECT_EQ(reports[0].second.low_watermark, other.version_vector());
}

TEST_F(GcTest, AggregatorBroadcastsMinimumWhenAllReported) {
  replicate("0:a", 500'000, 1);
  server_.on_timer(server::kTimerGc);  // aggregator's own report
  EXPECT_TRUE(ctx_.sent_of<proto::GcVector>().empty());
  server_.handle_message(
      NodeId{0, 1},
      proto::GcReport{NodeId{0, 1}, VersionVector{0, 300'000, 0}});
  const auto gvs = ctx_.sent_of<proto::GcVector>();
  ASSERT_EQ(gvs.size(), 1u);
  EXPECT_EQ(gvs[0].first, (NodeId{0, 1}));
  EXPECT_EQ(gvs[0].second.gv, (VersionVector{0, 300'000, 0}));
}

TEST_F(GcTest, GcRemovesVersionsBelowFloor) {
  // Chain: 100k, 200k, 300k (all dependency-free).
  for (Timestamp t : {100'000, 200'000, 300'000}) replicate("0:k", t, 1);
  // GV dominating every dv: the floor is the freshest version whose dv <= GV;
  // older versions are unreachable by any future transaction.
  server_.handle_message(NodeId{0, 1},
                         proto::GcVector{VersionVector{0, 250'000, 0}});
  const auto* chain = server_.partition_store().find(K("0:k"));
  ASSERT_NE(chain, nullptr);
  // All three versions have dv = 0 <= GV, so only the newest is kept (it is
  // the floor version itself).
  EXPECT_EQ(chain->size(), 1u);
  EXPECT_EQ(chain->freshest()->ut(), 300'000);
}

TEST_F(GcTest, GcKeepsVersionsWithDepsAboveFloor) {
  replicate("0:k", 100'000, 1);                                // floor
  replicate("0:k", 200'000, 1, VersionVector{0, 0, 400'000});  // dv above GV
  replicate("0:k", 300'000, 1, VersionVector{0, 0, 500'000});  // dv above GV
  server_.handle_message(NodeId{0, 1},
                         proto::GcVector{VersionVector{0, 350'000, 0}});
  const auto* chain = server_.partition_store().find(K("0:k"));
  ASSERT_NE(chain, nullptr);
  // 200k/300k have dependencies outside GV; the first version with dv <= GV
  // (walking freshest-to-oldest) is 100k — everything is retained.
  EXPECT_EQ(chain->size(), 3u);
}

TEST_F(GcTest, ActiveTransactionLowersWatermark) {
  // Open a transaction with a remote slice so it stays pending.
  proto::RoTxReq tx;
  tx.client = 9;
  tx.keys = {K("1:far")};
  tx.rdv = VersionVector(3);
  server_.handle_message(NodeId{0, 0}, tx);
  // Raise the VV well above the snapshot.
  server_.handle_message(NodeId{1, 0}, proto::Heartbeat{1, 800'000});
  ctx_.clear_traffic();
  server_.on_timer(server::kTimerGc);
  // The aggregator recorded its own report; inspect via a sibling round.
  server_.handle_message(
      NodeId{0, 1},
      proto::GcReport{NodeId{0, 1}, VersionVector{1'000'000, 1'000'000,
                                                  1'000'000}});
  const auto gvs = ctx_.sent_of<proto::GcVector>();
  ASSERT_EQ(gvs.size(), 1u);
  // GV[1] is capped by the active transaction's snapshot (== VV at tx start,
  // which had VV[1] = 0), not by the current VV[1] = 800k.
  EXPECT_EQ(gvs[0].second.gv[1], 0);
}

TEST_F(GcTest, CureGcUsesCommitVectorFloor) {
  MockContext ctx2;
  ctx2.now = 1'000'000;
  CureServer cure(NodeId{0, 0}, test_topology(), protocol_, service_, ctx2);
  auto replicate_cure = [&](Timestamp ut) {
    store::Version v;
    v.key = K("0:k");
    v.value = "v";
    v.sr = 1;
    v.ut = ut;
    v.dv = VersionVector(3);
    cure.handle_message(NodeId{1, 0}, proto::Replicate{v});
  };
  replicate_cure(100'000);
  replicate_cure(200'000);
  replicate_cure(300'000);
  // GV covers commit vectors up to 200k only: versions 100k and 200k are at
  // or below the floor; 200k is the newest such, so 100k is dropped.
  cure.handle_message(NodeId{0, 1},
                      proto::GcVector{VersionVector{0, 250'000, 0}});
  const auto* chain = cure.partition_store().find(K("0:k"));
  ASSERT_NE(chain, nullptr);
  EXPECT_EQ(chain->size(), 2u);
  EXPECT_EQ(std::next(chain->begin())->ut(), 200'000);
}

TEST_F(GcTest, CureWatermarkIsGss) {
  MockContext ctx2;
  ctx2.now = 1'000'000;
  CureServer cure(NodeId{0, 1}, test_topology(), protocol_, service_, ctx2);
  cure.handle_message(NodeId{0, 0},
                      proto::GssBroadcast{VersionVector{0, 111, 222}});
  cure.on_timer(server::kTimerGc);
  const auto reports = ctx2.sent_of<proto::GcReport>();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].second.low_watermark, (VersionVector{0, 111, 222}));
}

}  // namespace
}  // namespace pocc
