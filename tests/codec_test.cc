#include <gtest/gtest.h>

#include <initializer_list>
#include <set>

#include "mobieyes/common/random.h"
#include "mobieyes/net/codec.h"

namespace mobieyes::net {
namespace {

FocalState SomeState() {
  FocalState state;
  state.pos = geo::Point{12.5, -3.75};
  state.vel = geo::Vec2{0.025, -0.0125};
  state.tm = 1234.5;
  return state;
}

QueryInfo SomeInfo(QueryId qid, const FocalState& focal = SomeState()) {
  QueryInfo info;
  info.qid = qid;
  info.focal_oid = 42;
  info.focal = focal;
  info.region = geo::QueryRegion::MakeCircle(5.25);
  info.filter_threshold = 0.75;
  info.mon_region = geo::CellRange{3, 7, 2, 6};
  info.focal_max_speed = 0.0694;
  return info;
}

void ExpectStateEq(const FocalState& a, const FocalState& b) {
  EXPECT_EQ(a.pos, b.pos);
  EXPECT_EQ(a.vel, b.vel);
  EXPECT_DOUBLE_EQ(a.tm, b.tm);
}

void ExpectInfoEq(const QueryInfo& a, const QueryInfo& b) {
  EXPECT_EQ(a.qid, b.qid);
  EXPECT_EQ(a.focal_oid, b.focal_oid);
  ExpectStateEq(a.focal, b.focal);
  EXPECT_EQ(a.region, b.region);
  EXPECT_DOUBLE_EQ(a.filter_threshold, b.filter_threshold);
  EXPECT_EQ(a.mon_region, b.mon_region);
  EXPECT_DOUBLE_EQ(a.focal_max_speed, b.focal_max_speed);
}

// Round-trips a message and returns the decoded payload.
template <typename T>
T RoundTrip(const T& payload) {
  Message message = MakeMessage(payload);
  std::vector<uint8_t> wire = MessageCodec::Encode(message);
  // The documented size model must equal the real encoding, byte for byte.
  EXPECT_EQ(wire.size(), WireSizeBytes(message))
      << MessageTypeName(message.type);
  auto decoded = MessageCodec::Decode(wire);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, message.type);
  return std::get<T>(decoded->payload);
}

TEST(CodecTest, QueryInstallRequestRoundTrip) {
  QueryInstallRequest p{17, geo::QueryRegion::MakeCircle(4.5), 0.75};
  QueryInstallRequest q = RoundTrip(p);
  EXPECT_EQ(q.oid, 17);
  EXPECT_EQ(q.region, geo::QueryRegion::MakeCircle(4.5));
  EXPECT_DOUBLE_EQ(q.filter_threshold, 0.75);
}

TEST(CodecTest, RectangularRegionRoundTrip) {
  QueryInstallRequest p{18, geo::QueryRegion::MakeRectangle(6.0, 3.0), 0.5};
  QueryInstallRequest q = RoundTrip(p);
  EXPECT_EQ(q.region.shape, geo::QueryRegion::Shape::kRectangle);
  EXPECT_DOUBLE_EQ(q.region.half_w, 3.0);
  EXPECT_DOUBLE_EQ(q.region.half_h, 1.5);

  QueryInfo info = SomeInfo(3);
  info.region = geo::QueryRegion::MakeRectangle(2.0, 8.0);
  QueryInstallBroadcast broadcast;
  broadcast.queries.push_back(info);
  QueryInstallBroadcast round = RoundTrip(broadcast);
  ASSERT_EQ(round.queries.size(), 1u);
  EXPECT_EQ(round.queries[0].region, info.region);
}

TEST(CodecTest, PositionReportRoundTrip) {
  PositionReport p{9, geo::Point{1.5, 2.5}};
  PositionReport q = RoundTrip(p);
  EXPECT_EQ(q.oid, 9);
  EXPECT_EQ(q.pos, (geo::Point{1.5, 2.5}));
}

TEST(CodecTest, PositionVelocityReportRoundTrip) {
  PositionVelocityReport p{3, SomeState(), 0.07};
  PositionVelocityReport q = RoundTrip(p);
  EXPECT_EQ(q.oid, 3);
  ExpectStateEq(q.state, SomeState());
  EXPECT_DOUBLE_EQ(q.max_speed, 0.07);
}

TEST(CodecTest, VelocityChangeReportRoundTrip) {
  VelocityChangeReport p{5, SomeState()};
  VelocityChangeReport q = RoundTrip(p);
  EXPECT_EQ(q.oid, 5);
  ExpectStateEq(q.state, SomeState());
}

TEST(CodecTest, CellChangeReportRoundTrip) {
  CellChangeReport p{8, geo::CellCoord{1, 2}, geo::CellCoord{3, 4}};
  CellChangeReport q = RoundTrip(p);
  EXPECT_EQ(q.oid, 8);
  EXPECT_EQ(q.prev_cell, (geo::CellCoord{1, 2}));
  EXPECT_EQ(q.new_cell, (geo::CellCoord{3, 4}));
}

TEST(CodecTest, ResultBitmapReportRoundTrip) {
  ResultBitmapReport p;
  p.oid = 11;
  for (QueryId qid = 100; qid < 110; ++qid) p.qids.push_back(qid);
  p.bitmap = 0b1010110011;
  ResultBitmapReport q = RoundTrip(p);
  EXPECT_EQ(q.oid, 11);
  EXPECT_EQ(q.qids, p.qids);
  EXPECT_EQ(q.bitmap, p.bitmap);
}

TEST(CodecTest, ResultBitmapReportEmptyAndFull) {
  ResultBitmapReport empty;
  empty.oid = 1;
  EXPECT_TRUE(RoundTrip(empty).qids.empty());

  ResultBitmapReport full;
  full.oid = 2;
  for (QueryId qid = 0; qid < 64; ++qid) full.qids.push_back(qid);
  full.bitmap = ~uint64_t{0};
  ResultBitmapReport q = RoundTrip(full);
  EXPECT_EQ(q.qids.size(), 64u);
  EXPECT_EQ(q.bitmap, ~uint64_t{0});
}

TEST(CodecTest, FocalNotificationRoundTrip) {
  FocalNotification p{6, kInvalidQueryId};
  FocalNotification q = RoundTrip(p);
  EXPECT_EQ(q.oid, 6);
  EXPECT_EQ(q.qid, kInvalidQueryId);
}

TEST(CodecTest, PositionVelocityRequestRoundTrip) {
  EXPECT_EQ(RoundTrip(PositionVelocityRequest{21}).oid, 21);
}

TEST(CodecTest, QueryInstallBroadcastRoundTrip) {
  QueryInstallBroadcast p;
  p.queries.push_back(SomeInfo(1));
  p.queries.push_back(SomeInfo(2));
  QueryInstallBroadcast q = RoundTrip(p);
  ASSERT_EQ(q.queries.size(), 2u);
  ExpectInfoEq(q.queries[0], p.queries[0]);
  ExpectInfoEq(q.queries[1], p.queries[1]);
}

TEST(CodecTest, EagerVelocityChangeBroadcastRoundTrip) {
  VelocityChangeBroadcast p;
  p.focal_oid = 42;
  p.state = SomeState();
  VelocityChangeBroadcast q = RoundTrip(p);
  EXPECT_EQ(q.focal_oid, 42);
  EXPECT_FALSE(q.carries_query_info);
  EXPECT_TRUE(q.queries.empty());
}

TEST(CodecTest, LazyVelocityChangeBroadcastSharesKinematics) {
  VelocityChangeBroadcast p;
  p.focal_oid = 42;
  p.state = SomeState();
  p.carries_query_info = true;
  // In the protocol the carried queries' focal state always equals the
  // broadcast state (BuildQueryInfo reads the just-updated FOT), which is
  // what lets the encoding carry the kinematics once.
  p.queries.push_back(SomeInfo(7, p.state));
  p.queries.push_back(SomeInfo(8, p.state));
  VelocityChangeBroadcast q = RoundTrip(p);
  ASSERT_TRUE(q.carries_query_info);
  ASSERT_EQ(q.queries.size(), 2u);
  ExpectInfoEq(q.queries[0], p.queries[0]);
  ExpectInfoEq(q.queries[1], p.queries[1]);
}

TEST(CodecTest, QueryUpdateBroadcastRoundTrip) {
  QueryUpdateBroadcast p;
  p.queries.push_back(SomeInfo(5));
  QueryUpdateBroadcast q = RoundTrip(p);
  ASSERT_EQ(q.queries.size(), 1u);
  ExpectInfoEq(q.queries[0], p.queries[0]);
}

TEST(CodecTest, QueryRemoveBroadcastRoundTrip) {
  QueryRemoveBroadcast p;
  p.qids = {4, 5, 6};
  EXPECT_EQ(RoundTrip(p).qids, p.qids);
}

TEST(CodecTest, NewQueriesNotificationRoundTrip) {
  NewQueriesNotification p;
  p.oid = 77;
  p.queries.push_back(SomeInfo(9));
  NewQueriesNotification q = RoundTrip(p);
  EXPECT_EQ(q.oid, 77);
  ASSERT_EQ(q.queries.size(), 1u);
  ExpectInfoEq(q.queries[0], p.queries[0]);
}

// --- Corruption handling -----------------------------------------------------

TEST(CodecTest, DecodeRejectsShortBuffer) {
  std::vector<uint8_t> tiny(8, 0);
  EXPECT_FALSE(MessageCodec::Decode(tiny).ok());
}

TEST(CodecTest, DecodeRejectsBadMagic) {
  std::vector<uint8_t> wire =
      MessageCodec::Encode(MakeMessage(PositionVelocityRequest{1}));
  wire[0] ^= 0xFF;
  EXPECT_FALSE(MessageCodec::Decode(wire).ok());
}

TEST(CodecTest, DecodeRejectsUnknownType) {
  std::vector<uint8_t> wire =
      MessageCodec::Encode(MakeMessage(PositionVelocityRequest{1}));
  wire[4] = 0xEE;  // type byte
  EXPECT_FALSE(MessageCodec::Decode(wire).ok());
}

TEST(CodecTest, DecodeRejectsTruncatedBody) {
  std::vector<uint8_t> wire =
      MessageCodec::Encode(MakeMessage(VelocityChangeReport{1, SomeState()}));
  wire.pop_back();
  EXPECT_FALSE(MessageCodec::Decode(wire).ok());
}

TEST(CodecTest, DecodeRejectsTrailingBytes) {
  std::vector<uint8_t> wire =
      MessageCodec::Encode(MakeMessage(PositionVelocityRequest{1}));
  wire.push_back(0);
  EXPECT_FALSE(MessageCodec::Decode(wire).ok());
}

// Fuzz: random single-byte corruptions of valid messages must never crash
// or mis-size the decoder — it either rejects the buffer or produces some
// well-formed message.
TEST(CodecTest, DecodeSurvivesRandomCorruption) {
  Rng rng(601);
  std::vector<Message> corpus;
  corpus.push_back(MakeMessage(PositionReport{1, geo::Point{2, 3}}));
  corpus.push_back(MakeMessage(VelocityChangeReport{4, SomeState()}));
  QueryInstallBroadcast broadcast;
  broadcast.queries.push_back(SomeInfo(1));
  broadcast.queries.push_back(SomeInfo(2));
  corpus.push_back(MakeMessage(broadcast));
  ResultBitmapReport report;
  report.oid = 9;
  report.qids = {10, 11, 12};
  report.bitmap = 5;
  corpus.push_back(MakeMessage(report));

  for (const Message& message : corpus) {
    std::vector<uint8_t> wire = MessageCodec::Encode(message);
    for (int trial = 0; trial < 500; ++trial) {
      std::vector<uint8_t> mutated = wire;
      size_t pos = rng.NextUint64(mutated.size());
      mutated[pos] ^= static_cast<uint8_t>(1 + rng.NextUint64(255));
      auto decoded = MessageCodec::Decode(mutated);  // must not crash
      (void)decoded;
    }
    // Random truncations as well.
    for (size_t len = 0; len < wire.size(); ++len) {
      std::vector<uint8_t> truncated(wire.begin(), wire.begin() + len);
      EXPECT_FALSE(MessageCodec::Decode(truncated).ok());
    }
  }
}

TEST(CodecTest, DecodeRejectsRandomGarbage) {
  Rng rng(602);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> garbage(rng.NextUint64(128));
    for (auto& byte : garbage) {
      byte = static_cast<uint8_t>(rng.NextUint64(256));
    }
    auto decoded = MessageCodec::Decode(garbage);
    // A random buffer essentially never carries the magic number.
    EXPECT_FALSE(decoded.ok());
  }
}

TEST(CodecTest, DecodeRejectsCountBodyMismatch) {
  QueryRemoveBroadcast p;
  p.qids = {1, 2, 3};
  std::vector<uint8_t> wire = MessageCodec::Encode(MakeMessage(p));
  wire[6] = 5;  // count field low byte: claims 5 ids, body has 3
  EXPECT_FALSE(MessageCodec::Decode(wire).ok());
}

TEST(CodecTest, LqtReconcileRequestRoundTripsColdStartFlag) {
  LqtReconcileRequest p;
  p.oid = 13;
  p.cell = geo::CellCoord{4, 6};
  p.known_qids = {2, 5, 9};
  p.target_qids = {5};
  for (bool cold : {false, true}) {
    p.cold_start = cold;
    Message message = MakeMessage(p);
    std::vector<uint8_t> wire = MessageCodec::Encode(message);
    // The flag rides in the header flags byte: no body-size change.
    EXPECT_EQ(wire.size(), WireSizeBytes(message));
    auto decoded = MessageCodec::Decode(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    const auto& q = std::get<LqtReconcileRequest>(decoded->payload);
    EXPECT_EQ(q.cold_start, cold);
    EXPECT_EQ(q.known_qids, p.known_qids);
    EXPECT_EQ(q.target_qids, p.target_qids);
  }
}

TEST(CodecTest, DecodeRejectsBadRegionShapeTag) {
  std::vector<uint8_t> wire = MessageCodec::Encode(
      MakeMessage(QueryInstallRequest{3, geo::QueryRegion::MakeCircle(2.0),
                                      0.5}));
  // Body layout: i64 oid, then the region starting with its shape tag.
  wire[16 + 8] = 7;  // neither kCircle (0) nor kRectangle (1)
  EXPECT_FALSE(MessageCodec::Decode(wire).ok());
}

TEST(CodecTest, DecodeRejectsOversizedBitmapCount) {
  ResultBitmapReport p;
  p.oid = 4;
  p.qids = {1, 2, 3};
  p.bitmap = 0b101;
  std::vector<uint8_t> wire = MessageCodec::Encode(MakeMessage(p));
  wire[6] = 200;  // bitmap reports carry at most 64 qids
  EXPECT_FALSE(MessageCodec::Decode(wire).ok());
}

// One representative of every message type: the decoder must reject every
// truncation of every type (no assert, no crash) and survive arbitrary
// single-byte mutations.
std::vector<Message> FullCorpus() {
  std::vector<Message> corpus;
  corpus.push_back(MakeMessage(
      QueryInstallRequest{1, geo::QueryRegion::MakeCircle(3.0), 0.5}));
  corpus.push_back(MakeMessage(PositionReport{2, geo::Point{1, 2}}));
  corpus.push_back(MakeMessage(PositionVelocityReport{3, SomeState(), 0.1}));
  corpus.push_back(MakeMessage(VelocityChangeReport{4, SomeState()}));
  corpus.push_back(MakeMessage(
      CellChangeReport{5, geo::CellCoord{0, 1}, geo::CellCoord{1, 1}}));
  ResultBitmapReport bitmap;
  bitmap.oid = 6;
  bitmap.qids = {7, 8};
  bitmap.bitmap = 0b10;
  corpus.push_back(MakeMessage(bitmap));
  corpus.push_back(MakeMessage(FocalNotification{7, 1}));
  corpus.push_back(MakeMessage(PositionVelocityRequest{8}));
  QueryInstallBroadcast install;
  install.queries.push_back(SomeInfo(1));
  corpus.push_back(MakeMessage(install));
  VelocityChangeBroadcast velocity;
  velocity.focal_oid = 9;
  velocity.state = SomeState();
  velocity.carries_query_info = true;
  velocity.queries.push_back(SomeInfo(2, velocity.state));
  corpus.push_back(MakeMessage(velocity));
  QueryUpdateBroadcast update;
  update.queries.push_back(SomeInfo(3));
  corpus.push_back(MakeMessage(update));
  QueryRemoveBroadcast remove;
  remove.qids = {4, 5};
  corpus.push_back(MakeMessage(remove));
  NewQueriesNotification notification;
  notification.oid = 10;
  notification.queries.push_back(SomeInfo(6));
  corpus.push_back(MakeMessage(notification));
  corpus.push_back(MakeMessage(UplinkAck{11, 42}));
  LqtReconcileRequest reconcile;
  reconcile.oid = 12;
  reconcile.cell = geo::CellCoord{2, 3};
  reconcile.known_qids = {1, 2};
  reconcile.target_qids = {2};
  reconcile.cold_start = true;
  corpus.push_back(MakeMessage(reconcile));
  ShardHandoff handoff;
  handoff.from_shard = 0;
  handoff.to_shard = 3;
  handoff.oid = 13;
  handoff.state = SomeState();
  handoff.max_speed = 0.2;
  handoff.cell = geo::CellCoord{4, 5};
  ShardQueryState qstate;
  qstate.qid = 14;
  qstate.focal_oid = 13;
  qstate.region = geo::QueryRegion::MakeCircle(2.0);
  qstate.filter_threshold = 0.75;
  qstate.curr_cell = geo::CellCoord{4, 5};
  qstate.mon_region = geo::CellRange{3, 5, 4, 6};
  qstate.expires_at = 120.0;
  qstate.lease_renew_at = 60.0;
  qstate.result = {20, 21};
  handoff.queries.push_back(qstate);
  corpus.push_back(MakeMessage(handoff));
  return corpus;
}

TEST(CodecTest, EveryMessageTypeRejectsTruncationAndSurvivesMutation) {
  std::vector<Message> corpus = FullCorpus();
  ASSERT_EQ(corpus.size(), kNumMessageTypes);
  std::set<MessageType> seen;
  Rng rng(603);
  for (const Message& message : corpus) {
    seen.insert(message.type);
    std::vector<uint8_t> wire = MessageCodec::Encode(message);
    for (size_t len = 0; len < wire.size(); ++len) {
      std::vector<uint8_t> truncated(wire.begin(), wire.begin() + len);
      EXPECT_FALSE(MessageCodec::Decode(truncated).ok())
          << MessageTypeName(message.type) << " accepted a truncation to "
          << len << " bytes";
    }
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<uint8_t> mutated = wire;
      size_t pos = rng.NextUint64(mutated.size());
      mutated[pos] ^= static_cast<uint8_t>(1 + rng.NextUint64(255));
      auto decoded = MessageCodec::Decode(mutated);  // must not crash
      (void)decoded;
    }
  }
  EXPECT_EQ(seen.size(), kNumMessageTypes);
}

}  // namespace
}  // namespace mobieyes::net
