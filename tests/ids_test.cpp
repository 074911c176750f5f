// Mini-NIDS layer tests: streaming scan with carry, per-group working sets,
// and the end-to-end engine.
#include <gtest/gtest.h>

#include <algorithm>

#include "helpers.hpp"
#include "ids/engine.hpp"
#include "ids/flow.hpp"

namespace vpm::ids {
namespace {

// ---- StreamScanner -------------------------------------------------------
// The carry is driven through IdsEngine::stage()/flush_batch(), one chunk
// per flush.  Every pattern here is generic, so the generic working set
// holds the whole set and its local ids are the Database ids.

// Stages each chunk of one flow and flushes it; returns the alerts as
// (pattern id, stream offset) matches in canonical order.
std::vector<Match> stream_matches(const DatabasePtr& db,
                                  const std::vector<util::ByteView>& chunks,
                                  EngineCounters* counters = nullptr) {
  IdsEngine engine(db);
  std::vector<Alert> alerts;
  AlertBuffer sink(alerts);
  for (const util::ByteView chunk : chunks) {
    engine.stage(1, pattern::Group::generic, chunk, sink);
    engine.flush_batch(sink);
  }
  if (counters != nullptr) *counters = engine.counters();
  std::vector<Match> matches;
  for (const Alert& a : alerts) matches.push_back({a.pattern_id, a.stream_offset});
  std::sort(matches.begin(), matches.end());
  return matches;
}

TEST(StreamScanner, WholeBufferEqualsSingleFeed) {
  const auto db = compile(core::Algorithm::spatch, testutil::boundary_set());
  const WorkingSet& set = db->working_set(pattern::Group::generic);
  const auto text = testutil::random_text(5000, 1);
  EXPECT_EQ(stream_matches(db, {text}), set.matcher->find_matches(text));
}

TEST(StreamScanner, ChunkedFeedEqualsWholeBuffer) {
  const auto db = compile(core::Algorithm::vpatch, testutil::random_set(60, 8, 2));
  const WorkingSet& set = db->working_set(pattern::Group::generic);
  const auto text = testutil::random_text(20000, 3);
  const auto expected = set.matcher->find_matches(text);

  for (std::size_t chunk_len : {1u, 7u, 100u, 1024u, 9999u}) {
    std::vector<util::ByteView> chunks;
    for (std::size_t off = 0; off < text.size(); off += chunk_len) {
      chunks.push_back({text.data() + off, std::min(chunk_len, text.size() - off)});
    }
    EXPECT_EQ(stream_matches(db, chunks), expected) << "chunk_len=" << chunk_len;
  }
}

TEST(StreamScanner, MatchStraddlingChunkBoundaryFoundOnce) {
  pattern::PatternSet set;
  set.add("straddle");
  const auto matches = stream_matches(compile(core::Algorithm::spatch, set),
                                      {util::as_view("xxxxstra"), util::as_view("ddlexxxx")});
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].pos, 4u);
}

// The carry is the stream suffix a match could still start in, not a fixed
// max_len - 1 bytes: "stra" is a live prefix of "straddle", the x's and z's
// are no pattern's bytes.
TEST(StreamScanner, CarryKeepsOnlyALivePrefix) {
  pattern::PatternSet set;
  set.add("straddle");
  const auto db = compile(core::Algorithm::spatch, set);
  StreamScanner scanner(db->working_set(pattern::Group::generic));
  util::Bytes staged;  // carry + chunk, as IdsEngine::stage() assembles it
  const auto stage = [&](const char* chunk) {
    const util::ByteView carry = scanner.carry();
    staged.assign(carry.begin(), carry.end());
    const util::ByteView bytes = util::as_view(chunk);
    staged.insert(staged.end(), bytes.begin(), bytes.end());
    scanner.stage();
  };
  stage("xxxxstra");
  scanner.commit(staged);
  stage("zzzz");
  EXPECT_EQ(scanner.staged_carry(), 4u);
  scanner.commit(staged);
  stage("ddle");
  EXPECT_EQ(scanner.staged_carry(), 0u);
  scanner.commit(staged);
}

TEST(StreamScanner, MatchInsideCarryNotDuplicated) {
  pattern::PatternSet set;
  set.add("dup");
  set.add("abcdefghij");  // long max-len -> deep carry
  const auto matches =
      stream_matches(compile(core::Algorithm::spatch, set),
                     {util::as_view("xxdupxx"),     // match fully in first chunk
                      util::as_view("yyyyyyy")});  // carry re-scan must not re-report
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].pos, 2u);
}

TEST(StreamScanner, OffsetsAreAbsolute) {
  pattern::PatternSet set;
  set.add("mark");
  EngineCounters counters;
  const auto matches =
      stream_matches(compile(core::Algorithm::spatch, set),
                     {util::as_view("0123456789"), util::as_view("0123mark89")}, &counters);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].pos, 14u);
  EXPECT_EQ(counters.bytes_inspected, 20u);
}

// ---- Working sets -------------------------------------------------------------

pattern::PatternSet grouped_set() {
  pattern::PatternSet set;
  set.add("GET /evil", false, pattern::Group::http);
  set.add("generic-attack", false, pattern::Group::generic);
  set.add("EHLO spam", false, pattern::Group::smtp);
  set.add("RETR secret", false, pattern::Group::ftp);
  return set;
}

TEST(WorkingSet, HttpGroupSeesHttpAndGeneric) {
  const auto master = grouped_set();
  const auto db = compile(core::Algorithm::spatch, master);
  const auto& http = db->working_set(pattern::Group::http).patterns;
  EXPECT_EQ(http.size(), 2u);
  EXPECT_TRUE(http.contains(util::as_view("GET /evil"), false));
  EXPECT_TRUE(http.contains(util::as_view("generic-attack"), false));
  EXPECT_FALSE(http.contains(util::as_view("EHLO spam"), false));
}

TEST(WorkingSet, GenericGroupSeesOnlyGeneric) {
  const auto master = grouped_set();
  const auto db = compile(core::Algorithm::spatch, master);
  EXPECT_EQ(db->working_set(pattern::Group::generic).patterns.size(), 1u);
}

TEST(WorkingSet, MasterIdMappingRoundTrips) {
  const auto master = grouped_set();
  const auto db = compile(core::Algorithm::spatch, master);
  const WorkingSet& smtp = db->working_set(pattern::Group::smtp);
  for (std::uint32_t local = 0; local < smtp.patterns.size(); ++local) {
    const auto master_id = smtp.to_master[local];
    EXPECT_EQ(master[master_id].bytes, smtp.patterns[local].bytes);
  }
}

TEST(WorkingSet, HttpMatcherIgnoresSmtpPattern) {
  const auto master = grouped_set();
  const auto db = compile(core::Algorithm::spatch, master);
  const auto& m = *db->working_set(pattern::Group::http).matcher;
  EXPECT_EQ(m.count_matches(util::as_view("EHLO spam")), 0u);
  EXPECT_EQ(m.count_matches(util::as_view("GET /evil generic-attack")), 2u);
}

TEST(WorkingSet, EqualWorkingSetsShareOneCompile) {
  using pattern::Group;
  const auto db = compile(core::Algorithm::spatch, grouped_set());
  // dns has no patterns of its own: its working set is the generic one.
  EXPECT_EQ(&db->working_set(Group::dns), &db->working_set(Group::generic));
  EXPECT_EQ(db->prefilter_for(Group::dns), db->prefilter_for(Group::generic));
  for (const Group g : {Group::http, Group::smtp, Group::ftp}) {
    EXPECT_NE(&db->working_set(g), &db->working_set(Group::generic))
        << pattern::group_name(g);
    for (const Group other : {Group::http, Group::smtp, Group::ftp}) {
      if (other != g) {
        EXPECT_NE(&db->working_set(g), &db->working_set(other));
      }
    }
  }

  // All generic: one set serves every group, and it is the whole-set engine.
  const auto all_generic = compile(core::Algorithm::spatch, testutil::boundary_set());
  const WorkingSet& set = all_generic->working_set(Group::generic);
  for (std::size_t g = 0; g < static_cast<std::size_t>(Group::count); ++g) {
    EXPECT_EQ(&all_generic->working_set(static_cast<Group>(g)), &set);
  }
  EXPECT_EQ(&all_generic->engine(), set.matcher.get());
}

// ---- IdsEngine --------------------------------------------------------------------

// Stages one chunk and flushes it: a worker batch of one.
void scan_chunk(IdsEngine& engine, std::uint64_t flow, pattern::Group group,
                std::string_view chunk, std::vector<Alert>& alerts) {
  AlertBuffer sink(alerts);
  engine.stage(flow, group, util::as_view(chunk), sink);
  engine.flush_batch(sink);
}

TEST(IdsEngine, ProducesAlertsWithMasterIds) {
  const auto master = grouped_set();
  IdsEngine engine(compile(core::Algorithm::spatch, master));
  std::vector<Alert> alerts;
  scan_chunk(engine, 1, pattern::Group::http, "zz GET /evil zz", alerts);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].flow_id, 1u);
  EXPECT_EQ(alerts[0].pattern_id, 0u);  // master id of "GET /evil"
  EXPECT_EQ(alerts[0].stream_offset, 3u);
  EXPECT_EQ(alerts[0].group, pattern::Group::http);
}

TEST(IdsEngine, RoutesByProtocol) {
  const auto master = grouped_set();
  IdsEngine engine(compile(core::Algorithm::spatch, master));
  std::vector<Alert> alerts;
  // SMTP pattern inside an HTTP flow: not matched (different group).
  scan_chunk(engine, 1, pattern::Group::http, "EHLO spam", alerts);
  EXPECT_TRUE(alerts.empty());
  scan_chunk(engine, 2, pattern::Group::smtp, "EHLO spam", alerts);
  EXPECT_EQ(alerts.size(), 1u);
}

TEST(IdsEngine, FlowsKeepIndependentStreams) {
  pattern::PatternSet master;
  master.add("crossflow", false, pattern::Group::http);
  IdsEngine engine(compile(core::Algorithm::spatch, master));
  std::vector<Alert> alerts;
  scan_chunk(engine, 1, pattern::Group::http, "xxcross", alerts);
  scan_chunk(engine, 2, pattern::Group::http, "flowxx", alerts);
  EXPECT_TRUE(alerts.empty()) << "halves in different flows must not join";
  scan_chunk(engine, 1, pattern::Group::http, "flowxx", alerts);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].flow_id, 1u);
}

TEST(IdsEngine, CloseFlowDropsCarry) {
  pattern::PatternSet master;
  master.add("severed", false, pattern::Group::http);
  IdsEngine engine(compile(core::Algorithm::spatch, master));
  std::vector<Alert> alerts;
  scan_chunk(engine, 5, pattern::Group::http, "xxseve", alerts);
  engine.close_flow(5);
  scan_chunk(engine, 5, pattern::Group::http, "redxx", alerts);
  EXPECT_TRUE(alerts.empty());
}

TEST(IdsEngine, CountersAccumulate) {
  const auto master = grouped_set();
  IdsEngine engine(compile(core::Algorithm::spatch, master));
  std::vector<Alert> alerts;
  scan_chunk(engine, 1, pattern::Group::http, "GET /evil", alerts);
  scan_chunk(engine, 1, pattern::Group::http, "generic-attack", alerts);
  scan_chunk(engine, 9, pattern::Group::ftp, "RETR secret", alerts);
  const EngineCounters& c = engine.counters();
  EXPECT_EQ(c.chunks, 3u);
  EXPECT_EQ(c.flows, 2u);
  EXPECT_EQ(c.alerts, 3u);
  EXPECT_EQ(c.bytes_inspected, 9u + 14u + 11u);
}

TEST(IdsEngine, FormatAlertIsReadable) {
  const auto master = grouped_set();
  IdsEngine engine(compile(core::Algorithm::spatch, master));
  std::vector<Alert> alerts;
  scan_chunk(engine, 3, pattern::Group::http, "GET /evil", alerts);
  ASSERT_EQ(alerts.size(), 1u);
  const std::string line = format_alert(alerts[0], master);
  EXPECT_NE(line.find("flow=3"), std::string::npos);
  EXPECT_NE(line.find("group=http"), std::string::npos);
  EXPECT_NE(line.find("GET /evil"), std::string::npos);
}

}  // namespace
}  // namespace vpm::ids
