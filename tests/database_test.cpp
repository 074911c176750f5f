// The compile/runtime API split: vpm::Database owns its pattern copy (the
// source PatternSet may die the moment compile() returns — the lifetime test
// below runs under ASan in CI), vpm::Scanner is the per-thread session, and
// the v2 serialized form round-trips the fingerprint + algorithm hint.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "core/database.hpp"
#include "helpers.hpp"
#include "pattern/serialize.hpp"

namespace vpm {
namespace {

using core::Algorithm;

pattern::PatternSet small_set() {
  pattern::PatternSet set;
  set.add("he");
  set.add("she", true);
  set.add("/etc/passwd");
  set.add("HTTP/1.1", true, pattern::Group::http);
  return set;
}

// The lifetime contract the redesign exists for: the Database must scan
// correctly after the set it was compiled from is gone.  Heap-allocating the
// source set and freeing it before the scan makes a retained reference an
// ASan use-after-free, not just flaky reads.
TEST(Database, CompiledDatabaseOutlivesSourceSet) {
  for (const Algorithm algo : core::available_algorithms()) {
    DatabasePtr db;
    {
      auto doomed = std::make_unique<pattern::PatternSet>(testutil::boundary_set());
      db = compile(algo, *doomed);
    }  // source set destroyed here
    const auto survivors = testutil::boundary_set();  // oracle needs live patterns
    testutil::expect_matches_naive(db->engine(), survivors,
                                   util::as_view("xxabcdexx GET http/1.1 a"),
                                   std::string("post-free [") +
                                       std::string(core::algorithm_name(algo)) + "]");
    EXPECT_EQ(db->pattern_count(), survivors.size());
    EXPECT_EQ(db->algorithm(), algo);
  }
}

TEST(Database, ScannerEqualsDirectEngineAndIsPerThread) {
  const auto set = testutil::random_set(200, 8, testutil::case_seed(900));
  const auto text = testutil::random_text(64 * 1024, testutil::case_seed(901));
  const DatabasePtr db = compile(Algorithm::vpatch, set);

  Scanner scanner(db);
  testutil::expect_matches_naive(db->engine(), set, text, "scanner-db");
  EXPECT_EQ(scanner.find_matches(text), db->engine().find_matches(text));

  // One Database, many concurrent Scanner sessions: identical results.
  const auto expected = scanner.find_matches(text);
  std::vector<std::vector<Match>> results(4);
  {
    std::vector<std::thread> threads;
    for (auto& out : results) {
      threads.emplace_back([&db, &text, &out] {
        Scanner s(db);
        out = s.find_matches(text);
      });
    }
    for (auto& t : threads) t.join();
  }
  for (const auto& r : results) EXPECT_EQ(r, expected);
}

TEST(Database, ScannerBatchEqualsPerPayloadScan) {
  const auto set = testutil::random_set(100, 6, testutil::case_seed(902));
  const DatabasePtr db = compile(Algorithm::vpatch, set);
  Scanner scanner(db);

  std::vector<util::Bytes> payloads;
  for (std::uint64_t i = 0; i < 16; ++i) {
    payloads.push_back(testutil::random_text(200 + 37 * i, testutil::case_seed(903 + i)));
  }
  std::vector<util::ByteView> views(payloads.begin(), payloads.end());

  struct Collect final : BatchSink {
    std::vector<std::vector<Match>> per_packet;
    void on_match(std::uint32_t packet, const Match& m) override {
      per_packet.resize(std::max<std::size_t>(per_packet.size(), packet + 1));
      per_packet[packet].push_back(m);
    }
  } sink;
  sink.per_packet.resize(views.size());
  scanner.scan_batch(views, sink);

  for (std::size_t i = 0; i < views.size(); ++i) {
    std::sort(sink.per_packet[i].begin(), sink.per_packet[i].end());
    EXPECT_EQ(sink.per_packet[i], scanner.find_matches(views[i])) << "payload " << i;
  }
}

TEST(Database, GenerationsAreUniqueAndMonotonic) {
  const auto set = small_set();
  const DatabasePtr a = compile(Algorithm::aho_corasick, set);
  const DatabasePtr b = compile(Algorithm::aho_corasick, set);
  EXPECT_LT(a->generation(), b->generation());
  // Same content: same fingerprint, regardless of generation or algorithm.
  EXPECT_EQ(a->fingerprint(), b->fingerprint());
  const DatabasePtr c = compile(Algorithm::dfc, set);
  EXPECT_EQ(a->fingerprint(), c->fingerprint());

  pattern::PatternSet other = small_set();
  other.add("one more pattern");
  const DatabasePtr d = compile(Algorithm::aho_corasick, other);
  EXPECT_NE(a->fingerprint(), d->fingerprint());
}

// memory_bytes() counts what the sensor holds — each distinct working set
// and signature once — and builds nothing: the whole-set engine, which only
// engine() callers use, stays out of the count even once it is built.
TEST(Database, MemoryBytesCountsWorkingSetsAndBuildsNothing) {
  using pattern::Group;
  pattern::PatternSet set;
  set.add("GET /admin", false, Group::http);
  set.add("Host: evil", true, Group::http);
  set.add("RCPT TO:<root>", false, Group::smtp);
  set.add("MAIL FROM:<>", true, Group::smtp);
  // No generic patterns: no working set holds both groups, so engine() has
  // to build its own.
  const DatabasePtr db = compile(Algorithm::aho_corasick, set);
  const std::size_t bytes = db->memory_bytes();

  std::vector<const WorkingSet*> sets;
  std::vector<const core::Prefilter*> signatures;
  std::size_t held = 0;
  for (std::size_t g = 0; g < static_cast<std::size_t>(Group::count); ++g) {
    const WorkingSet* ws = &db->working_set(static_cast<Group>(g));
    if (std::find(sets.begin(), sets.end(), ws) == sets.end()) {
      sets.push_back(ws);
      held += ws->matcher->memory_bytes();
    }
    const core::Prefilter* pf = db->prefilter_for(static_cast<Group>(g)).get();
    if (pf != nullptr && std::find(signatures.begin(), signatures.end(), pf) ==
                             signatures.end()) {
      signatures.push_back(pf);
      held += pf->memory_bytes();
    }
  }
  EXPECT_EQ(sets.size(), 3u);  // http, smtp, and one empty set for the rest
  EXPECT_EQ(signatures.size(), 2u);
  EXPECT_GE(bytes, held);

  const Matcher& whole = db->engine();
  for (const WorkingSet* ws : sets) EXPECT_NE(&whole, ws->matcher.get());
  EXPECT_EQ(db->memory_bytes(), bytes);
}

TEST(Database, SaveLoadRoundTripsFingerprintAndAlgorithm) {
  const auto set = testutil::random_set(64, 7, testutil::case_seed(905));
  const auto text = testutil::random_text(8 * 1024, testutil::case_seed(906));
  const DatabasePtr db = compile(Algorithm::spatch, set);

  const util::Bytes blob = db->save_patterns();
  const DatabasePtr loaded = Database::from_serialized(blob);
  EXPECT_EQ(loaded->algorithm(), Algorithm::spatch);
  EXPECT_EQ(loaded->fingerprint(), db->fingerprint());
  EXPECT_GT(loaded->generation(), db->generation());  // a new compile
  EXPECT_EQ(loaded->pattern_count(), db->pattern_count());
  EXPECT_EQ(loaded->engine().find_matches(text), db->engine().find_matches(text));

  // Explicit algorithm override.
  const DatabasePtr overridden = Database::from_serialized(blob, Algorithm::dfc);
  EXPECT_EQ(overridden->algorithm(), Algorithm::dfc);
  EXPECT_EQ(overridden->engine().find_matches(text), db->engine().find_matches(text));
}

// Hints 2 and 10 named deleted engines (sparse AC, Wu-Manber).  A blob
// carrying one must not load as whatever engine the number means later;
// naming an engine explicitly still loads it.
TEST(Database, RetiredAlgorithmHintIsRefused) {
  const DatabasePtr db = compile(Algorithm::dfc, small_set());
  for (const std::uint8_t retired : {std::uint8_t{2}, std::uint8_t{10}}) {
    util::Bytes blob = db->save_patterns();
    ASSERT_EQ(blob[12], static_cast<std::uint8_t>(Algorithm::dfc));  // the v2 hint byte
    blob[12] = retired;
    EXPECT_THROW(Database::from_serialized(blob), std::invalid_argument) << int{retired};
    const DatabasePtr loaded = Database::from_serialized(blob, Algorithm::dfc);
    EXPECT_EQ(loaded->algorithm(), Algorithm::dfc);
    EXPECT_EQ(loaded->fingerprint(), db->fingerprint());
  }
}

TEST(Database, FromSerializedV1NeedsExplicitAlgorithm) {
  const auto set = small_set();
  const util::Bytes v1 = pattern::serialize_patterns(set);  // header-less legacy blob
  EXPECT_THROW(Database::from_serialized(v1), std::invalid_argument);
  const DatabasePtr db = Database::from_serialized(v1, Algorithm::aho_corasick);
  EXPECT_EQ(db->pattern_count(), set.size());
  EXPECT_EQ(db->fingerprint(), Database::fingerprint_of(set));
}

// save_patterns() output of a version that appended each group's prefilter
// signature to the blob: compile(Algorithm::dfc, two http patterns), whose
// v2 header and records (56 bytes) are followed by the section (magic
// "VPMPF1").
constexpr std::uint8_t kBlobWithSignatureSection[] = {
    0x56, 0x50, 0x4D, 0x44, 0x42, 0x32, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x04, 0x00, 0x00, 0x00, 0xF8, 0xA9, 0x16, 0x24, 0xB9, 0x04, 0x79, 0x7E,
    0x02, 0x00, 0x00, 0x00, 0x0A, 0x00, 0x00, 0x00, 0x01, 0x01, 0x47, 0x45,
    0x54, 0x20, 0x2F, 0x61, 0x64, 0x6D, 0x69, 0x6E, 0x06, 0x00, 0x00, 0x00,
    0x00, 0x01, 0x70, 0x61, 0x73, 0x73, 0x77, 0x64, 0x56, 0x50, 0x4D, 0x50,
    0x46, 0x31, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0xF8, 0xA9, 0x16, 0x24,
    0xB9, 0x04, 0x79, 0x7E, 0x05, 0x00, 0x00, 0x00, 0x00, 0x01, 0x04, 0x03,
    0x0A, 0x00, 0x02, 0x00, 0x00, 0x00, 0x0A, 0x00, 0x00, 0x00, 0x20, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x01, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x10,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x02, 0x60, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x02, 0x00, 0x02, 0x00,
    0x10, 0x00, 0x00, 0x00, 0x80, 0x02, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x00, 0x02, 0x00, 0x08, 0x00,
    0x00, 0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0xFE, 0x45, 0xFE, 0x3E, 0x75, 0x72, 0xED, 0x8A,
};

// A blob that carries the section loads to the database compile() builds,
// with that version's fingerprint, algorithm and signature words.  Saved
// again, it is the header and records alone.
TEST(Database, LoadsBlobSavedWithSignatureSection) {
  const util::ByteView blob(kBlobWithSignatureSection);
  const DatabasePtr loaded = Database::from_serialized(blob);
  EXPECT_EQ(loaded->fingerprint(), 0x7E7904B92416A9F8ull);
  EXPECT_EQ(loaded->algorithm(), Algorithm::dfc);
  EXPECT_EQ(testutil::signature_checksum(*loaded), 0x7B5F7297u);

  pattern::PatternSet set;
  set.add("GET /admin", true, pattern::Group::http);
  set.add("passwd", false, pattern::Group::http);
  const DatabasePtr compiled = compile(Algorithm::dfc, set);
  EXPECT_EQ(loaded->fingerprint(), compiled->fingerprint());
  EXPECT_EQ(testutil::signature_checksum(*loaded), testutil::signature_checksum(*compiled));
  EXPECT_EQ(loaded->save_patterns(), util::Bytes(blob.begin(), blob.begin() + 56));
}

TEST(Database, FromSerializedRejectsCorruptPayload) {
  const DatabasePtr db = compile(Algorithm::naive, small_set());
  util::Bytes blob = db->save_patterns();

  // Flip one pattern byte: content no longer matches the stored fingerprint.
  blob[blob.size() - 1] ^= 0x01;
  EXPECT_THROW(Database::from_serialized(blob), std::invalid_argument);

  // Zeroing the fingerprint field must not disable the integrity check: a
  // v2 blob without a matching fingerprint is rejected outright.
  util::Bytes zeroed = db->save_patterns();
  for (std::size_t i = 16; i < 24; ++i) zeroed[i] = 0;
  EXPECT_THROW(Database::from_serialized(zeroed), std::invalid_argument);

  // Truncation at EVERY prefix length must throw, never crash or misparse
  // (the v2 header is 28 bytes; cuts inside header, counts, and pattern
  // records all land here).
  const util::Bytes good = db->save_patterns();
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_THROW(Database::from_serialized(util::ByteView(good.data(), cut)),
                 std::invalid_argument)
        << "cut=" << cut;
  }

  // Bad magic / unsupported version.
  util::Bytes bad_magic = good;
  bad_magic[5] = '9';
  EXPECT_THROW(Database::from_serialized(bad_magic), std::invalid_argument);
  util::Bytes bad_version = good;
  bad_version[8] = 99;
  EXPECT_THROW(Database::from_serialized(bad_version), std::invalid_argument);
}

TEST(Scanner, RebindMovesSessionToNewDatabase) {
  pattern::PatternSet first;
  first.add("alpha");
  pattern::PatternSet second;
  second.add("beta");

  Scanner scanner(compile(Algorithm::vpatch, first));
  const auto text = util::as_view("alpha beta alpha");
  EXPECT_EQ(scanner.count_matches(text), 2u);

  scanner.rebind(compile(Algorithm::vpatch, second));
  EXPECT_EQ(scanner.count_matches(text), 1u);
  EXPECT_THROW(scanner.rebind(nullptr), std::invalid_argument);
}

TEST(Scanner, NullDatabaseRejected) {
  EXPECT_THROW(Scanner{nullptr}, std::invalid_argument);
}

}  // namespace
}  // namespace vpm
