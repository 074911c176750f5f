// Seed-corpus generator for the fuzz harnesses.
//
// Emits one directory per harness under the output root (pcap/, rules/,
// patterndb/, packet/), built from the repo's own writers — so every seed
// starts structurally valid and the mutations (truncation, patched length
// fields, garbage tails) sit one bit-flip from real coverage instead of dying
// in the magic check.  Deterministic: same binary, same bytes, so the
// committed corpus is reproducible with `fuzz_make_corpus fuzz/corpus`,
// except patterndb/saved-with-signatures.bin: a Database::save_patterns()
// blob from a version that appended each group's prefilter signature after
// the records, kept so the loader keeps meeting that layout.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>

#include "core/database.hpp"
#include "net/flowgen.hpp"
#include "net/pcap.hpp"
#include "pattern/ruleset_gen.hpp"
#include "pattern/serialize.hpp"
#include "pattern/snort_rules.hpp"
#include "util/bytes.hpp"

namespace fs = std::filesystem;
using vpm::util::Bytes;

namespace {

void write_file(const fs::path& path, const void* data, std::size_t size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
  if (!out) {
    std::fprintf(stderr, "make_seed_corpus: failed to write %s\n", path.c_str());
    std::exit(1);
  }
}

void write_file(const fs::path& path, const Bytes& bytes) {
  write_file(path, bytes.data(), bytes.size());
}

void write_file(const fs::path& path, std::string_view text) {
  write_file(path, text.data(), text.size());
}

// splitmix64: cheap deterministic byte stream for the script-style seeds.
std::uint64_t mix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Bytes random_bytes(std::uint64_t seed, std::size_t n) {
  Bytes out(n);
  std::uint64_t state = seed;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 8 == 0) state = seed + i;
    out[i] = static_cast<std::uint8_t>(mix(state) >> (8 * (i % 8)));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root-dir>\n", argv[0]);
    return 2;
  }
  const fs::path root = argv[1];
  for (const char* sub : {"pcap", "rules", "patterndb", "packet"}) {
    fs::create_directories(root / sub);
  }

  // ---- pcap/ ----------------------------------------------------------
  {
    vpm::net::FlowGenConfig cfg;
    cfg.flow_count = 3;
    cfg.bytes_per_flow = 2000;
    cfg.mss = 300;
    cfg.reorder_fraction = 0.25;
    cfg.seed = 7;
    const Bytes plain = vpm::net::write_pcap(vpm::net::generate_flows(cfg).packets);
    write_file(root / "pcap/flows.pcap", plain);

    cfg.evasion = true;
    cfg.seed = 11;
    const Bytes evasion = vpm::net::write_pcap(vpm::net::generate_flows(cfg).packets);
    write_file(root / "pcap/evasion.pcap", evasion);

    // Mid-record truncation: valid header, last record cut short.
    Bytes truncated(plain.begin(), plain.begin() + static_cast<long>(plain.size() * 2 / 3));
    write_file(root / "pcap/truncated.pcap", truncated);

    // Lying cap_len: first record claims far more than the file holds.
    Bytes badlen = plain;
    if (badlen.size() >= 36) {
      badlen[32] = 0xFF; badlen[33] = 0xFF; badlen[34] = 0xFF; badlen[35] = 0x7F;
    }
    write_file(root / "pcap/badlen.pcap", badlen);

    // Header-only capture, and bytes that fail the magic check.
    write_file(root / "pcap/header-only.pcap", Bytes(plain.begin(), plain.begin() + 24));
    write_file(root / "pcap/garbage.bin", random_bytes(3, 96));
  }

  // ---- rules/ ---------------------------------------------------------
  {
    vpm::pattern::RulesetConfig cfg = vpm::pattern::s1_config(5);
    cfg.count = 40;
    write_file(root / "rules/generated.rules",
               vpm::pattern::render_rules(vpm::pattern::generate_ruleset(cfg)));

    write_file(root / "rules/handcrafted.rules", std::string_view(
        "# comment line\n"
        "alert tcp any any -> any 80 (msg:\"hex run\"; content:\"|de ad be ef|\"; sid:1;)\n"
        "alert tcp any any -> any any (msg:\"escapes\"; content:\"a\\;b\\\"c\\\\d\"; nocase; sid:2;)\n"
        "alert udp any any -> any 53 (msg:\"mixed\"; content:\"GET |2f 2e 2e|/\"; content:\"short\"; sid:3;)\n"
        "alert tcp any any -> any 80 (msg:\"unterminated hex\"; content:\"|de ad\"; sid:4;)\n"
        "alert tcp any any -> any 80 (msg:\"empty\"; content:\"\"; sid:5;)\n"
        "not a rule at all\n"
        "alert tcp any any -> any 80 (msg:\"no content\"; sid:6;)\n"));
  }

  // ---- patterndb/ -----------------------------------------------------
  {
    vpm::pattern::RulesetConfig cfg = vpm::pattern::s1_config(9);
    cfg.count = 24;
    const vpm::pattern::PatternSet set = vpm::pattern::generate_ruleset(cfg);

    const Bytes v1 = vpm::pattern::serialize_patterns(set);
    write_file(root / "patterndb/v1.bin", v1);

    vpm::pattern::DbHeader header;
    header.algorithm_hint = 3;
    header.fingerprint = 0x1122334455667788ull;
    const Bytes v2 = vpm::pattern::serialize_patterns(set, header);
    write_file(root / "patterndb/v2.bin", v2);

    // What Database::save_patterns() writes: a v2 blob whose fingerprint
    // matches, so the loader's checks pass and it compiles the patterns.
    write_file(root / "patterndb/saved.bin",
               vpm::compile(vpm::core::Algorithm::naive, set)->save_patterns());

    write_file(root / "patterndb/truncated.bin",
               Bytes(v2.begin(), v2.begin() + static_cast<long>(v2.size() / 2)));

    // Implausible pattern count: the count field claims ~4 billion entries.
    Bytes badcount = v1;
    if (badcount.size() >= 12) {
      badcount[8] = 0xFF; badcount[9] = 0xFF; badcount[10] = 0xFF; badcount[11] = 0xFF;
    }
    write_file(root / "patterndb/badcount.bin", badcount);

    write_file(root / "patterndb/garbage.bin", random_bytes(17, 128));
  }

  // ---- packet/ --------------------------------------------------------
  {
    // Script seeds for fuzz_packet: pure pseudorandom streams at a few sizes
    // plus one structured script that walks every opcode with overlapping
    // offsets on one connection.
    write_file(root / "packet/random-small.bin", random_bytes(23, 64));
    write_file(root / "packet/random-medium.bin", random_bytes(29, 512));
    write_file(root / "packet/random-large.bin", random_bytes(31, 4096));

    Bytes script;
    script.push_back(0x01);  // policy=last, small budget
    const auto segment = [&script](std::uint8_t tuple_sel, std::uint16_t seq_off,
                                   std::uint8_t flags, std::uint8_t len) {
      script.push_back(0x00);  // op: segment
      script.push_back(tuple_sel);
      script.push_back(static_cast<std::uint8_t>(seq_off >> 8));
      script.push_back(static_cast<std::uint8_t>(seq_off & 0xFF));
      script.push_back(flags);
      script.push_back(len);
      for (std::uint8_t i = 0; i < len % 160; ++i) script.push_back(i);
    };
    segment(0, 0, 0x02, 0);        // SYN
    segment(0, 1, 0x18, 100);      // in-order data
    segment(0, 201, 0x18, 100);    // hole
    segment(0, 151, 0x18, 100);    // overlap bridging the hole
    segment(4, 0, 0x18, 50);       // reverse direction, mid-stream pickup
    segment(1, 0, 0x18, 120);      // second connection
    script.push_back(0x06); script.push_back(0x04);  // close conn 0 via reverse tuple
    segment(1, 50, 0x01, 0);       // FIN on connection 1
    script.push_back(0x07); script.push_back(0x01);  // idle eviction
    segment(2, 0, 0x04, 0);        // RST on fresh connection
    write_file(root / "packet/structured.bin", script);
  }

  std::printf("make_seed_corpus: wrote corpus under %s\n", root.c_str());
  return 0;
}
