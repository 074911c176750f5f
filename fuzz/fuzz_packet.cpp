// Fuzz target: the TCP reassembler's state machine (net/reassembly.cpp).
//
// The input bytes are a script: the first byte picks the overlap policy and
// a small buffering budget, then each record synthesizes one TCP segment
// (tuple from a 4-connection pool, both directions, offsets chosen to
// collide and overlap aggressively) or a lifecycle event (close, idle
// eviction).  Contract: no crash, no sanitizer report, and the pending
// window's non-overlap/budget invariants hold for ANY interleaving — the
// reassembler is the component facing attacker-sequenced input directly.
#include <cstddef>
#include <cstdint>

#include "net/packet.hpp"
#include "net/reassembly.hpp"

namespace {

struct Reader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t off = 0;

  bool done() const { return off >= size; }
  std::uint8_t u8() { return done() ? 0 : data[off++]; }
  std::uint16_t u16() { return static_cast<std::uint16_t>(u8() << 8 | u8()); }
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  Reader in{data, size};

  const std::uint8_t setup = in.u8();
  vpm::net::ReassemblyConfig cfg;
  cfg.overlap = static_cast<vpm::net::OverlapPolicy>(setup & 0x3);
  // Small budget so overflow paths run on tiny inputs too.
  cfg.max_buffered_bytes = 64u << (setup >> 2 & 0x7);  // 64 B .. 8 KiB

  std::uint64_t delivered = 0;
  vpm::net::TcpReassembler reasm(
      [&delivered](const vpm::net::StreamChunk& chunk) { delivered += chunk.data.size(); },
      cfg);

  // Four distinct connections; index bit 2 flips direction.
  const auto tuple_for = [](std::uint8_t sel) {
    vpm::net::FiveTuple t;
    t.src_ip = 0x0A000001u + (sel & 0x3);
    t.dst_ip = 0xC0A80001u;
    t.src_port = static_cast<std::uint16_t>(40000 + (sel & 0x3));
    t.dst_port = 80;
    return (sel & 0x4) != 0 ? t.reversed() : t;
  };

  std::uint64_t now_us = 0;
  while (!in.done()) {
    const std::uint8_t op = in.u8();
    now_us += 1000;
    switch (op & 0x7) {
      case 6: {  // explicit close (either direction's tuple)
        reasm.close_flow(tuple_for(in.u8()));
        break;
      }
      case 7: {  // idle eviction with a scripted horizon
        reasm.evict_idle_step(now_us, (static_cast<std::uint64_t>(in.u8()) + 1) * 500,
                              reasm.table_capacity());
        break;
      }
      default: {  // synthesize one segment
        vpm::net::Packet p;
        p.timestamp_us = now_us;
        p.tuple = tuple_for(in.u8());
        // 16-bit offsets around a shared base force overlaps and holes.
        p.tcp_seq = 100000u + in.u16();
        p.tcp_flags = in.u8();
        const std::size_t len = in.u8() % 160;
        p.payload.resize(len);
        for (std::size_t i = 0; i < len; ++i) p.payload[i] = in.u8();
        reasm.ingest(p);
        break;
      }
    }
  }

  // Tear everything down through the eviction path as well.
  reasm.evict_idle_step(now_us + 1, 1, reasm.table_capacity());
  (void)delivered;
  (void)reasm.stats();
  return 0;
}
