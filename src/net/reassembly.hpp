// Bidirectional, lifecycle-aware TCP stream reassembly.
//
// The NIDS scans reassembled byte streams, not individual packets (a pattern
// may straddle segments, and attackers deliberately fragment payloads).  The
// reassembler tracks one connection per canonical 5-tuple with TWO per-side
// streams (client→server and server→client), follows the SYN/FIN/RST
// lifecycle with connection start/end callbacks, buffers out-of-order
// segments per side, resolves overlapping retransmits under a configurable
// policy, and emits each side's in-order prefix as contiguous chunks — which
// the pipeline workers stage into ids::IdsEngine.
//
// Overlap model.  Bytes already delivered to the callback can never be
// retracted, so data overlapping the delivered prefix is always discarded
// ("first wins" there, under every policy — the same choice Suricata and
// PcapPlusPlus make).  The policy governs conflicts INSIDE the buffered
// out-of-order window, where classic IDS evasion plants contradictory
// retransmits:
//   first        buffered bytes win; a new segment only fills holes
//                (the pre-rework semantics, and the default)
//   last         the new segment's bytes replace whatever was buffered
//   target_bsd   the new segment wins only where it starts strictly before
//                the buffered segment it overlaps (4.4BSD pullup behavior)
//   target_linux like BSD, but the new segment also wins when the starts tie
// The pending window holds NON-overlapping segments by invariant: every
// conflict is resolved at insertion, so buffered bytes are counted exactly
// once against the budget and the drain path needs no overlap arbitration.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string_view>
#include <vector>

#include "net/packet.hpp"
#include "util/flow_table.hpp"

namespace vpm::telemetry {
class Histogram;
}

namespace vpm::net {

enum class Direction : std::uint8_t { client_to_server = 0, server_to_client = 1 };

inline constexpr const char* direction_name(Direction d) {
  return d == Direction::client_to_server ? "c2s" : "s2c";
}

enum class OverlapPolicy : std::uint8_t { first, last, target_bsd, target_linux };

constexpr const char* overlap_policy_name(OverlapPolicy p) {
  switch (p) {
    case OverlapPolicy::first: return "first";
    case OverlapPolicy::last: return "last";
    case OverlapPolicy::target_bsd: return "target_bsd";
    case OverlapPolicy::target_linux: return "target_linux";
  }
  return "?";
}

std::optional<OverlapPolicy> overlap_policy_from_name(std::string_view name);

// Why a connection went away (the end-callback reason).
enum class EndReason : std::uint8_t {
  fin,      // both sides FINed and every byte up to each FIN was delivered
  rst,      // RST teardown (buffered data is discarded, as the endpoint would)
  closed,   // explicit close_flow()
  evicted,  // idle eviction
};

constexpr const char* end_reason_name(EndReason r) {
  switch (r) {
    case EndReason::fin: return "fin";
    case EndReason::rst: return "rst";
    case EndReason::closed: return "closed";
    case EndReason::evicted: return "evicted";
  }
  return "?";
}

struct ReassemblyConfig {
  // Per-connection cap on buffered out-of-order bytes (both sides share it);
  // overflow drops the segment and counts it (defense against
  // state-exhaustion).  The non-overlap invariant means every buffered byte
  // is counted exactly once.
  std::size_t max_buffered_bytes = 1 << 20;
  OverlapPolicy overlap = OverlapPolicy::first;
};

// One side's delivery/conflict counters.
struct SideStats {
  std::uint64_t segments = 0;         // TCP segments ingested for this side
  std::uint64_t chunks = 0;           // in-order chunks delivered
  std::uint64_t delivered_bytes = 0;  // bytes handed to the chunk callback
  // New-segment bytes discarded because already-delivered or buffered data
  // won under the policy (retransmits, losing overlaps).
  std::uint64_t overlap_bytes_trimmed = 0;
  // Buffered bytes replaced in place because the NEW segment won the policy
  // conflict (last/target policies only).
  std::uint64_t overwritten_bytes = 0;
};

struct ReassemblyStats {
  SideStats side[2];  // indexed by Direction
  std::uint64_t dropped_segments = 0;       // budget overflows
  std::uint64_t discarded_on_close_bytes = 0;  // pending bytes dropped by
                                               // RST/close/eviction
  std::uint64_t connections_started = 0;
  std::uint64_t connections_ended = 0;
  std::uint64_t resets = 0;  // RST segments honored
  std::uint64_t fins = 0;    // FIN segments honored
  std::uint64_t evicted_flows = 0;

  std::uint64_t overlap_bytes_trimmed() const {
    return side[0].overlap_bytes_trimmed + side[1].overlap_bytes_trimmed;
  }
};

// One in-order chunk of one side's stream, plus the context a consumer needs
// to key and classify it without tracking connections itself.
struct StreamChunk {
  const FiveTuple& tuple;     // directional tuple (src = sender of the bytes)
  Direction dir;
  std::uint16_t server_port;  // the client side's destination port — the
                              // classification port for BOTH directions
  std::uint64_t offset;       // absolute stream offset of data[0] on this side
  util::ByteView data;
};

class TcpReassembler {
 public:
  using ChunkCallback = std::function<void(const StreamChunk&)>;
  // `client_tuple` is the initiator-side tuple (src = client); the other
  // side's stream is keyed by client_tuple.reversed().
  using ConnectionStartCallback = std::function<void(const FiveTuple& client_tuple)>;
  using ConnectionEndCallback =
      std::function<void(const FiveTuple& client_tuple, EndReason reason)>;

  explicit TcpReassembler(ChunkCallback on_chunk, ReassemblyConfig cfg = {})
      : on_chunk_(std::move(on_chunk)), cfg_(cfg) {}

  // Lifecycle callbacks (optional).  Start fires when a connection is first
  // seen (SYN or mid-stream pickup); end fires exactly once per started
  // connection — on FIN completion, RST, close_flow(), or idle eviction —
  // after its last chunk and before its state is dropped.
  void on_connection_start(ConnectionStartCallback cb) { on_start_ = std::move(cb); }
  void on_connection_end(ConnectionEndCallback cb) { on_end_ = std::move(cb); }

  // Ingests one TCP segment; may trigger zero or more chunk callbacks and at
  // most one start + one end callback.  The first data-bearing or SYN
  // segment of a side pins that side's initial sequence number (SYN and FIN
  // each consume one sequence number, per RFC 793).
  void ingest(const Packet& packet);

  // Flushes knowledge of a connection (either direction's tuple); fires the
  // end callback with EndReason::closed if the connection existed.
  void close_flow(const FiveTuple& tuple);

  // Evicts the connections whose last ingested segment is older than
  // `idle_us` relative to `now_us` (packet-capture time, not wall time),
  // examining at most `max_slots` flow-table slots from a persistent
  // rotating cursor.  Bounded work per call — no full-sweep latency spike at
  // million-flow scale; repeated calls cycle the whole table (capacity() /
  // max_slots calls per full pass), so idle flows are still found, just with
  // bounded lag.  max_slots >= table_capacity() is a full sweep.  Buffered
  // out-of-order data of evicted connections is discarded (and counted in
  // discarded_on_close_bytes).  The end callback fires per eviction with
  // EndReason::evicted; the returned client-side tuples let callers without
  // an end callback tear down dependent state.  idle_us == 0 evicts nothing.
  std::vector<FiveTuple> evict_idle_step(std::uint64_t now_us, std::uint64_t idle_us,
                                         std::size_t max_slots);

  // Flow-table slot count (capacity of the open-addressing table); the
  // denominator for incremental-eviction cycle length.
  std::size_t table_capacity() const { return conns_.capacity(); }

  std::size_t active_flows() const { return conns_.size(); }
  const ReassemblyStats& stats() const { return stats_; }
  OverlapPolicy policy() const { return cfg_.overlap; }

  // Optional instrumentation: every delivered chunk's size in bytes is
  // recorded into `h` (relaxed-atomic, allocation-free).  Null disables; the
  // histogram must outlive the reassembler.
  void set_chunk_histogram(telemetry::Histogram* h) { chunk_hist_ = h; }

 private:
  struct StreamState {
    std::uint32_t initial_seq = 0;  // sequence number of stream offset 0
    bool pinned = false;
    bool fin_seen = false;
    std::uint64_t fin_offset = 0;   // stream offset the FIN occupies
    std::uint64_t next_offset = 0;  // stream offset expected next
    // Out-of-order segments keyed by stream offset.  Invariant: ranges are
    // pairwise disjoint and start at or after next_offset.
    std::map<std::uint64_t, util::Bytes> pending;
    std::size_t pending_bytes = 0;
  };

  struct ConnectionState {
    // sides[0] = client's directional tuple, sides[1] = its reverse; stored
    // both ways so chunk delivery never materializes a temporary tuple.
    FiveTuple sides[2];
    StreamState streams[2];
    std::uint64_t last_activity_us = 0;
  };

  struct TupleHash {
    std::size_t operator()(const FiveTuple& t) const { return t.hash(); }
  };
  // Open-addressing with stable ConnectionState pointers and an incremental
  // sweep cursor — the structure evict_idle_step's bounded work rides on.
  using ConnMap = util::FlowTable<FiveTuple, ConnectionState, TupleHash>;

  std::size_t pending_total(const ConnectionState& conn) const {
    return conn.streams[0].pending_bytes + conn.streams[1].pending_bytes;
  }

  void deliver(const ConnectionState& conn, Direction dir, std::uint64_t offset,
               util::ByteView data);
  // Inserts [begin, begin+len) into the pending window, resolving overlaps
  // against buffered segments under the configured policy.
  void merge_insert(ConnectionState& conn, Direction dir, std::uint64_t begin,
                    const std::uint8_t* src, std::size_t len);
  // Buffers one non-overlapping piece; false when the budget dropped it
  // (the rest of the segment is dropped with it).
  bool insert_piece(ConnectionState& conn, StreamState& side, std::uint64_t begin,
                    const std::uint8_t* src, std::size_t len);
  void drain(ConnectionState& conn, Direction dir);
  // Trims buffered data at or past the side's FIN offset.
  void truncate_past_fin(StreamState& side, Direction dir);
  bool both_sides_done(const ConnectionState& conn) const;
  // Fires the end callback and counts discarded pending bytes.  Does NOT
  // erase: callers erase via the table (or return true from a sweep) so the
  // teardown works identically from point lookups and bounded sweeps.  The
  // end callback must not reenter this reassembler (the pipeline worker's
  // tears down engine state only).
  void finish_connection(ConnectionState& conn, EndReason reason);

  ChunkCallback on_chunk_;
  ConnectionStartCallback on_start_;
  ConnectionEndCallback on_end_;
  telemetry::Histogram* chunk_hist_ = nullptr;
  ReassemblyConfig cfg_;
  ConnMap conns_;  // keyed by canonical (direction-less) tuple
  ReassemblyStats stats_;
};

}  // namespace vpm::net
