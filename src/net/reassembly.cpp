#include "net/reassembly.hpp"

#include <algorithm>

#include "telemetry/metrics.hpp"
#include "util/failpoint.hpp"

namespace vpm::net {

std::optional<OverlapPolicy> overlap_policy_from_name(std::string_view name) {
  if (name == "first") return OverlapPolicy::first;
  if (name == "last") return OverlapPolicy::last;
  if (name == "target_bsd" || name == "bsd") return OverlapPolicy::target_bsd;
  if (name == "target_linux" || name == "linux") return OverlapPolicy::target_linux;
  return std::nullopt;
}

void TcpReassembler::ingest(const Packet& packet) {
  if (packet.tuple.proto != IpProto::tcp) return;
  const bool syn = (packet.tcp_flags & kTcpSyn) != 0;
  const bool fin = (packet.tcp_flags & kTcpFin) != 0;
  const bool rst = (packet.tcp_flags & kTcpRst) != 0;

  const FiveTuple key = packet.tuple.canonical();
  ConnectionState* found = conns_.find(key);
  if (found == nullptr) {
    // Don't materialize state for stray empty ACKs of unknown connections
    // (state-exhaustion hygiene), and an RST for an unknown connection has
    // nothing to tear down.
    if (rst || (packet.payload.empty() && !syn && !fin)) return;
    found = conns_
                .find_or_emplace(key,
                                 [&] {
                                   ConnectionState conn;
                                   // The first packet's sender is the client —
                                   // unless it is the server's SYN|ACK of a
                                   // handshake whose SYN the capture missed.
                                   const bool from_server =
                                       syn && (packet.tcp_flags & kTcpAck) != 0;
                                   conn.sides[0] = from_server
                                                       ? packet.tuple.reversed()
                                                       : packet.tuple;
                                   conn.sides[1] = conn.sides[0].reversed();
                                   return conn;
                                 })
                .first;
    ++stats_.connections_started;
    if (on_start_) on_start_(found->sides[0]);
  }
  ConnectionState& conn = *found;
  conn.last_activity_us = std::max(conn.last_activity_us, packet.timestamp_us);
  const Direction dir = packet.tuple == conn.sides[0] ? Direction::client_to_server
                                                      : Direction::server_to_client;
  const auto d = static_cast<std::size_t>(dir);
  StreamState& side = conn.streams[d];
  SideStats& ss = stats_.side[d];
  ++ss.segments;

  if (rst) {
    // RST tears the connection down immediately; its payload (if any) is
    // ignored, as the endpoint would ignore it.
    ++stats_.resets;
    finish_connection(conn, EndReason::rst);
    conns_.erase(key);
    return;
  }

  // SYN consumes one sequence number: stream byte 0 lives at seq+1.
  const std::uint32_t data_seq = packet.tcp_seq + (syn ? 1u : 0u);
  if (!side.pinned) {
    side.initial_seq = data_seq;
    side.pinned = true;
  }

  // Wrap-safe placement: the 32-bit delta from the NEXT EXPECTED sequence
  // number, interpreted as signed, places a segment just below the window
  // (TCP keep-alive probe, retransmit of the pinning byte) as before-window
  // overlap instead of far-future data — and keeps streams longer than
  // 4 GiB working, since only the delta is 32-bit.
  const std::uint32_t expected_seq =
      side.initial_seq + static_cast<std::uint32_t>(side.next_offset);
  const auto delta = static_cast<std::int32_t>(data_seq - expected_seq);
  std::int64_t begin_signed = static_cast<std::int64_t>(side.next_offset) + delta;

  if (fin && !side.fin_seen) {
    // The FIN occupies the sequence slot right after this segment's data; a
    // FIN claiming a spot before data already delivered clamps forward (the
    // bytes cannot be un-delivered).
    const std::int64_t fo = begin_signed + static_cast<std::int64_t>(packet.payload.size());
    side.fin_seen = true;
    side.fin_offset = fo < static_cast<std::int64_t>(side.next_offset)
                          ? side.next_offset
                          : static_cast<std::uint64_t>(fo);
    ++stats_.fins;
    truncate_past_fin(side, dir);
  }

  const std::uint8_t* src = packet.payload.data();
  std::size_t len = packet.payload.size();

  // Bytes before the stream's first byte (keep-alive garbage, SYN-adjacent
  // retransmits) are outside the stream entirely.
  if (len > 0 && begin_signed < 0) {
    const auto cut = static_cast<std::uint64_t>(-begin_signed);
    const std::size_t trim = static_cast<std::size_t>(std::min<std::uint64_t>(cut, len));
    ss.overlap_bytes_trimmed += trim;
    src += trim;
    len -= trim;
    begin_signed = 0;
  }
  std::uint64_t begin = static_cast<std::uint64_t>(begin_signed);

  // Data at or past the side's FIN never reaches the endpoint
  // (FIN-then-more-data evasion): trim it.
  if (len > 0 && side.fin_seen && begin + len > side.fin_offset) {
    const std::uint64_t keep = begin < side.fin_offset ? side.fin_offset - begin : 0;
    ss.overlap_bytes_trimmed += len - static_cast<std::size_t>(keep);
    len = static_cast<std::size_t>(keep);
  }

  // Trim the prefix already delivered.  Delivered bytes can never be
  // retracted, so this is first-wins under every policy.
  if (len > 0 && begin < side.next_offset) {
    const auto cut =
        static_cast<std::size_t>(std::min<std::uint64_t>(side.next_offset - begin, len));
    ss.overlap_bytes_trimmed += cut;
    src += cut;
    len -= cut;
    begin += cut;
  }

  if (len > 0) {
    if (begin == side.next_offset &&
        (side.pending.empty() || side.pending.begin()->first >= begin + len)) {
      // Fast path: in-order and clear of the pending window — deliver
      // zero-copy straight from the packet payload.
      deliver(conn, dir, begin, {src, len});
      side.next_offset = begin + len;
      drain(conn, dir);
    } else {
      merge_insert(conn, dir, begin, src, len);
      drain(conn, dir);
    }
  }

  if (both_sides_done(conn)) {
    finish_connection(conn, EndReason::fin);
    conns_.erase(key);
  }
}

void TcpReassembler::deliver(const ConnectionState& conn, Direction dir,
                             std::uint64_t offset, util::ByteView data) {
  const auto d = static_cast<std::size_t>(dir);
  SideStats& ss = stats_.side[d];
  ++ss.chunks;
  ss.delivered_bytes += data.size();
  if (chunk_hist_ != nullptr) chunk_hist_->record(static_cast<double>(data.size()));
  const StreamChunk chunk{conn.sides[d], dir, conn.sides[0].dst_port, offset, data};
  on_chunk_(chunk);
}

void TcpReassembler::merge_insert(ConnectionState& conn, Direction dir,
                                  std::uint64_t begin, const std::uint8_t* src,
                                  std::size_t len) {
  StreamState& side = conn.streams[static_cast<std::size_t>(dir)];
  SideStats& ss = stats_.side[static_cast<std::size_t>(dir)];
  // Target policies compare the ORIGINAL segment starts, not the start of
  // whatever piece survives earlier arbitration.
  const std::uint64_t new_begin = begin;

  // First buffered segment whose range could overlap [begin, ...).
  auto it = side.pending.upper_bound(begin);
  if (it != side.pending.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.size() > begin) it = prev;
  }

  std::uint64_t cur = begin;
  while (len > 0) {
    const std::uint64_t cur_end = cur + len;
    if (it == side.pending.end() || it->first >= cur_end) {
      // Pure hole: buffer the rest of the segment.
      insert_piece(conn, side, cur, src, len);
      return;
    }
    const std::uint64_t old_begin = it->first;
    const std::uint64_t old_end = old_begin + it->second.size();
    if (old_end <= cur) {
      ++it;
      continue;
    }
    if (cur < old_begin) {
      // Hole before the next buffered segment.
      const auto piece = static_cast<std::size_t>(old_begin - cur);
      if (!insert_piece(conn, side, cur, src, piece)) return;
      cur += piece;
      src += piece;
      len -= piece;
      continue;
    }
    // Conflict region [cur, min(cur_end, old_end)): arbitrate per policy.
    const auto ov =
        static_cast<std::size_t>(std::min<std::uint64_t>(cur_end, old_end) - cur);
    const bool new_wins =
        cfg_.overlap == OverlapPolicy::last ||
        (cfg_.overlap == OverlapPolicy::target_bsd && new_begin < old_begin) ||
        (cfg_.overlap == OverlapPolicy::target_linux && new_begin <= old_begin);
    if (new_wins) {
      // Replace in place: sizes don't change, so the non-overlap invariant
      // and the budget accounting are untouched.
      std::copy_n(src, ov, it->second.data() + static_cast<std::size_t>(cur - old_begin));
      ss.overwritten_bytes += ov;
    } else {
      ss.overlap_bytes_trimmed += ov;
    }
    cur += ov;
    src += ov;
    len -= ov;
    if (cur >= old_end) ++it;
  }
}

bool TcpReassembler::insert_piece(ConnectionState& conn, StreamState& side,
                                  std::uint64_t begin, const std::uint8_t* src,
                                  std::size_t len) {
  if (len == 0) return true;
  // Chaos hook first: an injected "budget exhausted" takes the identical
  // code path (and counters) as the real one.
  if (util::failpoint::should_fail(util::failpoint::Site::reassembly_buffer) ||
      pending_total(conn) + len > cfg_.max_buffered_bytes) {
    ++stats_.dropped_segments;
    return false;
  }
  side.pending.emplace(begin, util::Bytes(src, src + len));
  side.pending_bytes += len;
  return true;
}

void TcpReassembler::drain(ConnectionState& conn, Direction dir) {
  StreamState& side = conn.streams[static_cast<std::size_t>(dir)];
  SideStats& ss = stats_.side[static_cast<std::size_t>(dir)];
  auto it = side.pending.begin();
  while (it != side.pending.end() && it->first <= side.next_offset) {
    const std::uint64_t begin = it->first;
    util::Bytes& bytes = it->second;
    // The non-overlap invariant means a buffered segment never starts below
    // next_offset once it is reachable; keep the partial-skip arbitration
    // defensive (and exactly counted) anyway.
    std::size_t skip = 0;
    if (begin < side.next_offset) {
      skip = static_cast<std::size_t>(side.next_offset - begin);
      if (skip >= bytes.size()) {
        ss.overlap_bytes_trimmed += bytes.size();
        side.pending_bytes -= bytes.size();
        it = side.pending.erase(it);
        continue;
      }
      ss.overlap_bytes_trimmed += skip;
    }
    deliver(conn, dir, side.next_offset, {bytes.data() + skip, bytes.size() - skip});
    side.next_offset = begin + bytes.size();
    side.pending_bytes -= bytes.size();
    it = side.pending.erase(it);
  }
}

void TcpReassembler::truncate_past_fin(StreamState& side, Direction dir) {
  SideStats& ss = stats_.side[static_cast<std::size_t>(dir)];
  auto it = side.pending.lower_bound(side.fin_offset);
  if (it != side.pending.begin()) {
    // A buffered segment straddling the FIN keeps only its head.
    auto prev = std::prev(it);
    const std::uint64_t end = prev->first + prev->second.size();
    if (end > side.fin_offset) {
      const auto cut = static_cast<std::size_t>(end - side.fin_offset);
      ss.overlap_bytes_trimmed += cut;
      prev->second.resize(prev->second.size() - cut);
      side.pending_bytes -= cut;
    }
  }
  while (it != side.pending.end()) {
    ss.overlap_bytes_trimmed += it->second.size();
    side.pending_bytes -= it->second.size();
    it = side.pending.erase(it);
  }
}

bool TcpReassembler::both_sides_done(const ConnectionState& conn) const {
  for (const StreamState& s : conn.streams) {
    if (!s.fin_seen || s.next_offset < s.fin_offset || !s.pending.empty()) return false;
  }
  return true;
}

void TcpReassembler::finish_connection(ConnectionState& conn, EndReason reason) {
  stats_.discarded_on_close_bytes += pending_total(conn);
  ++stats_.connections_ended;
  if (on_end_) on_end_(conn.sides[0], reason);
}

void TcpReassembler::close_flow(const FiveTuple& tuple) {
  const FiveTuple key = tuple.canonical();
  if (ConnectionState* conn = conns_.find(key)) {
    finish_connection(*conn, EndReason::closed);
    conns_.erase(key);
  }
}

std::vector<FiveTuple> TcpReassembler::evict_idle_step(std::uint64_t now_us,
                                                       std::uint64_t idle_us,
                                                       std::size_t max_slots) {
  std::vector<FiveTuple> evicted;
  if (idle_us == 0) return evicted;
  conns_.sweep_step(max_slots, [&](const FiveTuple&, ConnectionState& conn) {
    if (conn.last_activity_us + idle_us > now_us) return false;
    evicted.push_back(conn.sides[0]);
    finish_connection(conn, EndReason::evicted);
    return true;
  });
  stats_.evicted_flows += evicted.size();
  return evicted;
}

}  // namespace vpm::net
