// The whole-stream oracle: the sensor's alert multiset, computed without
// the code that produces it.  net::TcpReassembler joins each directional
// stream, keyed by pipeline::flow_key; a stream is cut at connection end, at
// a ruleset swap and at the end of the input, and only then scanned, whole,
// by core::NaiveMatcher over its group's patterns (the group's own plus the
// generic ones, read from Database::patterns()).  No IdsEngine,
// StreamScanner or WorkingSet is involved, so a bug in the carry, its dedup
// or a group's working set shows up as a divergence.
#pragma once

#include <algorithm>
#include <array>
#include <map>
#include <utility>
#include <vector>

#include "core/database.hpp"
#include "core/naive.hpp"
#include "ids/alert.hpp"
#include "ids/pcap_pipeline.hpp"
#include "net/reassembly.hpp"
#include "pipeline/config.hpp"

namespace vpm::testutil {

struct OracleRun {
  std::vector<ids::Alert> alerts;  // sorted
  std::uint64_t stream_bytes = 0;  // what the engines count as bytes_inspected
  std::uint64_t streams = 0;       // what they count as flows
};

class StreamOracle {
 public:
  explicit StreamOracle(DatabasePtr db) { adopt(std::move(db)); }

  // Appends `chunk` to `flow`'s open stream; the first chunk opens the
  // stream and fixes its group.
  void append(std::uint64_t flow, pattern::Group group, util::ByteView chunk) {
    const auto [it, opened] = open_.try_emplace(flow, Stream{group, {}});
    run_.streams += opened ? 1 : 0;
    run_.stream_bytes += chunk.size();
    it->second.bytes.insert(it->second.bytes.end(), chunk.begin(), chunk.end());
  }

  // Scans `flow`'s stream and closes it; a later chunk opens a fresh one.
  void cut(std::uint64_t flow) {
    const auto it = open_.find(flow);
    if (it == open_.end()) return;
    const GroupPatterns& g = groups_[static_cast<std::size_t>(it->second.group)];
    for (const Match& m : core::NaiveMatcher(g.set).find_matches(it->second.bytes)) {
      run_.alerts.push_back(
          {flow, g.to_master[m.pattern_id], m.pos, it->second.group, db_->generation()});
    }
    open_.erase(it);
  }

  // Ends every open stream under the current rules, then adopts `db`.
  void swap(DatabasePtr db) {
    cut_all();
    adopt(std::move(db));
  }

  // Ends every open stream; returns the run so far.
  OracleRun finish() {
    cut_all();
    std::sort(run_.alerts.begin(), run_.alerts.end());
    return run_;
  }

 private:
  struct Stream {
    pattern::Group group;
    util::Bytes bytes;
  };
  struct GroupPatterns {
    pattern::PatternSet set;
    std::vector<std::uint32_t> to_master;  // local id -> Database id
  };

  // A PatternSet holds each (bytes, nocase) once, so add() hands out local
  // ids 0, 1, 2, ... in order here.
  void adopt(DatabasePtr db) {
    db_ = std::move(db);
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      groups_[g] = {};
      for (const pattern::Pattern& p : db_->patterns()) {
        if (p.group == static_cast<pattern::Group>(g) || p.group == pattern::Group::generic) {
          groups_[g].set.add(p.bytes, p.nocase, p.group);
          groups_[g].to_master.push_back(p.id);
        }
      }
    }
  }

  void cut_all() {
    while (!open_.empty()) cut(open_.begin()->first);
  }

  DatabasePtr db_;
  std::array<GroupPatterns, static_cast<std::size_t>(pattern::Group::count)> groups_;
  std::map<std::uint64_t, Stream> open_;
  OracleRun run_;
};

// Swaps to the database before the packet at the index.
using SwapPoint = std::pair<std::size_t, DatabasePtr>;

// Routes `packets` as a pipeline worker does: TCP through one reassembler,
// each side its own stream grouped by the server port, with connection end
// cutting both sides; UDP payloads straight onto their directional flow's
// stream, grouped by the destination port.
inline OracleRun whole_stream_oracle(const std::vector<net::Packet>& packets, DatabasePtr db,
                                     net::ReassemblyConfig reassembly = {},
                                     const std::vector<SwapPoint>& swaps = {}) {
  StreamOracle oracle(std::move(db));
  net::TcpReassembler reassembler(
      [&](const net::StreamChunk& c) {
        oracle.append(pipeline::flow_key(c.tuple), ids::classify_port(c.server_port), c.data);
      },
      reassembly);
  reassembler.on_connection_end([&](const net::FiveTuple& client, net::EndReason) {
    oracle.cut(pipeline::flow_key(client));
    oracle.cut(pipeline::flow_key(client.reversed()));
  });
  for (std::size_t i = 0; i < packets.size(); ++i) {
    for (const SwapPoint& s : swaps) {
      if (s.first == i) oracle.swap(s.second);
    }
    const net::Packet& p = packets[i];
    if (p.tuple.proto == net::IpProto::tcp) {
      reassembler.ingest(p);
    } else {
      oracle.append(pipeline::flow_key(p.tuple), ids::classify_port(p.tuple.dst_port),
                    p.payload);
    }
  }
  return oracle.finish();
}

}  // namespace vpm::testutil
