// End-to-end packet pipeline: pcap bytes -> bidirectional TCP reassembly ->
// protocol classification -> grouped IDS inspection.  The full path a
// deployed sensor runs, assembled from the library's pieces.
#pragma once

#include <vector>

#include "ids/engine.hpp"
#include "net/pcap.hpp"
#include "net/reassembly.hpp"

namespace vpm::ids {

struct PcapPipelineResult {
  std::vector<Alert> alerts;
  EngineCounters counters;
  std::size_t packets = 0;
  std::size_t skipped_records = 0;
  net::ReassemblyStats reassembly;
};

// Classifies a flow by its server-side port, mirroring how Snort binds rule
// groups to port groups.  For reassembled TCP this is StreamChunk::server_port
// (the client's destination), so BOTH directions of a connection classify
// into the same group; for UDP it is the datagram's destination port.
pattern::Group classify_port(std::uint16_t dst_port);

// Parses `pcap_bytes`, reassembles every TCP flow bidirectionally (each side
// scans as its own stream; UDP payloads are scanned per-datagram), and
// inspects each stream against its group's working set in `db` (alerts
// carry db->generation()).
PcapPipelineResult inspect_pcap(util::ByteView pcap_bytes, DatabasePtr db);

}  // namespace vpm::ids
