// Pcap-file replay as a CaptureSource — the migration target for
// pcap_sensor's bespoke replay loop.  Parses eagerly (a replay file is all
// history; there is nothing to wait for) and serves the decoded packets in
// capture order.
#pragma once

#include <string>

#include "capture/source.hpp"
#include "net/pcap.hpp"

namespace vpm::capture {

class PcapFileSource final : public CaptureSource {
 public:
  // Parses `pcap_bytes` (throws std::invalid_argument on a bad header, like
  // net::read_pcap; malformed records are skipped and counted).  The bytes
  // are not referenced after construction.
  explicit PcapFileSource(util::ByteView pcap_bytes);

  // Reads and parses the file (std::runtime_error when unreadable).
  static PcapFileSource open(const std::string& path);

  std::size_t poll(std::vector<net::Packet>& out, std::size_t max_packets) override;
  bool exhausted() const override { return cursor_ >= parsed_.packets.size(); }
  std::string_view kind() const override { return "pcap"; }
  CaptureStats stats() const override { return stats_; }

  std::size_t total_packets() const { return parsed_.packets.size(); }

 private:
  net::PcapParseResult parsed_;
  std::size_t cursor_ = 0;
  CaptureStats stats_;
};

}  // namespace vpm::capture
