#include "capture/pcap_source.hpp"

#include <fstream>
#include <stdexcept>

namespace vpm::capture {

PcapFileSource::PcapFileSource(util::ByteView pcap_bytes)
    : parsed_(net::read_pcap(pcap_bytes)) {
  stats_.skipped = parsed_.skipped_records;
}

PcapFileSource PcapFileSource::open(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("capture: cannot open pcap file: " + path);
  util::Bytes bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return PcapFileSource(bytes);
}

std::size_t PcapFileSource::poll(std::vector<net::Packet>& out,
                                 std::size_t max_packets) {
  std::size_t n = 0;
  while (n < max_packets && cursor_ < parsed_.packets.size()) {
    // Moved out: a served packet is never read again, so its payload is
    // freed as the replay advances.
    net::Packet& p = parsed_.packets[cursor_++];
    stats_.bytes += p.payload.size();
    ++stats_.packets;
    out.push_back(std::move(p));
    ++n;
  }
  return n;
}

}  // namespace vpm::capture
