#include "ids/pcap_pipeline.hpp"

namespace vpm::ids {

pattern::Group classify_port(std::uint16_t dst_port) {
  switch (dst_port) {
    case 80:
    case 8080:
    case 8000:
      return pattern::Group::http;
    case 53:
      return pattern::Group::dns;
    case 21:
      return pattern::Group::ftp;
    case 25:
    case 587:
      return pattern::Group::smtp;
    default:
      return pattern::Group::generic;
  }
}

}  // namespace vpm::ids
