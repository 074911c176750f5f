// Protocol classification for reassembled streams: the port-to-rule-group
// binding the pipeline workers apply to every chunk.
#pragma once

#include <cstdint>

#include "pattern/pattern.hpp"

namespace vpm::ids {

// Classifies a flow by its server-side port, mirroring how Snort binds rule
// groups to port groups.  For reassembled TCP this is StreamChunk::server_port
// (the client's destination), so BOTH directions of a connection classify
// into the same group; for UDP it is the datagram's destination port.
pattern::Group classify_port(std::uint16_t dst_port);

}  // namespace vpm::ids
