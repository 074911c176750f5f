// Flow-sharded packet routing with batching and backpressure.
//
// Every packet of a flow must reach the same worker in submission order —
// that is the whole determinism story of the pipeline: per-flow stream order
// is preserved by construction (one FIFO ring per shard), and flows never
// share mutable state across workers.  The shard index is derived from the
// direction-symmetric connection key (FiveTuple::conn_hash), so BOTH
// directions of a TCP connection — and any two tuples that collide in the
// key — land on the same worker and behave exactly as they would
// single-threaded.
//
// Packet ownership: the producer thread allocates every payload and every
// batch vector, and it also frees them.  Each shard has a ring pair: the
// forward ring carries full batches to the worker, and the return ring
// carries the worker's drained batches back.  After each push the router
// takes one returned batch, clears it here (freeing its payloads on the
// thread that allocated them) and reuses its vector as the shard's next
// pending batch.  It allocates a vector only when none is waiting.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "pipeline/config.hpp"
#include "pipeline/spsc_ring.hpp"

namespace vpm::pipeline {

// Shard index for a tuple (splitmix64 finalizer over the flow key, so the
// raw key's low bits need not be well distributed).
unsigned shard_of(const net::FiveTuple& tuple, unsigned shards);

class ShardRouter {
 public:
  using Ring = SpscRing<PacketBatch>;

  // One shard's ring pair: `forward` carries batches to the worker (this
  // router is its only producer); `returns` carries drained batches back
  // (this router is its only consumer).
  struct ShardRings {
    Ring* forward = nullptr;
    Ring* returns = nullptr;
  };

  // `rings[i]` is shard i's pair; the rings must outlive the router.
  // `stamp_enqueue_time` makes every pushed batch carry a steady-clock
  // timestamp (PacketBatch::enqueue_ns) so consumers can measure ring dwell;
  // off by default — the uninstrumented path pays no clock reads.
  ShardRouter(std::vector<ShardRings> rings, std::size_t batch_packets,
              BackpressurePolicy policy, bool stamp_enqueue_time = false);

  // Routes one packet; pushes its shard's batch when full.  Returns false
  // only when the drop policy discarded the batch the packet was put in.
  bool route(net::Packet&& packet);

  // Pushes every partial batch (end of input / drain).
  void flush();

  // Relaxed atomics: readable from any thread for stats snapshots.
  std::uint64_t routed() const { return routed_.load(std::memory_order_relaxed); }
  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  bool push_batch(std::size_t shard);

  std::vector<ShardRings> rings_;
  std::vector<PacketBatch> pending_;  // one partial batch per shard
  std::size_t batch_packets_;
  BackpressurePolicy policy_;
  bool stamp_enqueue_time_;
  std::atomic<std::uint64_t> routed_{0};   // packets successfully pushed into a ring
  std::atomic<std::uint64_t> dropped_{0};  // packets discarded under the drop policy
};

}  // namespace vpm::pipeline
