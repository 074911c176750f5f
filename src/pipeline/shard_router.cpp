#include "pipeline/shard_router.hpp"

#include <thread>

#include "util/timer.hpp"

namespace vpm::pipeline {

unsigned shard_of(const net::FiveTuple& tuple, unsigned shards) {
  if (shards <= 1) return 0;
  // Symmetric over direction: both sides of a connection hash identically,
  // so a bidirectional flow's reassembler state lives on one worker.
  std::uint64_t z = tuple.conn_hash() + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return static_cast<unsigned>(z % shards);
}

ShardRouter::ShardRouter(std::vector<ShardRings> rings, std::size_t batch_packets,
                         BackpressurePolicy policy, bool stamp_enqueue_time)
    : rings_(std::move(rings)),
      pending_(rings_.size()),
      batch_packets_(batch_packets > 0 ? batch_packets : 1),
      policy_(policy),
      stamp_enqueue_time_(stamp_enqueue_time) {
  for (PacketBatch& b : pending_) b.reserve(batch_packets_);
}

bool ShardRouter::route(net::Packet&& packet) {
  const std::size_t shard = shard_of(packet.tuple, static_cast<unsigned>(rings_.size()));
  PacketBatch& batch = pending_[shard];
  batch.push_back(std::move(packet));
  if (batch.size() < batch_packets_) return true;
  return push_batch(shard);
}

void ShardRouter::flush() {
  for (std::size_t shard = 0; shard < pending_.size(); ++shard) {
    if (!pending_[shard].empty()) push_batch(shard);
  }
}

bool ShardRouter::push_batch(std::size_t shard) {
  PacketBatch& batch = pending_[shard];
  const ShardRings& rings = rings_[shard];
  const std::size_t n = batch.size();
  // Stamped before the push attempt, so a blocked push counts its wait as
  // dwell — from the consumer's perspective the batch WAS queued that long.
  if (stamp_enqueue_time_) batch.enqueue_ns = util::monotonic_ns();
  bool pushed = true;
  if (policy_ == BackpressurePolicy::block) {
    // Spin briefly, then yield: the consumer is another thread on this host,
    // so the queue-full condition clears in microseconds unless the worker
    // is genuinely saturated.
    unsigned spins = 0;
    while (!rings.forward->try_push(batch)) {
      if (++spins >= 64) {
        std::this_thread::yield();
        spins = 0;
      }
    }
  } else {
    pushed = rings.forward->try_push(batch);
  }
  if (pushed) {
    routed_.fetch_add(n, std::memory_order_relaxed);
    // try_push moved the vector out: take back a batch the worker drained.
    rings.returns->try_pop(batch);
  } else {
    dropped_.fetch_add(n, std::memory_order_relaxed);
  }
  // The pending batch is now a returned one, the dropped one, or moved-from.
  // Clearing frees its payloads on this thread, which allocated them; the
  // reserve allocates only when no drained batch was waiting.
  batch.clear();
  batch.reserve(batch_packets_);
  // The next batch this shard gets through tells its worker of the loss.
  batch.after_drop = !pushed;
  return pushed;
}

}  // namespace vpm::pipeline
