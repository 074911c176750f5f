// Seeded, deterministic fault-injection points for the chaos suite.
//
// A failpoint is a named site on an error-handling path (ring push/pop,
// reassembly buffer growth, alert-sink write, hot-swap publish, exporter
// socket ops, worker batch processing).  Armed, the site's check returns
// true on a deterministic subset of hits — as if the real failure (full
// ring, exhausted budget, failed write, ...) had happened — so the chaos
// tests can prove the pipeline degrades instead of wedging.  Disarmed (the
// production state), the check is ONE relaxed load of a global mask plus a
// predicted-not-taken branch: no locks, no allocation, no clock reads —
// alloc_test pins the no-allocation half and the chaos differential pins
// that a disarmed binary's alert stream is byte-identical.
//
// Arming:
//   - programmatic: util::failpoint::arm("ring_push=every:7,alert_sink_write"
//     "=prob:0.01", seed) — returns an error string ("" on success);
//   - environment:  VPM_FAILPOINTS=<spec> (+ optional VPM_FAILPOINT_SEED=<n>)
//     is read once at process start, so ANY binary (tests, benches,
//     pcap_sensor) can be chaos-run without code changes.
//
// Spec grammar:  site=mode[,site=mode...]
//   off        never fires (explicit disarm of one site)
//   always     every hit fires
//   prob:<p>   each hit fires independently with probability p (seeded
//              splitmix over (seed, site, hit-index): the fire set is a pure
//              function of the hit sequence, so a serialized replay is
//              deterministic)
//   every:<n>  hits n, 2n, 3n, ... fire (n >= 1)
//   after:<n>  every hit past the first n fires
//   once:<n>   exactly hit n fires (1-based)
//
// Determinism contract: fires(site) is a pure function of (spec, seed,
// hits(site)); with concurrent callers the per-hit decisions are still
// deterministic per hit INDEX — only the interleaving of indices across
// threads varies.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace vpm::util::failpoint {

enum class Site : std::uint8_t {
  ring_push,          // SpscRing::try_push reports full
  ring_pop,           // SpscRing::try_pop reports empty (slow consumer)
  reassembly_buffer,  // TcpReassembler::insert_piece reports budget exhausted
  alert_sink_write,   // alert delivery fails (GuardedSink throw / NDJSON write)
  hot_swap_publish,   // PipelineRuntime::swap_database throws
  exporter_socket,    // HttpExporter send is short (partial-write path)
  worker_batch,       // Worker::process throws (catastrophic worker failure)
  count
};

inline constexpr std::size_t kSiteCount = static_cast<std::size_t>(Site::count);

const char* site_name(Site s);
std::optional<Site> site_from_name(std::string_view name);

// Parses and installs `spec` (see grammar above).  Returns "" on success or
// a human-readable parse error; a failed arm leaves the previous arming
// untouched.  Hit/fire counters reset on every successful arm.  Thread-safe
// against concurrent should_fail callers (sites are armed one atomic mask
// store at the end).
std::string arm(std::string_view spec, std::uint64_t seed = 1);

// Disarms every site (the mask goes to 0; counters are kept for reading).
void disarm();

// True when at least one site is armed.
bool any_armed();

// Lifetime counters since the last arm(): how often the site was reached /
// how often it fired.
std::uint64_t hits(Site s);
std::uint64_t fires(Site s);

// One line per armed site: "site=mode hits=N fires=N" (diagnostics for the
// end-of-run dumps).  Empty when nothing is armed.
std::string describe();

namespace detail {
// Bit i set <=> site i armed.  arm() writes the sites' modes, then
// release-stores the mask; should_fail() acquire-loads it, so a thread that
// sees a site armed mid-run also sees its mode (a plain mov on x86, like a
// relaxed load).  Which of the first post-arm hits see the arming does not
// matter.
extern std::atomic<std::uint32_t> g_armed_mask;
bool fire_slow(Site s);
}  // namespace detail

// THE hot-path check.  Call as: if (should_fail(Site::ring_push)) ...
inline bool should_fail(Site s) {
  const std::uint32_t mask = detail::g_armed_mask.load(std::memory_order_acquire);
  if (mask == 0) [[likely]] {
    return false;
  }
  if ((mask & (1u << static_cast<unsigned>(s))) == 0) return false;
  return detail::fire_slow(s);
}

}  // namespace vpm::util::failpoint
