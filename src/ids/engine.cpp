#include "ids/engine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "telemetry/metrics.hpp"
#include "util/timer.hpp"

namespace vpm::ids {

namespace {
// RAII for IdsEngine::in_scan_: a throwing AlertSink must not leave the
// engine wedged with the guard stuck set.
struct ScanGuard {
  bool* flag;
  explicit ScanGuard(bool* f) : flag(f) { *flag = true; }
  ~ScanGuard() { *flag = false; }
  ScanGuard(const ScanGuard&) = delete;
  ScanGuard& operator=(const ScanGuard&) = delete;
};
}  // namespace

IdsEngine::IdsEngine(DatabasePtr db) : db_(std::move(db)) {
  if (db_ == nullptr) throw std::invalid_argument("IdsEngine: null database");
}

void IdsEngine::swap_rules(DatabasePtr db, AlertSink& sink) {
  assert(!in_scan_ && "swap_rules() called from an AlertSink mid-scan");
  if (db == nullptr) throw std::invalid_argument("IdsEngine::swap_rules: null database");
  // Staged chunks belong to the old generation: scan them under the old
  // rules before the boundary.
  flush_batch(sink);
  // Clean stream boundary: per-flow carry is tied to the old rules' working
  // sets, so every flow restarts fresh under the new generation
  // (counters_.flows keeps counting distinct arrivals).
  flows_.clear();
  db_ = std::move(db);
  // New signatures, new traffic regime: restart the auto-mode sampling.
  pf_auto_.fill({});
}

IdsEngine::FlowState& IdsEngine::flow_for(std::uint64_t flow_id, pattern::Group protocol) {
  auto [flow, inserted] = flows_.find_or_emplace(flow_id, [&] {
    return FlowState{protocol, StreamScanner(db_->working_set(protocol))};
  });
  if (inserted) ++counters_.flows;
  return *flow;
}

void IdsEngine::stage(std::uint64_t flow_id, pattern::Group protocol, util::ByteView chunk,
                      AlertSink& sink) {
  assert(!in_scan_ && "stage() called from an AlertSink mid-scan");
  FlowState* flow = &flow_for(flow_id, protocol);
  // A flow can be staged once per flush: a second chunk for the same flow
  // must see the first one's carry, so scan what is pending first — and
  // re-acquire the flow afterwards: the flush's deferred close_flow calls
  // (teardown-on-alert sinks) may have erased this very flow.
  if (flow->scanner.staged()) {
    flush_batch(sink);
    flow = &flow_for(flow_id, protocol);
  }

  // Carry + chunk go to the arena; growth to the next power of two keeps a
  // content-dependent batch byte total from reallocating after warm-up.
  if (pending_.empty()) arena_.clear();  // bytes of chunks close_flow dropped
  const util::ByteView carry = flow->scanner.carry();
  Staged s;
  s.flow = flow;
  s.flow_id = flow_id;
  s.protocol = flow->protocol;
  s.offset = arena_.size();
  s.length = carry.size() + chunk.size();
  s.carry = carry.size();
  s.base = flow->scanner.staged_base();
  if (arena_.capacity() < s.offset + s.length) {
    arena_.reserve(std::bit_ceil(s.offset + s.length));
  }
  arena_.insert(arena_.end(), carry.begin(), carry.end());
  arena_.insert(arena_.end(), chunk.begin(), chunk.end());
  flow->scanner.stage();
  pending_.push_back(s);
  // bytes_inspected/chunks count at flush time, when the scan actually
  // happens — a staged chunk dropped by close_flow was never inspected.
}

void IdsEngine::flush_batch(AlertSink& out) {
  assert(!in_scan_ && "flush_batch() called from an AlertSink mid-scan");
  if (pending_.empty() || in_scan_) return;
  const std::uint64_t t0 =
      telemetry_.flush_latency != nullptr ? util::monotonic_ns() : 0;
  {
    // Exception-safe: a throwing sink cannot leave in_scan_ wedged.
    ScanGuard guard(&in_scan_);
    flush_batch_impl(out);
  }
  if (telemetry_.flush_latency != nullptr) {
    telemetry_.flush_latency->record(
        static_cast<double>(util::monotonic_ns() - t0) * 1e-9);
  }
  run_deferred_closes();
}

void IdsEngine::flush_batch_impl(AlertSink& out) {
  for (std::uint32_t i = 0; i < pending_.size(); ++i) {
    GroupGather& g = gather_[static_cast<std::size_t>(pending_[i].protocol)];
    g.views.push_back(staged_view(pending_[i]));
    g.staged_index.push_back(i);
  }

  for (std::size_t gi = 0; gi < kGroups; ++gi) {
    GroupGather& g = gather_[gi];
    if (g.views.empty()) continue;
    const pattern::Group group = static_cast<pattern::Group>(gi);

    // Approximate screen ahead of the exact engine.  `off` never screens;
    // `on` screens whenever the group has a signature; `automatic` screens
    // advised groups, minus the adaptive-bypass stretches.
    const core::PrefilterPtr& pf = db_->prefilter_for(group);
    bool engaged = false;
    if (pf != nullptr && prefilter_mode_ != core::PrefilterMode::off) {
      if (prefilter_mode_ == core::PrefilterMode::on) {
        engaged = true;
      } else if (pf->advised()) {
        PrefilterAuto& a = pf_auto_[gi];
        if (a.bypass_payloads > 0) {
          a.bypass_payloads -= static_cast<std::uint32_t>(
              std::min<std::size_t>(a.bypass_payloads, g.views.size()));
        } else {
          engaged = true;
        }
      }
    }
    if (engaged) {
      verdicts_.resize(g.views.size());
      pf->screen_batch(g.views, verdicts_.data());
      std::uint64_t pass_bytes = 0;
      std::uint64_t reject_bytes = 0;
      for (std::size_t i = 0; i < g.views.size(); ++i) {
        if (verdicts_[i] != 0) {
          g.passed_views.push_back(g.views[i]);
          g.passed_staged.push_back(g.staged_index[i]);
          pass_bytes += g.views[i].size();
        } else {
          reject_bytes += g.views[i].size();
        }
      }
      const std::uint64_t pass_n = g.passed_views.size();
      const std::uint64_t reject_n = g.views.size() - pass_n;
      counters_.prefilter_pass_payloads += pass_n;
      counters_.prefilter_reject_payloads += reject_n;
      counters_.prefilter_pass_bytes += pass_bytes;
      counters_.prefilter_reject_bytes += reject_bytes;
      if (prefilter_mode_ == core::PrefilterMode::automatic) {
        PrefilterAuto& a = pf_auto_[gi];
        a.sampled += static_cast<std::uint32_t>(g.views.size());
        a.passed += static_cast<std::uint32_t>(pass_n);
        if (a.sampled >= kPrefilterSampleWindow) {
          if (a.passed * 2 > a.sampled) a.bypass_payloads = kPrefilterBypassPayloads;
          a.sampled = 0;
          a.passed = 0;
        }
      }
    }
    const std::vector<util::ByteView>& scan_views = engaged ? g.passed_views : g.views;

    struct BatchToAlert final : BatchSink {
      const IdsEngine* self = nullptr;
      AlertSink* out = nullptr;
      // Maps a scanned-batch packet index back to pending_ (the screened-in
      // subsequence when the prefilter is engaged, all staged views
      // otherwise).
      const std::uint32_t* to_staged = nullptr;
      pattern::Group group{};
      std::uint64_t emitted = 0;
      void on_match(std::uint32_t packet, const Match& m) override {
        const Staged& s = self->pending_[to_staged[packet]];
        if (s.flow->scanner.already_reported(m, s.carry)) return;
        out->on_alert(Alert{s.flow_id, self->db_->working_set(group).to_master[m.pattern_id],
                            s.base + m.pos, group, self->db_->generation()});
        ++emitted;
      }
    } sink;
    sink.self = this;
    sink.out = &out;
    sink.to_staged = engaged ? g.passed_staged.data() : g.staged_index.data();
    sink.group = group;

    if (!scan_views.empty()) {
      db_->working_set(group).matcher->scan_batch(scan_views, sink, scratch_[gi]);
    }
    counters_.alerts += sink.emitted;
    if (telemetry::Counter* c = telemetry_.group_scan_bytes[gi]; c != nullptr) {
      std::uint64_t bytes = 0;
      for (const util::ByteView& v : scan_views) bytes += v.size();
      c->add(bytes);
    }
    if (telemetry::Counter* c = telemetry_.group_alerts[gi]; c != nullptr) {
      c->add(sink.emitted);
    }
    g.views.clear();
    g.staged_index.clear();
    g.passed_views.clear();
    g.passed_staged.clear();
  }

  for (const Staged& s : pending_) {
    s.flow->scanner.commit(staged_view(s));
    counters_.bytes_inspected += s.length - s.carry;  // the chunk's bytes
    ++counters_.chunks;
  }
  pending_.clear();
  arena_.clear();
}

// close_flow calls made by a sink during a flush were deferred so the
// in-flight batch stayed valid; apply them once the flush is done, through
// close_flow itself (in_scan_ is clear now).
void IdsEngine::run_deferred_closes() {
  while (!deferred_close_.empty()) {
    const std::uint64_t flow_id = deferred_close_.back();
    deferred_close_.pop_back();
    close_flow(flow_id);
  }
}

void IdsEngine::close_flow(std::uint64_t flow_id) {
  if (in_scan_) {
    // Called from an AlertSink while its batch is live (teardown-on-alert):
    // defer the erase — pending_ holds live pointers into the flow table's
    // nodes.
    deferred_close_.push_back(flow_id);
    return;
  }
  FlowState* flow = flows_.find(flow_id);
  if (flow == nullptr) return;
  if (flow->scanner.staged()) {
    // Dropping a staged chunk unscanned: eviction-time teardown is lossy by
    // design, and a dangling Staged entry must never survive the erase.
    std::erase_if(pending_, [flow](const Staged& s) { return s.flow == flow; });
  }
  flows_.erase(flow_id);
}

}  // namespace vpm::ids
