// Alert records produced by the IDS engine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pattern/pattern_set.hpp"

namespace vpm::ids {

struct Alert {
  std::uint64_t flow_id = 0;
  std::uint32_t pattern_id = 0;
  std::uint64_t stream_offset = 0;  // match start within the flow's byte stream
  pattern::Group group = pattern::Group::generic;
  // Ruleset generation the alert was produced under (Database::generation()
  // of the rules).  Lets hot-swap consumers attribute every alert to the
  // exact ruleset that raised it, even while workers straddle a swap.
  std::uint64_t generation = 0;

  friend bool operator==(const Alert&, const Alert&) = default;
  friend auto operator<=>(const Alert&, const Alert&) = default;
};

// Receives alerts as the engine produces them.  Decouples alert delivery
// from storage so embedders (the pipeline workers, log shippers) can route
// alerts without an intermediate vector per flush.
class AlertSink {
 public:
  virtual void on_alert(const Alert& alert) = 0;

 protected:
  ~AlertSink() = default;
};

// The trivial sink: append to a vector.
class AlertBuffer final : public AlertSink {
 public:
  explicit AlertBuffer(std::vector<Alert>& out) : out_(&out) {}
  void on_alert(const Alert& alert) override { out_->push_back(alert); }

 private:
  std::vector<Alert>* out_;
};

// Renders "flow=3 off=128 group=http pattern=17 'GET /'" style lines.
std::string format_alert(const Alert& alert, const pattern::PatternSet& set);

}  // namespace vpm::ids
