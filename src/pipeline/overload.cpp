#include "pipeline/overload.hpp"

namespace vpm::pipeline {

std::optional<OverloadConfig> overload_policy_from_name(std::string_view name) {
  if (name == "off") {
    OverloadConfig cfg;
    cfg.enabled = false;
    return cfg;
  }
  if (name == "conservative") {
    OverloadConfig cfg;
    cfg.enabled = true;
    return cfg;
  }
  if (name == "aggressive") {
    OverloadConfig cfg;
    cfg.enabled = true;
    cfg.enter_fill[0] = 0.35;
    cfg.enter_fill[1] = 0.60;
    cfg.enter_fill[2] = 0.80;
    cfg.exit_fill[0] = 0.20;
    cfg.exit_fill[1] = 0.40;
    cfg.exit_fill[2] = 0.60;
    cfg.budget_factor = 0.125;
    cfg.degraded_idle_timeout_us = 250'000;
    cfg.shed_payload_bytes = 512;
    return cfg;
  }
  return std::nullopt;
}

}  // namespace vpm::pipeline
