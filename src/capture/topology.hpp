// Worker thread pinning: the --cpu-list parser and the sched_setaffinity
// call behind PipelineConfig::worker_cpus.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

namespace vpm::capture {

// Parses a kernel cpulist ("0-3,8,10-11") into ascending CPU ids; nullopt on
// malformed input.  Also the --cpu-list flag format.
std::optional<std::vector<int>> parse_cpu_list(std::string_view text);

// Pins the calling thread to one CPU (sched_setaffinity).  Returns false on
// failure (bad cpu id, restricted cpuset) — callers treat pinning as a hint.
bool pin_current_thread(int cpu);

}  // namespace vpm::capture
