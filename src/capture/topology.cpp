#include "capture/topology.hpp"

#include <algorithm>
#include <cctype>

#if defined(__linux__)
#include <sched.h>
#endif

namespace vpm::capture {

std::optional<std::vector<int>> parse_cpu_list(std::string_view text) {
  // Trim trailing whitespace/newline the kernel appends.
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  std::vector<int> cpus;
  if (text.empty()) return cpus;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    const std::string_view item = text.substr(pos, comma - pos);
    const std::size_t dash = item.find('-');
    const auto parse_int = [](std::string_view s, int& out) {
      if (s.empty()) return false;
      int v = 0;
      for (char c : s) {
        if (c < '0' || c > '9') return false;
        v = v * 10 + (c - '0');
        if (v > 1 << 20) return false;  // implausible CPU id
      }
      out = v;
      return true;
    };
    int lo = 0;
    int hi = 0;
    if (dash == std::string_view::npos) {
      if (!parse_int(item, lo)) return std::nullopt;
      hi = lo;
    } else {
      if (!parse_int(item.substr(0, dash), lo) ||
          !parse_int(item.substr(dash + 1), hi) || hi < lo) {
        return std::nullopt;
      }
    }
    for (int c = lo; c <= hi; ++c) cpus.push_back(c);
    pos = comma + 1;
    if (comma == text.size()) break;
  }
  std::sort(cpus.begin(), cpus.end());
  cpus.erase(std::unique(cpus.begin(), cpus.end()), cpus.end());
  return cpus;
}

bool pin_current_thread(int cpu) {
#if defined(__linux__)
  if (cpu < 0 || cpu >= CPU_SETSIZE) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

}  // namespace vpm::capture
