#include "common.hpp"

#include <cstdio>
#include <cstring>

#include "pattern/ruleset_gen.hpp"
#include "telemetry/json.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace vpm::bench {

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--mb=", 5) == 0) {
      opt.trace_mb = static_cast<std::size_t>(std::strtoull(arg + 5, nullptr, 10));
    } else if (std::strncmp(arg, "--runs=", 7) == 0) {
      opt.runs = static_cast<unsigned>(std::strtoul(arg + 7, nullptr, 10));
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      opt.seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      opt.json_path = arg + 7;
    } else if (std::strcmp(arg, "--quick") == 0) {
      opt.quick = true;
    }
  }
  if (opt.quick) {
    opt.trace_mb = std::min<std::size_t>(opt.trace_mb, 4);
    opt.runs = std::min(opt.runs, 2u);
  }
  if (opt.trace_mb == 0) opt.trace_mb = 1;
  if (opt.runs == 0) opt.runs = 1;
  return opt;
}

std::vector<Throughput> measure_scan(const std::vector<const Matcher*>& matchers,
                                     util::ByteView data, unsigned runs) {
  const std::size_t k = matchers.size();
  std::vector<Throughput> results(k);
  std::vector<util::RunningStats> stats(k);
  for (std::size_t i = 0; i < k; ++i) {
    results[i].matches = matchers[i]->count_matches(data);  // warm-up + match count
  }
  for (unsigned r = 0; r < runs; ++r) {
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t i = (r + j) % k;
      util::Timer timer;
      const std::uint64_t n = matchers[i]->count_matches(data);
      const double secs = timer.seconds();
      if (n != results[i].matches) {
        std::fprintf(stderr, "non-deterministic match count from %s\n",
                     std::string(matchers[i]->name()).c_str());
      }
      stats[i].add(util::gbps(data.size(), secs));
    }
  }
  for (std::size_t i = 0; i < k; ++i) {
    results[i].mean_gbps = stats[i].mean();
    results[i].stddev_gbps = stats[i].stddev();
  }
  return results;
}

std::vector<Workload> paper_workloads(const Options& opt) {
  const std::size_t bytes = opt.trace_mb << 20;
  std::vector<Workload> w;
  w.push_back({"ISCX-day2", traffic::generate_trace(traffic::TraceKind::iscx_day2, bytes,
                                                    opt.seed + 10)});
  w.push_back({"ISCX-day6", traffic::generate_trace(traffic::TraceKind::iscx_day6, bytes,
                                                    opt.seed + 11)});
  w.push_back({"DARPA-2000", traffic::generate_trace(traffic::TraceKind::darpa2000, bytes,
                                                     opt.seed + 12)});
  w.push_back({"random", traffic::generate_trace(traffic::TraceKind::random, bytes,
                                                 opt.seed + 13)});
  return w;
}

pattern::PatternSet s1_web_patterns(std::uint64_t seed) {
  return pattern::generate_ruleset(pattern::s1_config(seed)).web_patterns();
}

pattern::PatternSet s2_web_patterns(std::uint64_t seed) {
  return pattern::generate_ruleset(pattern::s2_config(seed)).web_patterns();
}

pattern::PatternSet s2_full_patterns(std::uint64_t seed) {
  return pattern::generate_ruleset(pattern::s2_config(seed));
}

pattern::PatternSet s2_gated_generic_patterns(std::uint64_t seed) {
  pattern::PatternSet out;
  for (const pattern::Pattern& p : s2_web_patterns(seed)) {
    if (p.bytes.size() >= 8) out.add(p.bytes, p.nocase, pattern::Group::generic);
  }
  return out;
}

namespace {

// The one escaper (telemetry/json.hpp) — the NDJSON sink, the exporter's
// label rendering, and these reports must never drift apart on escaping.
std::string json_escape(const std::string& s) { return telemetry::json_escaped(s); }

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

JsonReport::JsonReport(std::string bench_name, const Options& opt)
    : bench_(std::move(bench_name)), opt_(opt) {}

void JsonReport::add(std::vector<std::pair<std::string, std::string>> dims,
                     std::vector<std::pair<std::string, double>> metrics,
                     std::vector<std::pair<std::string, std::uint64_t>> counts) {
  std::string row = "{";
  bool first = true;
  const auto sep = [&] {
    if (!first) row += ", ";
    first = false;
  };
  for (const auto& [k, v] : dims) {
    sep();
    row += "\"" + json_escape(k) + "\": \"" + json_escape(v) + "\"";
  }
  for (const auto& [k, v] : metrics) {
    sep();
    row += "\"" + json_escape(k) + "\": " + json_number(v);
  }
  for (const auto& [k, v] : counts) {
    sep();
    row += "\"" + json_escape(k) + "\": " + std::to_string(v);
  }
  row += "}";
  rows_.push_back(std::move(row));
}

bool JsonReport::write() const {
  if (opt_.json_path.empty()) return true;
  std::FILE* f = std::fopen(opt_.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot open %s for writing\n", opt_.json_path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"%s\",\n  \"options\": {\"trace_mb\": %zu, "
               "\"runs\": %u, \"seed\": %llu, \"quick\": %s},\n  \"rows\": [\n",
               json_escape(bench_).c_str(), opt_.trace_mb, opt_.runs,
               static_cast<unsigned long long>(opt_.seed), opt_.quick ? "true" : "false");
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    std::fprintf(f, "    %s%s\n", rows_[i].c_str(), i + 1 < rows_.size() ? "," : "");
  }
  const bool wrote = std::fprintf(f, "  ]\n}\n") > 0;
  const bool ok = std::fclose(f) == 0 && wrote;
  if (!ok) {
    std::fprintf(stderr, "bench: failed writing %s\n", opt_.json_path.c_str());
    return false;
  }
  std::printf("wrote JSON results to %s (%zu rows)\n", opt_.json_path.c_str(),
              rows_.size());
  return true;
}

void print_row(const std::vector<std::string>& cells, const std::vector<int>& widths) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const int width = i < widths.size() ? widths[i] : 12;
    char buf[128];
    std::snprintf(buf, sizeof buf, "%-*s", width, cells[i].c_str());
    line += buf;
  }
  std::puts(line.c_str());
}

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

}  // namespace vpm::bench
