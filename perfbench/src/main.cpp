/// perfbench — the repository's benchmark.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///
/// Runs one workload, prints every metric as "name = value unit", the host
/// diagnostics and any failed output check, then one JSON result line
/// last.  Exit status 0 only when every output check passed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload table1_campaign|population_batch|"
               "fleet_16k_mixed --seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 0);
    } else if (flag == "--seconds") {
      config.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || config.seconds < 1) return usage();

  Result (*run)(const RunConfig&) = nullptr;
  if (workload == "table1_campaign") run = run_table1_campaign;
  if (workload == "population_batch") run = run_population_batch;
  if (workload == "fleet_16k_mixed") run = run_fleet_16k_mixed;
  if (run == nullptr) return usage();

  std::printf("host %s\n", host_summary().c_str());
  const CpuTicks ticks0 = read_cpu_ticks();
  Result result;
  try {
    result = run(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", workload.c_str(), e.what());
    return 1;
  }
  const double steal = steal_share(ticks0, read_cpu_ticks());
  if (config.trace) result.add("host.steal_share", steal, "share");

  std::printf("host %s steal_share=%.4f\n", host_summary().c_str(), steal);
  for (const Metric& m : result.metrics) {
    std::printf("%-40s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : result.notes) {
    std::printf("  %-38s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& miss : result.checks.misses) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", miss.c_str());
  }
  std::printf("%s\n", result_json(result).c_str());
  std::fflush(stdout);
  return result.checks.all_passed() ? 0 : 1;
}
