#pragma once

/// \file workloads.h
/// The benchmark's three workloads.  Each does fixed, seeded,
/// single-threaded work sized by `seconds`, checks its outputs and returns
/// the end-to-end metrics (untraced) or its per-layer metrics (traced).

#include <cstdint>
#include <string>

#include "ash/tb/data_log.h"
#include "harness.h"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

/// Set-ups timed in a run, spread over it; their median is setup_s.
inline constexpr int kSetupRepeats = 9;

Result run_table1_campaign(const RunConfig& config);
Result run_population_batch(const RunConfig& config);
Result run_fleet_16k_mixed(const RunConfig& config);

/// The log as CSV, the bytes its pinned CRC covers.
std::string log_csv(const ash::tb::DataLog& log);

/// Chip 5's logged delays are within 1 ULP of the golden trajectory the
/// program's perf tests pin (tests/perf/golden_chip5_data.h).
bool chip5_matches_golden(const ash::tb::DataLog& log);

/// The bytes a fleet_16k_mixed session of `blocks` blocks must leave in
/// Client::transcript() for `seed`, derived without fleet::Service.
std::string fleet_expected_transcript(std::uint64_t seed, int blocks);

}  // namespace perfbench
