#pragma once

/// \file common.h
/// Shared infrastructure for the bench binaries.
///
/// Every bench regenerates one experiment of the paper's evaluation or an
/// ablation from a fresh run of the virtual lab and prints PAPER vs
/// MEASURED rows, so the output is directly comparable to the publication.
/// The Table 1 campaign's own sections (Figs. 4-8, Tables 2-5, Ablation L)
/// are printed by `ash_lab reproduce` from one parallel run of
/// `tb::run_paper_campaign`.

#include "ash/fpga/chip.h"
#include "ash/tb/data_log.h"
#include "ash/tb/experiment_runner.h"
#include "ash/tb/test_case.h"
#include "ash/util/series.h"
#include "ash/util/table.h"

namespace ash::bench {

/// Banner printed at the top of every bench.
using ash::print_banner;

}  // namespace ash::bench
