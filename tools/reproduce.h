#pragma once

/// \file reproduce.h
/// The paper's campaign sections, printed from one Table 1 campaign.

#include <vector>

#include "ash/tb/experiment_runner.h"

namespace ash::lab {

/// Print every section derived from the five-chip Table 1 campaign, in
/// DESIGN.md Sec. 4 index order: Figs. 4-8, Tables 2-5, Ablation L.
/// `campaign` holds the 75-stage `tb::run_paper_campaign` results in chip
/// order under the default runner.
void print_paper_reproduction(const std::vector<tb::CampaignResult>& campaign);

}  // namespace ash::lab
