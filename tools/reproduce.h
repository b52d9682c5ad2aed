#pragma once

/// \file reproduce.h
/// `ash_lab reproduce`: every experiment of DESIGN.md Sec. 4, one section
/// each, PAPER vs MEASURED.

#include <cstddef>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "ash/util/series.h"

namespace ash::lab {

/// The value behind each paper claim, by the claim's id in the claims
/// table (tools/reproduce_claims.cpp); each section stores its own.
using Claims = std::map<std::string, double, std::less<>>;

/// The paper texts of the claims table's rows `ids`, joined by "; ", for a
/// section banner to quote.  Throws std::out_of_range for an unknown id.
std::string paper_text(std::initializer_list<const char*> ids);

/// Print the Claims section: PAPER, MEASURED, band and verdict per row.
/// True when every row's value lies inside its band (unmeasured fails).
bool print_claims(const Claims& measured);

/// Run every experiment and print its section in DESIGN.md Sec. 4 index
/// order: Fig. 1, Figs. 4-8, Fig. 9, Fig. 10, Tables 2-5, Ablations A-M,
/// the fault-tolerance ablation, then the Claims section (true when every
/// claim holds).  The heavy work (the Table 1 campaign, the fault-tolerance
/// labs, Ablation F's chips and Ablation K's populations) is one flat task
/// list on a thread pool; this thread computes the light sections, merges
/// results by index and prints everything, so the output is independent of
/// scheduling.
bool print_paper_reproduction();

/// `n` evenly resampled values of a series: one row of an ASCII chart.
std::vector<double> chart_row(const Series& series, std::size_t n);

// Sections that run their model inline on the printing thread
// (tools/reproduce_models.cpp).
void fig1(Claims& claims);
void fig9(Claims& claims);
void fig10(Claims& claims);
void ablation_policies();
void ablation_alpha_sweep();
void ablation_gnomo(Claims& claims);
void ablation_em();
void ablation_circadian();
void ablation_sensor();
void ablation_workload();
void ablation_abb();
void ablation_pbti();
void ablation_mc_faults();

}  // namespace ash::lab
