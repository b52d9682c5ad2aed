// Fixture: outside src/ (a tool's deliberately lenient dashboard scrape)
// the rule does not apply.
#include <cstdlib>
#include <string>

double metric(const std::string& v) { return std::strtod(v.c_str(), nullptr); }
