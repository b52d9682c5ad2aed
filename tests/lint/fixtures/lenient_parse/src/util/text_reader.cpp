// Fixture: the text reader itself is the one module the rule exempts.
#include <cstdlib>

double reader_internal(const char* p) { return std::strtod(p, nullptr); }
