// Fixture: a registration inside an instrumented hot-path kernel file.
// The name is perfectly well-formed — the finding is about *where* the
// registration happens: inside the region the kernel's ScopedTimer measures,
// where the registry mutex and map lookup bill the kernel under test.
#include <string>

namespace obs {
struct Registry {
  int& counter(const std::string&);
};
Registry& registry();
}  // namespace obs

void interval_kernel() {
  obs::registry().counter("mc.intervals") = 1;
}
