// Fixture: a fleet deadline helper reading the host clock itself instead
// of through obs::monotonic_ns.
#include <chrono>
double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
