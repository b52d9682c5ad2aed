// Fixture: the same stdio violation, acknowledged with a reasoned
// ash-lint escape — suppressed, not a finding.
#include <csignal>
#include <cstdio>
#include <unistd.h>

namespace fix {

void handle_fatal(int sig) {
  char byte = static_cast<char>(sig);
  (void)write(2, &byte, 1);
  std::printf("down\n");  // ash-lint: allow(signal-safety): fixture-sanctioned violation
}

void install() { signal(SIGTERM, handle_fatal); }

}  // namespace fix
