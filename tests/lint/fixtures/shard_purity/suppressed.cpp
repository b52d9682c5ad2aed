// Fixture: one sharded-loop violation carrying a reasoned escape.
#include <cstdlib>
#include <vector>

namespace fix {

void sweep(util::ThreadPool& pool, std::vector<double>& out) {
  pool.parallel_for(0, static_cast<int>(out.size()), [&](int i) {
    out[i] = static_cast<double>(std::rand());  // ash-lint: allow(shard-purity): fixture-sanctioned violation
  });
}

}  // namespace fix
