#include <ash/util/bench_only.h>
