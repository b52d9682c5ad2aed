#include "harness.h"

#include <sys/resource.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>


namespace perfbench {

namespace {

/// 1-based nearest rank of the p-th percentile of n samples.  The epsilon
/// keeps p * n / 100 from rounding up past an exact integer (99.9 * 1000).
std::size_t nearest_rank(std::size_t n, double p) {
  return static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const std::size_t n = values.size();
  const std::size_t rank = nearest_rank(n, p);
  const std::size_t k = rank == 0 ? 0 : std::min(rank, n) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  const std::size_t rank = nearest_rank(n, p);
  return n - std::max<std::size_t>(std::min(rank, n), 1);
}

double tail_percentile(std::size_t n) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (samples_beyond(n, p) >= 10) best = p;
  }
  return best;
}

double checked_percentile(const std::vector<double>& values, double p,
                          std::string_view what) {
  if (tail_percentile(values.size()) < p) {
    throw std::logic_error(std::string(what) + ": " +
                           std::to_string(values.size()) +
                           " samples leave fewer than 10 beyond p" +
                           std::to_string(p));
  }
  return percentile(values, p);
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

void UnitTimes::add(int kind, double wall_s, double cpu_s) {
  const auto k = static_cast<std::size_t>(kind);
  if (wall_.size() <= k) {
    wall_.resize(k + 1);
    cpu_.resize(k + 1);
  }
  wall_[k].push_back(wall_s);
  cpu_[k].push_back(cpu_s);
}

namespace {

double sum_of_fastest(const std::vector<std::vector<double>>& kinds) {
  double total = 0.0;
  for (const auto& units : kinds) {
    if (!units.empty()) {
      total += static_cast<double>(units.size()) *
               *std::min_element(units.begin(), units.end());
    }
  }
  return total;
}

double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  if (::clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double UnitTimes::wall_s() const { return sum_of_fastest(wall_); }
double UnitTimes::cpu_s() const { return sum_of_fastest(cpu_); }

double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double other_process_cpu_s(int pid) {
  clockid_t clock{};
  if (::clock_getcpuclockid(pid, &clock) != 0) return 0.0;
  return cpu_clock_s(clock);
}

int Tracer::begin(const char* name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, now_ns(), 0, open_.empty() ? -1 : open_.back()});
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                               s.end_ns);
    }
  }
  std::vector<std::int64_t> out(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;  // covered up to here
    for (const auto& [lo, hi] : kids) {
      const std::int64_t a = std::max(lo, reach);
      const std::int64_t b = std::min(hi, s.end_ns);
      if (b > a) covered += b - a;
      reach = std::max(reach, std::min(hi, s.end_ns));
    }
    out[i] = (s.end_ns - s.start_ns) - covered;
  }
  return out;
}

std::vector<std::int64_t> Tracer::self_ns() const { return self_times(spans_); }

std::vector<double> Tracer::self_ns_of(std::string_view name) const {
  const std::vector<std::int64_t> self = self_ns();
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) out.push_back(static_cast<double>(self[i]));
  }
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  const std::vector<std::int64_t> self = self_ns();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\":" << i << ",\"name\":\"" << s.name
       << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << ",\"parent\":" << s.parent << ",\"self_ns\":" << self[i] << "}\n";
  }
  if (!os) throw std::runtime_error("cannot write trace " + path);
}

void Checks::expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failed;
    misses.push_back(what);
  }
}

std::uint64_t ulp_distance(double a, double b) {
  std::uint64_t ia = 0;
  std::uint64_t ib = 0;
  std::memcpy(&ia, &a, sizeof ia);
  std::memcpy(&ib, &b, sizeof ib);
  return ia > ib ? ia - ib : ib - ia;
}

CpuTicks read_cpu_ticks() {
  std::ifstream is("/proc/stat");
  std::string cpu;
  CpuTicks t;
  if (!(is >> cpu) || cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user/nice)
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(is >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double steal_share(const CpuTicks& before, const CpuTicks& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

std::string host_summary() {
  std::ostringstream os;
  os << "nproc=" << ::sysconf(_SC_NPROCESSORS_ONLN);
  double load[3] = {0.0, 0.0, 0.0};
  if (::getloadavg(load, 3) == 3) {
    char buf[64];
    std::snprintf(buf, sizeof buf, " loadavg=%.2f %.2f %.2f", load[0],
                  load[1], load[2]);
    os << buf;
  }
  return os.str();
}

double process_peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string result_json(const Result& result) {
  std::ostringstream os;
  os << "{\"correct\": " << (result.checks.all_passed() ? "true" : "false")
     << ", \"attempted\": " << result.checks.attempted
     << ", \"failed\": " << result.checks.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    os << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": " << value
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

std::string work_dir() {
  const std::string dir = ".bench_out";
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    throw std::runtime_error("cannot create " + dir);
  }
  return dir;
}

}  // namespace perfbench
