#include "ash/tb/data_log.h"

#include <algorithm>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "ash/util/csv.h"
#include "ash/util/table.h"
#include "ash/util/text_reader.h"

namespace ash::tb {

namespace {

[[noreturn]] void log_error(const std::string& detail) {
  throw std::runtime_error("data log: " + detail);
}

}  // namespace

const char* to_string(SampleQuality quality) {
  switch (quality) {
    case SampleQuality::kGood: return "good";
    case SampleQuality::kRetried: return "retried";
    case SampleQuality::kSuspect: return "suspect";
    case SampleQuality::kLost: return "lost";
  }
  return "unknown";
}

SampleQuality parse_sample_quality(const std::string& name) {
  if (name == "good") return SampleQuality::kGood;
  if (name == "retried") return SampleQuality::kRetried;
  if (name == "suspect") return SampleQuality::kSuspect;
  if (name == "lost") return SampleQuality::kLost;
  throw std::invalid_argument("parse_sample_quality: unknown quality '" +
                              name + "' (expected good|retried|suspect|lost)");
}

void DataLog::append(const DataLog& other) {
  records_.insert(records_.end(), other.records_.begin(),
                  other.records_.end());
}

std::vector<SampleRecord> DataLog::phase_records(
    const std::string& phase) const {
  std::vector<SampleRecord> out;
  for (const auto& r : records_) {
    if (r.phase == phase) out.push_back(r);
  }
  return out;
}

std::vector<std::string> DataLog::phases() const {
  std::vector<std::string> out;
  for (const auto& r : records_) {
    if (std::find(out.begin(), out.end(), r.phase) == out.end()) {
      out.push_back(r.phase);
    }
  }
  return out;
}

std::size_t DataLog::count_quality(SampleQuality quality) const {
  std::size_t n = 0;
  for (const auto& r : records_) {
    if (r.quality == quality) ++n;
  }
  return n;
}

Series DataLog::delay_series(const std::string& phase) const {
  Series s(phase + ":delay");
  for (const auto& r : phase_records(phase)) {
    if (r.usable()) s.append(r.t_phase_s.value(), r.delay_s.value());
  }
  return s;
}

Series DataLog::frequency_series(const std::string& phase) const {
  Series s(phase + ":frequency");
  for (const auto& r : phase_records(phase)) {
    if (r.usable()) s.append(r.t_phase_s.value(), r.frequency_hz.value());
  }
  return s;
}

double DataLog::fractional_degradation() const {
  const SampleRecord* first = nullptr;
  const SampleRecord* last = nullptr;
  for (const auto& r : records_) {
    if (!r.usable()) continue;
    if (first == nullptr) first = &r;
    last = &r;
  }
  if (first == nullptr || first == last) return 0.0;
  if (first->frequency_hz <= Hertz{0.0}) return 0.0;
  return (first->frequency_hz - last->frequency_hz) / first->frequency_hz;
}

void DataLog::write_csv(std::ostream& os) const {
  write_csv_row(os, {"test_case", "chip_id", "phase", "t_campaign_s",
                     "t_phase_s", "chamber_c", "supply_v", "counts",
                     "frequency_hz", "delay_s", "quality", "retries"});
  for (const auto& r : records_) {
    write_csv_row(os, {r.test_case, strformat("%d", r.chip_id), r.phase,
                       strformat("%.6f", r.t_campaign_s.value()),
                       strformat("%.6f", r.t_phase_s.value()),
                       strformat("%.6f", r.chamber_c.value()),
                       strformat("%.6f", r.supply_v.value()),
                       strformat("%.6f", r.counts),
                       strformat("%.6f", r.frequency_hz.value()),
                       strformat("%.9e", r.delay_s.value()), to_string(r.quality),
                       strformat("%d", r.retries)});
  }
}

DataLog DataLog::read_csv(std::istream& is) {
  return read_csv(util::read_stream(is));
}

DataLog DataLog::read_csv(std::string_view text) {
  const CsvDocument doc = ash::read_csv(text);
  // Quality columns are optional so logs written before fault tolerance
  // still load (they are all-good by construction).
  const auto col = [&](const char* name, bool required = true) -> long {
    const auto it = std::find(doc.header.begin(), doc.header.end(), name);
    if (it == doc.header.end() && required) {
      log_error("no column named '" + std::string(name) + "'");
    }
    return it == doc.header.end() ? -1 : it - doc.header.begin();
  };
  const long c_case = col("test_case");
  const long c_chip = col("chip_id");
  const long c_phase = col("phase");
  const long c_tc = col("t_campaign_s");
  const long c_tp = col("t_phase_s");
  const long c_temp = col("chamber_c");
  const long c_v = col("supply_v");
  const long c_counts = col("counts");
  const long c_f = col("frequency_hz");
  const long c_d = col("delay_s");
  const long c_q = col("quality", false);
  const long c_r = col("retries", false);
  constexpr int kIntMax = std::numeric_limits<int>::max();
  DataLog log;
  for (const auto& row : doc.rows) {
    const auto cell = [&](long c, const char* name) {
      return util::Field(row[static_cast<std::size_t>(c)], name, log_error);
    };
    SampleRecord r;
    r.test_case = cell(c_case, "test_case").text();
    r.chip_id = cell(c_chip, "chip_id").integer(-kIntMax - 1, kIntMax);
    r.phase = cell(c_phase, "phase").text();
    r.t_campaign_s = Seconds{cell(c_tc, "t_campaign_s").number()};
    r.t_phase_s = Seconds{cell(c_tp, "t_phase_s").number()};
    r.chamber_c = Celsius{cell(c_temp, "chamber_c").number()};
    r.supply_v = Volts{cell(c_v, "supply_v").number()};
    r.counts = cell(c_counts, "counts").number();
    r.frequency_hz = Hertz{cell(c_f, "frequency_hz").number()};
    r.delay_s = Seconds{cell(c_d, "delay_s").number()};
    try {
      if (c_q >= 0) r.quality = parse_sample_quality(row[c_q]);
    } catch (const std::invalid_argument& e) {
      log_error(e.what());
    }
    if (c_r >= 0) r.retries = cell(c_r, "retries").integer(0, kIntMax);
    log.add(std::move(r));
  }
  return log;
}

}  // namespace ash::tb
