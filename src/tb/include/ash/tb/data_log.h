#pragma once

/// \file data_log.h
/// Campaign sample log.  Every measurement the runner takes lands here with
/// full provenance (case, chip, phase, schedule time, environment), so the
/// analysis layer (ash::core metrics, the `ash_lab reproduce` sections and
/// the CSV exports) can slice it any way the paper does.

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "ash/util/series.h"
#include "ash/util/units.h"

namespace ash::tb {

/// Per-sample data quality, assigned by the fault-tolerant runner.  Faulty
/// samples are flagged, never silently dropped: the log keeps the full
/// campaign story while `delay_series`/`frequency_series` exclude records
/// that carry no measurement (kLost).
enum class SampleQuality {
  kGood = 0,     ///< clean first-attempt measurement
  kRetried = 1,  ///< clean measurement obtained after >= 1 retry
  kSuspect = 2,  ///< measured, but implausible (kept and flagged)
  kLost = 3,     ///< retries exhausted, no data (value fields are zero)
};

const char* to_string(SampleQuality quality);
/// Inverse of to_string; throws std::invalid_argument on unknown names.
SampleQuality parse_sample_quality(const std::string& name);

/// One logged measurement.
struct SampleRecord {
  std::string test_case;   ///< e.g. "chip5"
  int chip_id = 0;
  std::string phase;       ///< Table 1 label, e.g. "AR110N6"
  Seconds t_campaign_s{0.0};  ///< time since the campaign started
  Seconds t_phase_s{0.0};     ///< time since the current phase started
  Celsius chamber_c{0.0};     ///< *reported* chamber temperature (sensor)
  Volts supply_v{0.0};        ///< phase supply setpoint
  double counts = 0.0;        ///< averaged counter output
  Hertz frequency_hz{0.0};    ///< Eq. (14)
  Seconds delay_s{0.0};       ///< Eq. (15)
  SampleQuality quality = SampleQuality::kGood;
  int retries = 0;            ///< measurement attempts beyond the first

  /// True when the record carries a usable measurement (not kLost).
  bool usable() const { return quality != SampleQuality::kLost; }
};

/// Append-only sample log with slicing helpers.
class DataLog {
 public:
  void add(SampleRecord record) { records_.push_back(std::move(record)); }
  void append(const DataLog& other);

  bool empty() const { return records_.empty(); }
  std::size_t size() const { return records_.size(); }
  const std::vector<SampleRecord>& records() const { return records_; }

  /// All records of one phase label, in log order.
  std::vector<SampleRecord> phase_records(const std::string& phase) const;

  /// Distinct phase labels in first-appearance order.
  std::vector<std::string> phases() const;

  /// Number of records carrying the given quality flag.
  std::size_t count_quality(SampleQuality quality) const;

  /// Delay-vs-phase-time series for one phase (seconds vs seconds).
  /// Records without a usable measurement (kLost) are excluded; flagged but
  /// measured records (kRetried/kSuspect) are included.
  Series delay_series(const std::string& phase) const;

  /// Frequency-vs-phase-time series for one phase (same quality rules).
  Series frequency_series(const std::string& phase) const;

  /// Fractional frequency degradation over the whole log: (f_first -
  /// f_last) / f_first across usable records.  Negative when the device
  /// recovered past its first sample; 0 when fewer than two usable records
  /// (or a nonpositive first frequency) make the ratio meaningless.  The
  /// fleet service ranks shards for rejuvenation by this number.
  double fractional_degradation() const;

  /// Write all records as CSV (header + rows).
  void write_csv(std::ostream& os) const;

  /// Parse a log previously produced by write_csv; the quality/retries
  /// columns are optional (logs written before fault tolerance).  Every
  /// cell must be whole in its column's grammar (util/text_reader.h);
  /// throws std::runtime_error ("data log: ...") otherwise.
  static DataLog read_csv(std::istream& is);
  static DataLog read_csv(std::string_view text);

 private:
  std::vector<SampleRecord> records_;
};

}  // namespace ash::tb
