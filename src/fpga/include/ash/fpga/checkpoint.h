#pragma once

/// \file checkpoint.h
/// A chip's aging state as a value, and its on-disk text form.
///
/// The paper's campaign runs for days of wall-clock time per chip; a
/// virtual campaign wants the same operational affordance real labs have —
/// stop, power down, resume.  `ChipState` holds every trap occupancy of a
/// chip's ring oscillator, one vector per device in canonical order (stage
/// by stage, LUT devices then routing devices).  The campaign engine keeps
/// its phase-boundary snapshots in this form; the text form exists only
/// where bytes are persisted (the campaign checkpoint document and
/// `ash_lab stress --checkpoint`): a versioned header, one device per line,
/// every occupancy in `%.17g`, so campaigns resume bit-exact and
/// checkpoints diff cleanly under version control.
///
/// It holds *state*, not structure: restoring requires an
/// identically-constructed chip (same stages, same seeds — the
/// construction parameters are the schema).  A device-count/trap-count
/// mismatch is detected and rejected.

#include <iosfwd>
#include <string_view>
#include <vector>

#include "ash/fpga/chip.h"

namespace ash::fpga {

/// Format version written to the header.
inline constexpr std::string_view kCheckpointVersion = "v1";

/// Every trap occupancy of a chip, one vector per device.
struct ChipState {
  std::vector<std::vector<double>> devices;

  friend bool operator==(const ChipState&, const ChipState&) = default;
};

/// The chip's current aging state.
ChipState snapshot(const FpgaChip& chip);

/// Overwrite the chip's aging state.  Throws std::runtime_error when the
/// device count, a device's trap count or an occupancy outside [0, 1] does
/// not fit the chip, and then leaves the chip untouched.
void restore(const ChipState& state, FpgaChip& chip);

/// Write the `ash-checkpoint v1 chip` document of a state.
void save_checkpoint(std::ostream& os, const ChipState& state);

/// Read one whole document as save_checkpoint writes it (util/
/// text_reader.h grammar, nothing after "end").  Throws std::runtime_error
/// on malformed input or a version mismatch.
ChipState load_checkpoint(std::string_view document);

}  // namespace ash::fpga
