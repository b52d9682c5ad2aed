#pragma once

/// \file checkpoint.h
/// Save/restore of aging state.
///
/// The paper's campaign runs for days of wall-clock time per chip; a
/// virtual campaign wants the same operational affordance real labs have —
/// stop, power down, resume.  A checkpoint captures every trap occupancy
/// of a ring oscillator / chip / fabric as a line-oriented text document
/// (versioned header, one device per line), so campaigns resume bit-exact
/// and checkpoints diff cleanly under version control.
///
/// The checkpoint stores *state*, not structure: restoring requires an
/// identically-constructed object (same netlist/stages, same seeds — the
/// construction parameters are the schema).  A device-count/trap-count
/// mismatch is detected and rejected.

#include <iosfwd>
#include <string>

#include "ash/fpga/chip.h"
#include "ash/fpga/fabric.h"
#include "ash/fpga/ring_oscillator.h"

namespace ash::fpga {

/// Format version written to the header.
inline constexpr int kCheckpointVersion = 1;

/// Serialize the aging state (all trap occupancies).
void save_checkpoint(std::ostream& os, const RingOscillator& ro);
void save_checkpoint(std::ostream& os, const FpgaChip& chip);
void save_checkpoint(std::ostream& os, const Fabric& fabric);

/// Restore previously saved state into an identically-constructed object.
/// The rest of the stream must be one document as save_checkpoint writes
/// it (util/text_reader.h grammar, nothing after "end").  Throws
/// std::runtime_error on malformed input, version mismatch, or a structure
/// mismatch (device/trap counts), and then leaves the object untouched.
void load_checkpoint(std::istream& is, RingOscillator& ro);
void load_checkpoint(std::istream& is, FpgaChip& chip);
void load_checkpoint(std::istream& is, Fabric& fabric);

/// String-form convenience used by in-memory snapshotting (the fault-
/// tolerant campaign runner snapshots the chip at every phase boundary so a
/// watchdog abort or a killed campaign can rewind to a known-good state).
std::string checkpoint_string(const FpgaChip& chip);
void restore_checkpoint(const std::string& state, FpgaChip& chip);

}  // namespace ash::fpga
