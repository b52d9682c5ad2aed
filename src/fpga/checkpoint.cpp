#include "ash/fpga/checkpoint.h"

#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

#include "ash/util/double_codec.h"
#include "ash/util/text_reader.h"

namespace ash::fpga {

namespace {

/// Visit every trap ensemble of a chip in the canonical order.
template <typename Chip, typename Visit>
void for_each_ensemble(Chip& chip, Visit&& visit) {
  auto& ro = chip.ro();
  for (int s = 0; s < ro.stage_count(); ++s) {
    auto& stage = ro.stage(s);
    for (int d = 0; d < kLutDeviceCount; ++d) {
      visit(stage.lut.device(d).ensemble());
    }
    for (int d = 0; d < kRoutingDeviceCount; ++d) {
      visit(stage.routing.device(d).ensemble());
    }
  }
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("checkpoint: " + what);
}

[[noreturn]] void fail(std::string_view what, std::string_view token) {
  fail(std::string(what).append(" '").append(token).append("'"));
}

}  // namespace

ChipState snapshot(const FpgaChip& chip) {
  ChipState state;
  for_each_ensemble(chip, [&](const bti::TrapEnsemble& e) {
    state.devices.push_back(e.occupancies());
  });
  return state;
}

void restore(const ChipState& state, FpgaChip& chip) {
  // Check everything first so a state that does not fit cannot leave the
  // chip half-restored.
  std::vector<bti::TrapEnsemble*> ensembles;
  for_each_ensemble(chip,
                    [&](bti::TrapEnsemble& e) { ensembles.push_back(&e); });
  if (state.devices.size() != ensembles.size()) {
    fail("device count mismatch: state has " +
         std::to_string(state.devices.size()) + ", chip has " +
         std::to_string(ensembles.size()));
  }
  for (std::size_t i = 0; i < ensembles.size(); ++i) {
    const std::vector<double>& occ = state.devices[i];
    if (occ.size() != static_cast<std::size_t>(ensembles[i]->trap_count())) {
      fail("trap count mismatch on device " + std::to_string(i));
    }
    for (const double v : occ) {
      if (!(v >= 0.0 && v <= 1.0)) {
        fail("occupancy outside [0, 1] on device " + std::to_string(i));
      }
    }
  }
  for (std::size_t i = 0; i < ensembles.size(); ++i) {
    ensembles[i]->set_occupancies(state.devices[i]);
  }
}

void save_checkpoint(std::ostream& os, const ChipState& state) {
  std::string out = "ash-checkpoint ";
  out.append(kCheckpointVersion)
      .append(" chip devices=")
      .append(std::to_string(state.devices.size()))
      .append("\n");
  for (const std::vector<double>& occ : state.devices) {
    out.append("D ").append(std::to_string(occ.size()));
    for (const double v : occ) {
      out += ' ';
      append_g17(out, v);
    }
    out += '\n';
  }
  out += "end\n";
  os << out;
}

ChipState load_checkpoint(std::string_view document) {
  constexpr int kMaxCount = std::numeric_limits<int>::max();
  util::LineCursor cursor(document, fail);
  util::Tokens header(cursor.next_line(), fail);
  if (header.next("magic").text() != "ash-checkpoint") fail("bad magic");
  const std::string_view version = header.next("version").text();
  if (version != kCheckpointVersion) fail("unsupported version", version);
  const std::string_view kind = header.next("kind").text();
  if (kind != "chip") fail("unsupported kind", kind);
  const std::string_view devices = header.next("devices").text();
  constexpr std::string_view kDevicesKey = "devices=";
  if (!devices.starts_with(kDevicesKey)) fail("bad device count");
  const int device_count =
      util::Field(devices.substr(kDevicesKey.size()), "devices", fail)
          .integer(0, kMaxCount);
  header.expect_end("header");

  // No allocation is sized by a count read from the document: a row grows
  // with the tokens it really holds.
  ChipState state;
  for (int i = 0; i < device_count; ++i) {
    util::Tokens row(cursor.next_line(), fail);
    if (row.next("tag").text() != "D") fail("bad device row");
    const int traps = row.next("traps").integer(0, kMaxCount);
    std::vector<double>& occ = state.devices.emplace_back();
    for (int t = 0; t < traps; ++t) {
      occ.push_back(row.next("occupancy").number_in(0.0, 1.0));
    }
    row.expect_end("D");
  }
  if (cursor.next_line() != "end") fail("missing trailer");
  cursor.expect_done();
  return state;
}

}  // namespace ash::fpga
