#include "ash/fpga/checkpoint.h"

#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "ash/util/text_reader.h"

namespace ash::fpga {

namespace {

/// Collect every trap ensemble of an object in a canonical order (const
/// view for saving, mutable view for restoring).
std::vector<const bti::TrapEnsemble*> ensembles_of(const RingOscillator& ro) {
  std::vector<const bti::TrapEnsemble*> out;
  for (int s = 0; s < ro.stage_count(); ++s) {
    const auto& stage = ro.stage(s);
    for (int d = 0; d < kLutDeviceCount; ++d) {
      out.push_back(&stage.lut.device(d).ensemble());
    }
    for (int d = 0; d < kRoutingDeviceCount; ++d) {
      out.push_back(&stage.routing.device(d).ensemble());
    }
  }
  return out;
}

std::vector<bti::TrapEnsemble*> mutable_ensembles_of(RingOscillator& ro) {
  std::vector<bti::TrapEnsemble*> out;
  for (int s = 0; s < ro.stage_count(); ++s) {
    auto& stage = ro.stage(s);
    for (int d = 0; d < kLutDeviceCount; ++d) {
      out.push_back(&stage.lut.device(d).ensemble());
    }
    for (int d = 0; d < kRoutingDeviceCount; ++d) {
      out.push_back(&stage.routing.device(d).ensemble());
    }
  }
  return out;
}

std::vector<const bti::TrapEnsemble*> ensembles_of(const Fabric& fabric) {
  std::vector<const bti::TrapEnsemble*> out;
  for (int n = 0; n < fabric.node_count(); ++n) {
    for (int d = 0; d < kLutDeviceCount; ++d) {
      out.push_back(&fabric.lut_at(n).device(d).ensemble());
    }
    for (int d = 0; d < kRoutingDeviceCount; ++d) {
      out.push_back(&fabric.routing_at(n).device(d).ensemble());
    }
  }
  return out;
}

std::vector<bti::TrapEnsemble*> mutable_ensembles_of(Fabric& fabric) {
  std::vector<bti::TrapEnsemble*> out;
  for (int n = 0; n < fabric.node_count(); ++n) {
    for (int d = 0; d < kLutDeviceCount; ++d) {
      out.push_back(&fabric.lut_at(n).device(d).ensemble());
    }
    for (int d = 0; d < kRoutingDeviceCount; ++d) {
      out.push_back(&fabric.routing_at(n).device(d).ensemble());
    }
  }
  return out;
}

void write(std::ostream& os, const char* kind,
           const std::vector<const bti::TrapEnsemble*>& ensembles) {
  os << "ash-checkpoint v" << kCheckpointVersion << " " << kind
     << " devices=" << ensembles.size() << "\n";
  os.precision(17);
  for (const auto* e : ensembles) {
    os << "D " << e->trap_count();
    for (double occ : e->occupancies()) os << ' ' << occ;
    os << '\n';
  }
  os << "end\n";
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("checkpoint: " + what);
}

/// Restore one whole checkpoint document into `ensembles`.
void read(std::string_view text, const char* kind,
          const std::vector<bti::TrapEnsemble*>& ensembles) {
  util::LineCursor cursor(text, fail);
  util::Tokens header(cursor.next_line(), fail);
  if (header.next("magic").text() != "ash-checkpoint") fail("bad magic");
  const std::string_view version = header.next("version").text();
  if (version != "v" + std::to_string(kCheckpointVersion)) {
    fail("unsupported version '" + std::string(version) + "'");
  }
  const std::string_view got_kind = header.next("kind").text();
  if (got_kind != kind) {
    fail("kind mismatch: stream has '" + std::string(got_kind) +
         "', object is '" + std::string(kind) + "'");
  }
  const std::string_view devices = header.next("devices").text();
  if (devices != "devices=" + std::to_string(ensembles.size())) {
    fail("device count mismatch (" + std::string(devices) + ")");
  }
  header.expect_end("header");

  // Parse into a staging area first so a malformed stream cannot leave the
  // object half-restored.
  std::vector<std::vector<double>> staged;
  staged.reserve(ensembles.size());
  for (std::size_t i = 0; i < ensembles.size(); ++i) {
    util::Tokens row(cursor.next_line(), fail);
    if (row.next("tag").text() != "D") fail("bad device row");
    const int traps =
        row.next("traps").integer(0, std::numeric_limits<int>::max());
    if (traps != ensembles[i]->trap_count()) {
      fail("trap count mismatch on device " + std::to_string(i));
    }
    std::vector<double> occ(static_cast<std::size_t>(traps));
    for (auto& v : occ) v = row.next("occupancy").number_in(0.0, 1.0);
    row.expect_end("D");
    staged.push_back(std::move(occ));
  }
  if (cursor.next_line() != "end") fail("missing trailer");
  cursor.expect_done();

  for (std::size_t i = 0; i < ensembles.size(); ++i) {
    ensembles[i]->set_occupancies(staged[i]);
  }
}

}  // namespace

void save_checkpoint(std::ostream& os, const RingOscillator& ro) {
  write(os, "ring-oscillator", ensembles_of(ro));
}

void save_checkpoint(std::ostream& os, const FpgaChip& chip) {
  write(os, "chip", ensembles_of(chip.ro()));
}

void save_checkpoint(std::ostream& os, const Fabric& fabric) {
  write(os, "fabric", ensembles_of(fabric));
}

void load_checkpoint(std::istream& is, RingOscillator& ro) {
  read(util::read_stream(is), "ring-oscillator", mutable_ensembles_of(ro));
}

void load_checkpoint(std::istream& is, FpgaChip& chip) {
  read(util::read_stream(is), "chip", mutable_ensembles_of(chip.ro()));
}

void load_checkpoint(std::istream& is, Fabric& fabric) {
  read(util::read_stream(is), "fabric", mutable_ensembles_of(fabric));
}

std::string checkpoint_string(const FpgaChip& chip) {
  std::ostringstream os;
  save_checkpoint(os, chip);
  return os.str();
}

void restore_checkpoint(const std::string& state, FpgaChip& chip) {
  read(state, "chip", mutable_ensembles_of(chip.ro()));
}

}  // namespace ash::fpga
