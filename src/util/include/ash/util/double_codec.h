#pragma once

/// \file double_codec.h
/// The one text codec for doubles: `fmt_double` writes the fleet wire
/// protocol, journal records and state snapshot; `parse_double` is the
/// number grammar of every text reader (`util/text_reader.h`: the fleet
/// formats, fpga and campaign checkpoints, DataLog CSV cells, flight dumps
/// and flag values), whatever wrote the text.
///
/// `fmt_double` writes the shortest decimal text that reads back to the
/// same bits (`std::to_chars`, no format string), so two processes that
/// agree on a value agree on its bytes — what makes the fleet's
/// retried-transcript == undisturbed-transcript check a byte comparison.
/// `parse_double` is its strict inverse (`std::from_chars`): it accepts a
/// token only when every byte is consumed and the value is finite.  It
/// therefore refuses spellings `strtod` would take: leading whitespace,
/// a leading '+', hex floats, `inf`/`nan`, and decimal text whose value
/// overflows or underflows to zero (`1e400`, `1e-400`).  Subnormals that
/// round to a nonzero value are accepted, so every finite double
/// round-trips: parse_double(fmt_double(v)) has the bits of v.

#include <optional>
#include <string>
#include <string_view>

namespace ash {

/// Shortest round-trip text of `v` ("inf"/"nan" for non-finite values,
/// which parse_double refuses).
std::string fmt_double(double v);

/// Appends `v` as printf's "%.17g" spells it (`std::to_chars`, general
/// format, 17 significant digits): the chip and campaign checkpoints'
/// spelling, which round-trips but is not the shortest.
void append_g17(std::string& out, double v);

/// The finite double that `text` spells in full; nullopt otherwise.
std::optional<double> parse_double(std::string_view text);

}  // namespace ash
