#include "ash/obs/flight_recorder.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "ash/obs/clock.h"
#include "ash/util/table.h"
#include "ash/util/text_reader.h"

namespace ash::obs {

namespace {

constexpr char kHeader[] = "ash-flight-recorder v1";

// --- Async-signal-safe line formatting ----------------------------------
// The fatal-signal dump path may not allocate or call printf, so every
// line is built into a caller-owned stack buffer with these helpers; the
// normal serialize() path reuses them, which is what makes the two dumps
// byte-identical.

void append_char(char* buf, std::size_t cap, std::size_t& pos, char c) {
  if (pos + 1 < cap) buf[pos++] = c;
}

void append_str(char* buf, std::size_t cap, std::size_t& pos,
                const char* s) {
  while (*s != '\0') append_char(buf, cap, pos, *s++);
}

void append_u64(char* buf, std::size_t cap, std::size_t& pos,
                std::uint64_t v) {
  char digits[20];
  int n = 0;
  do {
    digits[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0) append_char(buf, cap, pos, digits[--n]);
}

/// Milliseconds with fixed three decimals (integer math only).
void append_ms(char* buf, std::size_t cap, std::size_t& pos, double t_ms) {
  if (t_ms < 0.0) t_ms = 0.0;
  const std::uint64_t micros = static_cast<std::uint64_t>(t_ms * 1000.0 + 0.5);
  append_u64(buf, cap, pos, micros / 1000);
  append_char(buf, cap, pos, '.');
  const std::uint64_t frac = micros % 1000;
  append_char(buf, cap, pos, static_cast<char>('0' + frac / 100));
  append_char(buf, cap, pos, static_cast<char>('0' + frac / 10 % 10));
  append_char(buf, cap, pos, static_cast<char>('0' + frac % 10));
}

/// One "event ..." line; returns its length.
std::size_t format_event_line(char* buf, std::size_t cap,
                              const FlightRecord& e) {
  std::size_t pos = 0;
  append_str(buf, cap, pos, "event ");
  append_u64(buf, cap, pos, e.seq);
  append_char(buf, cap, pos, ' ');
  append_ms(buf, cap, pos, e.t_ms);
  append_char(buf, cap, pos, ' ');
  append_str(buf, cap, pos, to_string(e.kind));
  append_char(buf, cap, pos, ' ');
  append_u64(buf, cap, pos, e.a);
  append_char(buf, cap, pos, ' ');
  append_u64(buf, cap, pos, e.b);
  append_char(buf, cap, pos, '\n');
  buf[pos] = '\0';
  return pos;
}

std::size_t format_header(char* buf, std::size_t cap, std::size_t capacity,
                          std::uint64_t recorded) {
  std::size_t pos = 0;
  append_str(buf, cap, pos, kHeader);
  append_char(buf, cap, pos, '\n');
  append_str(buf, cap, pos, "capacity ");
  append_u64(buf, cap, pos, capacity);
  append_char(buf, cap, pos, '\n');
  append_str(buf, cap, pos, "recorded ");
  append_u64(buf, cap, pos, recorded);
  append_char(buf, cap, pos, '\n');
  buf[pos] = '\0';
  return pos;
}

bool write_all(int fd, const char* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

constexpr std::size_t kLineCap = 160;

}  // namespace

const char* to_string(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kDaemonStart: return "daemon-start";
    case FlightEventKind::kStateGenesis: return "state-genesis";
    case FlightEventKind::kStateLoaded: return "state-loaded";
    case FlightEventKind::kSnapshotSaved: return "snapshot-saved";
    case FlightEventKind::kConnectionAccepted: return "connection-accepted";
    case FlightEventKind::kConnectionRejected: return "connection-rejected";
    case FlightEventKind::kEviction: return "eviction";
    case FlightEventKind::kFrameError: return "frame-error";
    case FlightEventKind::kRequestShed: return "request-shed";
    case FlightEventKind::kMutationApplied: return "mutation-applied";
    case FlightEventKind::kMutationReplayed: return "mutation-replayed";
    case FlightEventKind::kDrainBegin: return "drain-begin";
    case FlightEventKind::kDrainEnd: return "drain-end";
    case FlightEventKind::kFatalSignal: return "fatal-signal";
    case FlightEventKind::kCount: break;
  }
  return "unknown";
}

FlightEventKind parse_flight_event(std::string_view name) {
  for (std::uint32_t k = 0;
       k < static_cast<std::uint32_t>(FlightEventKind::kCount); ++k) {
    const auto kind = static_cast<FlightEventKind>(k);
    if (name == to_string(kind)) return kind;
  }
  return FlightEventKind::kCount;
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : slots_(capacity), epoch_ns_(monotonic_ns()) {}

double FlightRecorder::elapsed_ms() const {
  return static_cast<double>(monotonic_ns() - epoch_ns_) * 1e-6;
}

void FlightRecorder::record(FlightEventKind kind, std::uint64_t a,
                            std::uint64_t b) {
  if (slots_.empty()) return;  // disabled: one branch, no clock read
  const std::uint64_t seq =
      next_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  Slot& slot = slots_[static_cast<std::size_t>((seq - 1) % slots_.size())];
  // Invalidate, fill, publish: a reader that races the fill sees either
  // stamp 0 or mismatched stamps and drops the slot instead of tearing.
  slot.stamp.store(0, std::memory_order_release);
  slot.t_ms = elapsed_ms();
  slot.kind = static_cast<std::uint32_t>(kind);
  slot.a = a;
  slot.b = b;
  slot.stamp.store(seq, std::memory_order_release);
}

std::vector<FlightRecord> FlightRecorder::events() const {
  std::vector<FlightRecord> out;
  const std::uint64_t total = next_seq_.load(std::memory_order_acquire);
  if (slots_.empty() || total == 0) return out;
  const std::uint64_t cap = slots_.size();
  const std::uint64_t first = total > cap ? total - cap + 1 : 1;
  out.reserve(static_cast<std::size_t>(total - first + 1));
  for (std::uint64_t seq = first; seq <= total; ++seq) {
    const Slot& slot =
        slots_[static_cast<std::size_t>((seq - 1) % cap)];
    const std::uint64_t before = slot.stamp.load(std::memory_order_acquire);
    FlightRecord rec;
    rec.seq = before;
    rec.t_ms = slot.t_ms;
    rec.kind = static_cast<FlightEventKind>(slot.kind);
    rec.a = slot.a;
    rec.b = slot.b;
    const std::uint64_t after = slot.stamp.load(std::memory_order_acquire);
    if (before != seq || after != seq) continue;  // torn or overwritten
    out.push_back(rec);
  }
  return out;
}

std::string FlightRecorder::serialize() const {
  char line[kLineCap];
  std::string out;
  out.append(line, format_header(line, sizeof line, slots_.size(),
                                 next_seq_.load(std::memory_order_relaxed)));
  for (const FlightRecord& e : events()) {
    out.append(line, format_event_line(line, sizeof line, e));
  }
  out += "end\n";
  return out;
}

bool FlightRecorder::write_fd(int fd) const {
  char line[kLineCap];
  std::size_t n = format_header(line, sizeof line, slots_.size(),
                                next_seq_.load(std::memory_order_relaxed));
  if (!write_all(fd, line, n)) return false;
  // Walk the ring oldest-first without allocating (fatal-signal path).
  const std::uint64_t total = next_seq_.load(std::memory_order_acquire);
  const std::uint64_t cap = slots_.size();
  if (cap != 0 && total != 0) {
    const std::uint64_t first = total > cap ? total - cap + 1 : 1;
    for (std::uint64_t seq = first; seq <= total; ++seq) {
      const Slot& slot =
          slots_[static_cast<std::size_t>((seq - 1) % cap)];
      if (slot.stamp.load(std::memory_order_acquire) != seq) continue;
      FlightRecord rec;
      rec.seq = seq;
      rec.t_ms = slot.t_ms;
      rec.kind = static_cast<FlightEventKind>(slot.kind);
      rec.a = slot.a;
      rec.b = slot.b;
      n = format_event_line(line, sizeof line, rec);
      if (!write_all(fd, line, n)) return false;
    }
  }
  return write_all(fd, "end\n", 4);
}

std::vector<FlightRecord> FlightRecorder::load(std::string_view bytes) {
  constexpr std::string_view header = kHeader;
  if (bytes.substr(0, header.size()) != header ||
      bytes.substr(header.size(), 1) != "\n") {
    throw std::runtime_error(
        "flight recorder: not a dump (missing '" + std::string(kHeader) +
        "' header)");
  }
  util::LineCursor cursor(bytes.substr(header.size() + 1));
  // Past the header nothing throws: a torn write leaves a last line
  // without its '\n' (it may end mid-token and still look well-formed),
  // and the first torn or malformed line ends the dump.  What comes back
  // is the prefix of well-formed records before it.
  std::vector<FlightRecord> out;
  try {
    for (std::string_view line = cursor.next_line(); line != "end";
         line = cursor.next_line()) {
      util::Tokens tokens(line);
      const std::string_view tag = tokens.next("tag").text();
      if (tag == "capacity" || tag == "recorded") {
        (void)tokens.next("count").u64();
        tokens.expect_end(tag);
        continue;
      }
      if (tag != "event") break;
      FlightRecord rec;
      rec.seq = tokens.next("seq").u64();
      rec.t_ms = tokens.next("t_ms").number();
      rec.kind = parse_flight_event(tokens.next("kind").text());
      rec.a = tokens.next("a").u64();
      rec.b = tokens.next("b").u64();
      tokens.expect_end(tag);
      if (rec.kind == FlightEventKind::kCount) break;
      out.push_back(rec);
    }
  } catch (const util::ParseError&) {
    // The torn or malformed line: keep what came before it.
  }
  return out;
}

std::string FlightRecorder::render(const std::vector<FlightRecord>& events) {
  std::string out = strformat("flight recorder: %zu event(s)\n",
                              events.size());
  if (events.empty()) return out;
  out += "     seq        t_ms  event                            a"
         "            b\n";
  for (const FlightRecord& e : events) {
    out += strformat("%8llu  %10.3f  %-22s %12llu %12llu\n",
                     static_cast<unsigned long long>(e.seq), e.t_ms,
                     to_string(e.kind),
                     static_cast<unsigned long long>(e.a),
                     static_cast<unsigned long long>(e.b));
  }
  return out;
}

}  // namespace ash::obs
