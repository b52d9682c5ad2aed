// Fixture: the same gaps as the positive case, but each incomplete
// enumerator carries a reasoned ash-lint escape on its line.
#pragma once

#include <string>
#include <string_view>

namespace ash::fleet {

enum class MessageType : unsigned {
  kEchoRequest = 1,
  kEchoResponse = 2,  // ash-lint: allow(protocol-exhaustiveness): fixture-sanctioned gap
};

enum class ProtocolViolation : unsigned {
  kNone = 0,
  kBadMagic,
  kHostileLength,  // ash-lint: allow(protocol-exhaustiveness): fixture-sanctioned gap
  kCount,
};

struct EchoRequest {
  std::string body;
  std::string encode() const;
  static EchoRequest parse(std::string_view payload);
};

const char* to_string(MessageType type);

}  // namespace ash::fleet
