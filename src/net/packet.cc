#include "net/packet.h"

#include <cstdio>

namespace superfe {

std::string PacketRecord::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%llu ns %s len=%u dir=%c", (unsigned long long)timestamp_ns,
                tuple.ToString().c_str(), wire_bytes,
                direction == Direction::kForward ? '>' : '<');
  return buf;
}

}  // namespace superfe
