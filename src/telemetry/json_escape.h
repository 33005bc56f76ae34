#ifndef NESTRA_TELEMETRY_JSON_ESCAPE_H_
#define NESTRA_TELEMETRY_JSON_ESCAPE_H_

#include <cstdio>
#include <sstream>
#include <string>

namespace nestra {
namespace telemetry {
namespace internal {

/// Minimal JSON string-body escaping shared by the telemetry writers
/// (metrics JSON, trace events, slow-query log). Standard-library only.
inline void JsonEscapeTo(const std::string& in, std::ostringstream* oss) {
  for (const char c : in) {
    switch (c) {
      case '"':
        *oss << "\\\"";
        break;
      case '\\':
        *oss << "\\\\";
        break;
      case '\n':
        *oss << "\\n";
        break;
      case '\r':
        *oss << "\\r";
        break;
      case '\t':
        *oss << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *oss << buf;
        } else {
          *oss << c;
        }
    }
  }
}

}  // namespace internal
}  // namespace telemetry
}  // namespace nestra

#endif  // NESTRA_TELEMETRY_JSON_ESCAPE_H_
