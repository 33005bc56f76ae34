#include "common/status.h"

namespace nestra {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "Invalid argument";
    case StatusCode::kNotFound:
      return "Not found";
    case StatusCode::kAlreadyExists:
      return "Already exists";
    case StatusCode::kTypeError:
      return "Type error";
    case StatusCode::kParseError:
      return "Parse error";
    case StatusCode::kBindError:
      return "Bind error";
    case StatusCode::kNotImplemented:
      return "Not implemented";
    case StatusCode::kInternal:
      return "Internal error";
    case StatusCode::kResourceExhausted:
      return "Resource exhausted";
    case StatusCode::kOutOfRange:
      return "Out of range";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace nestra
