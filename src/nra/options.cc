#include "nra/options.h"

#include <sstream>

namespace nestra {

std::string NraOptions::ToString() const {
  std::ostringstream oss;
  oss << "NraOptions{fused=" << (fused ? "true" : "false")
      << ", nest=" << (nest_method == NestMethod::kSort ? "sort" : "hash")
      << ", push_down_nest=" << (push_down_nest ? "true" : "false")
      << ", rewrite_positive=" << (rewrite_positive ? "true" : "false")
      << ", bottom_up_linear=" << (bottom_up_linear ? "true" : "false")
      << ", magic_restriction=" << (magic_restriction ? "true" : "false")
      << ", threads=";
  // "auto" keeps the string machine-independent for golden test output.
  if (num_threads <= 0) {
    oss << "auto";
  } else {
    oss << num_threads;
  }
  oss << ", two_valued=" << (two_valued ? "true" : "false")
      << ", cost_based=" << (cost_based ? "true" : "false")
      << ", profile=" << (profile ? "true" : "false")
      << ", verify_plans=" << (verify_plans ? "true" : "false");
  // Telemetry knobs print only when set, keeping the common rendering (and
  // any golden output built on it) unchanged.
  if (slow_query_ms > 0) oss << ", slow_query_ms=" << slow_query_ms;
  if (max_query_mem > 0) oss << ", max_query_mem=" << max_query_mem;
  if (!trace_path.empty()) oss << ", trace=" << trace_path;
  if (!session_label.empty()) oss << ", session=" << session_label;
  oss << "}";
  return oss.str();
}

std::string NraStats::ToString() const {
  std::ostringstream oss;
  oss << "join=" << join_seconds << "s nest+select=" << nest_select_seconds
      << "s intermediate=" << intermediate_rows << " rows output="
      << output_rows << " rows";
  return oss.str();
}

}  // namespace nestra
