#include "llm/request.hpp"

#include <algorithm>
#include <cmath>

namespace llmq::llm {

std::string to_string(PriorityClass c) {
  switch (c) {
    case PriorityClass::Interactive: return "interactive";
    case PriorityClass::Standard: return "standard";
    case PriorityClass::Batch: return "batch";
  }
  return "?";
}

PriorityClass aged_class(PriorityClass base, double waited_seconds,
                         double aging_seconds) {
  if (aging_seconds <= 0.0 || waited_seconds < aging_seconds) return base;
  const double steps = std::floor(waited_seconds / aging_seconds);
  const double promoted = static_cast<double>(base) - steps;
  return promoted <= 0.0 ? PriorityClass::Interactive
                         : static_cast<PriorityClass>(
                               static_cast<std::uint8_t>(promoted));
}

}  // namespace llmq::llm
