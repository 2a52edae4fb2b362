// Stable names for parameterized test cases.
//
// gtest names a case whose parameter type has no printer after the
// parameter's raw bytes, heap pointers included, and lists those bytes
// again in its "# GetParam()" note, so such names change from build to
// build and two cases of one build can share one. Every parameter type
// of the suites therefore prints a short, valid name token through
// these helpers (a PrintTo next to the type), and each suite names its
// cases with ::testing::PrintToStringParamName().
#pragma once

#include <cctype>
#include <cstdint>
#include <string>
#include <vector>

#include "core/pattern.hpp"

namespace torex::test {

/// "8x8x4": a shape's extents joined by 'x'.
inline std::string extents_name(const std::vector<std::int32_t>& extents) {
  std::string name;
  for (const std::int32_t e : extents) {
    if (!name.empty()) name += 'x';
    name += std::to_string(e);
  }
  return name;
}

/// "paper2d" or "nested".
inline std::string convention_name(PatternConvention convention) {
  return convention == PatternConvention::kPaper2D ? "paper2d" : "nested";
}

/// `text` with every character a test name cannot hold made '_'.
inline std::string name_token(std::string text) {
  for (char& c : text) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
  }
  return text;
}

}  // namespace torex::test
