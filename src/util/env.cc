#include "util/env.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/string_util.h"

namespace tg {
namespace {

[[noreturn]] void ExitBadKnob(const char* name, const char* value,
                              const char* expectation) {
  std::fprintf(stderr, "%s=%s: %s\n", name, value, expectation);
  std::exit(1);
}

}  // namespace

bool EnvFlag(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || std::strcmp(value, "") == 0 ||
      std::strcmp(value, "0") == 0) {
    return false;
  }
  if (std::strcmp(value, "1") == 0) return true;
  ExitBadKnob(name, value, "expected 0 or 1");
}

std::optional<uint64_t> EnvUint64InRange(const char* name, uint64_t lo,
                                         uint64_t hi,
                                         const char* expectation) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return std::nullopt;
  uint64_t parsed = 0;
  if (!ParseUint64(value, &parsed) || parsed < lo || parsed > hi) {
    ExitBadKnob(name, value, expectation);
  }
  return parsed;
}

std::optional<double> EnvFiniteDouble(const char* name, double min,
                                      bool min_inclusive,
                                      const char* expectation) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return std::nullopt;
  double parsed = 0.0;
  if (!ParseDouble(value, &parsed) || !std::isfinite(parsed) ||
      parsed < min || (parsed == min && !min_inclusive)) {
    ExitBadKnob(name, value, expectation);
  }
  return parsed;
}

}  // namespace tg
