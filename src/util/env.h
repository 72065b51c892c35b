// Strict environment knobs. A set knob never silently falls back to its
// default: a malformed or out-of-range value exits 1 printing "NAME=value:
// <expectation>".
#ifndef TG_UTIL_ENV_H_
#define TG_UTIL_ENV_H_

#include <cstdint>
#include <optional>

namespace tg {

// Unset, empty or "0" is off and "1" is on: `TG_TRACE=false` must never turn
// tracing on. Allocation-free, so the allocation hook may read its knob
// during static initialization.
bool EnvFlag(const char* name);

// nullopt when unset or empty; else the whole value must be a plain decimal
// integer (no sign or space) in [lo, hi].
std::optional<uint64_t> EnvUint64InRange(const char* name, uint64_t lo,
                                         uint64_t hi, const char* expectation);

// nullopt when unset or empty; else the value must be a finite number above
// `min`, or equal to it when `min_inclusive`.
std::optional<double> EnvFiniteDouble(const char* name, double min,
                                      bool min_inclusive,
                                      const char* expectation);

}  // namespace tg

#endif  // TG_UTIL_ENV_H_
