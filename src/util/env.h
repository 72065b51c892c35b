// Strict boolean environment knobs (TG_TRACE, TG_METRICS, TG_MEM_TRACK,
// TG_PERF_COUNTERS, TG_EXACT_SIGMOID).
#ifndef TG_UTIL_ENV_H_
#define TG_UTIL_ENV_H_

namespace tg {

// Unset, empty or "0" is off and "1" is on. Any other value exits 1 naming
// the variable and the value, the TG_THREADS policy: `TG_TRACE=false` must
// never turn tracing on. Allocation-free, so the allocation hook may read
// its knob during static initialization.
bool EnvFlag(const char* name);

}  // namespace tg

#endif  // TG_UTIL_ENV_H_
