#include "util/env.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace tg {

bool EnvFlag(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || std::strcmp(value, "") == 0 ||
      std::strcmp(value, "0") == 0) {
    return false;
  }
  if (std::strcmp(value, "1") == 0) return true;
  std::fprintf(stderr, "%s=%s: expected 0 or 1\n", name, value);
  std::exit(1);
}

}  // namespace tg
