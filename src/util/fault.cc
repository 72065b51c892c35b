#include "util/fault.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>

#include "util/string_util.h"

namespace tg::fault {

namespace internal {
std::atomic<bool> g_armed{false};
}  // namespace internal

namespace {

// Counter-based hash (SplitMix64): prob decisions depend only on
// (seed, hit index), so schedules replay identically across runs and
// thread interleavings.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

struct SiteState {
  SiteRule rule;
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> fired{0};
};

// One installed spec. Sets are never freed -- a concurrent fault point may
// still hold the pointer after a replace -- but every set ever created stays
// chained through `retired_next` so the retention is reachable, not a leak
// (specs are tiny and installs are test/startup-time only).
struct SiteSet {
  std::vector<SiteState> sites;
  SiteSet* retired_next = nullptr;
};

std::atomic<SiteSet*> g_sites{nullptr};
std::mutex g_install_mu;
SiteSet* g_all_sets = nullptr;  // head of the retention chain; under g_install_mu

SiteState* FindSite(const char* site) {
  SiteSet* set = g_sites.load(std::memory_order_acquire);
  if (set == nullptr) return nullptr;
  for (SiteState& state : set->sites) {
    if (std::strcmp(state.rule.site.c_str(), site) == 0) return &state;
  }
  return nullptr;
}

Status BadRule(const std::string& entry, const std::string& why) {
  return Status::InvalidArgument("TG_FAULT rule \"" + entry + "\": " + why);
}

// Parses one `site=mode(:modifier)*` entry.
Status ParseRule(const std::string& entry, SiteRule* rule) {
  const size_t eq = entry.find('=');
  if (eq == std::string::npos || eq == 0) {
    return BadRule(entry, "expected site=mode");
  }
  rule->site = Trim(entry.substr(0, eq));
  if (rule->site.empty()) return BadRule(entry, "empty site name");

  const std::vector<std::string> tokens = Split(entry.substr(eq + 1), ':');
  size_t i = 0;
  auto next_number = [&](const char* what, uint64_t* out) -> Status {
    if (++i >= tokens.size()) {
      return BadRule(entry, std::string(what) + " needs a value");
    }
    if (!ParseUint64(tokens[i], out)) {
      return BadRule(entry, "bad " + std::string(what) + " value \"" +
                                tokens[i] + "\"");
    }
    return Status::OK();
  };

  const std::string& mode = tokens[0];
  if (mode == "always") {
    rule->mode = SiteRule::Mode::kAlways;
  } else if (mode == "once") {
    rule->mode = SiteRule::Mode::kAlways;
    rule->once = true;
  } else if (mode == "hit") {
    rule->mode = SiteRule::Mode::kHit;
    TG_RETURN_IF_ERROR(next_number("hit", &rule->n));
    if (rule->n == 0) return BadRule(entry, "hit index is 1-based");
  } else if (mode == "after") {
    rule->mode = SiteRule::Mode::kAfter;
    TG_RETURN_IF_ERROR(next_number("after", &rule->n));
  } else if (mode == "prob") {
    rule->mode = SiteRule::Mode::kProb;
    if (++i >= tokens.size() ||
        !ParseDouble(tokens[i], &rule->probability) ||
        !(rule->probability >= 0.0 && rule->probability <= 1.0)) {
      return BadRule(entry, "prob needs a probability in [0,1]");
    }
  } else {
    return BadRule(entry, "unknown mode \"" + mode + "\"");
  }

  while (++i < tokens.size()) {
    const std::string& mod = tokens[i];
    if (mod == "once") {
      rule->once = true;
    } else if (mod == "seed") {
      TG_RETURN_IF_ERROR(next_number("seed", &rule->seed));
    } else if (mod == "min") {
      TG_RETURN_IF_ERROR(next_number("min", &rule->min_weight));
    } else {
      return BadRule(entry, "unknown modifier \"" + mod + "\"");
    }
  }
  return Status::OK();
}

// Seeds rules from TG_FAULT during dynamic initialization. A malformed spec
// is a hard error naming the value, like every other TG_* knob: a chaos run
// must never silently run unarmed.
[[maybe_unused]] const bool g_env_seeded = [] {
  const char* spec = std::getenv("TG_FAULT");
  if (spec == nullptr || *spec == '\0') return true;
  Status installed = InstallSpec(spec);
  if (!installed.ok()) {
    std::fprintf(stderr, "TG_FAULT=%s: %s\n", spec,
                 installed.ToString().c_str());
    std::exit(1);
  }
  return true;
}();

}  // namespace

Result<std::vector<SiteRule>> ParseSpec(const std::string& spec) {
  std::vector<SiteRule> rules;
  for (const std::string& raw : Split(spec, ';')) {
    const std::string entry = Trim(raw);
    if (entry.empty()) continue;
    SiteRule rule;
    TG_RETURN_IF_ERROR(ParseRule(entry, &rule));
    for (const SiteRule& existing : rules) {
      if (existing.site == rule.site) {
        return BadRule(entry, "duplicate rule for site");
      }
    }
    rules.push_back(std::move(rule));
  }
  return rules;
}

Status InstallSpec(const std::string& spec) {
  Result<std::vector<SiteRule>> rules = ParseSpec(spec);
  if (!rules.ok()) return rules.status();
  std::lock_guard<std::mutex> lock(g_install_mu);
  if (rules.value().empty()) {
    internal::g_armed.store(false, std::memory_order_relaxed);
    g_sites.store(nullptr, std::memory_order_release);
    return Status::OK();
  }
  auto* set = new SiteSet;
  set->sites = std::vector<SiteState>(rules.value().size());
  for (size_t i = 0; i < rules.value().size(); ++i) {
    set->sites[i].rule = rules.value()[i];
  }
  set->retired_next = g_all_sets;
  g_all_sets = set;
  g_sites.store(set, std::memory_order_release);
  internal::g_armed.store(true, std::memory_order_relaxed);
  return Status::OK();
}

void ClearFaults() {
  std::lock_guard<std::mutex> lock(g_install_mu);
  internal::g_armed.store(false, std::memory_order_relaxed);
  g_sites.store(nullptr, std::memory_order_release);
}

bool ShouldFail(const char* site, uint64_t weight) {
  SiteState* state = FindSite(site);
  if (state == nullptr) return false;
  const SiteRule& rule = state->rule;
  if (weight < rule.min_weight) return false;
  // 1-based index of this eligible hit; fetch_add gives every concurrent
  // hit a distinct index, so hit:N fires exactly once process-wide.
  const uint64_t h = state->hits.fetch_add(1, std::memory_order_relaxed) + 1;
  bool fire = false;
  switch (rule.mode) {
    case SiteRule::Mode::kAlways:
      fire = true;
      break;
    case SiteRule::Mode::kHit:
      fire = h == rule.n;
      break;
    case SiteRule::Mode::kAfter:
      fire = h > rule.n;
      break;
    case SiteRule::Mode::kProb:
      fire = static_cast<double>(SplitMix64(rule.seed ^ h) >> 11) *
                 0x1.0p-53 <
             rule.probability;
      break;
  }
  if (!fire) return false;
  // fired doubles as the once-latch: only the first increment fires.
  const uint64_t prior = state->fired.fetch_add(1, std::memory_order_relaxed);
  if (rule.once && prior != 0) return false;
  return true;
}

uint64_t SiteHits(const std::string& site) {
  SiteState* state = FindSite(site.c_str());
  return state == nullptr ? 0
                          : state->hits.load(std::memory_order_relaxed);
}

uint64_t SiteFired(const std::string& site) {
  SiteState* state = FindSite(site.c_str());
  if (state == nullptr) return 0;
  const uint64_t fired = state->fired.load(std::memory_order_relaxed);
  // Under `once` the counter keeps counting suppressed firings; report the
  // faults actually injected.
  return state->rule.once && fired > 0 ? 1 : fired;
}

uint64_t TotalFired() {
  SiteSet* set = g_sites.load(std::memory_order_acquire);
  if (set == nullptr) return 0;
  uint64_t total = 0;
  for (SiteState& state : set->sites) {
    const uint64_t fired = state.fired.load(std::memory_order_relaxed);
    total += state.rule.once && fired > 0 ? 1 : fired;
  }
  return total;
}

Status InjectedFault(const char* site) {
  return Status::Internal(std::string("injected fault at ") + site);
}

}  // namespace tg::fault
