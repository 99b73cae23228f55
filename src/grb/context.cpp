#include "grb/context.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#include <atomic>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "support/telemetry/metrics.hpp"

namespace grb {

namespace {
// 0 = use OpenMP default. The knob is a standalone value — no other data is
// published under it — so relaxed ordering is sufficient; the fork/join of
// the parallel region that consumes it provides the synchronisation.
std::atomic<int> g_threads{0};
}

void set_threads(int n) noexcept {
  g_threads.store(n < 1 ? 0 : n, std::memory_order_relaxed);
}

int threads() noexcept {
  const int n = g_threads.load(std::memory_order_relaxed);
#ifdef _OPENMP
  return n == 0 ? omp_get_max_threads() : n;
#else
  return n == 0 ? 1 : n;
#endif
}

bool threads_pinned() noexcept {
  return g_threads.load(std::memory_order_relaxed) != 0;
}

ThreadGuard::ThreadGuard(int n) noexcept
    : saved_(g_threads.load(std::memory_order_relaxed)) {
  set_threads(n);
}

ThreadGuard::~ThreadGuard() {
  g_threads.store(saved_, std::memory_order_relaxed);
}

namespace {

namespace telemetry = grbsm::telemetry;

using MetricEntries =
    std::vector<std::pair<std::string, telemetry::MetricValue>>;

/// The arena.* name table, shared by the provider that writes the entries
/// and arena_stats_of that reads them back, so each name is spelled once.
/// Every field is published as "arena.<name>"; the first kDomainFields (the
/// lease counters) also as "arena.shard<d>.<name>" per active domain.
struct ArenaField {
  const char* name;
  std::uint64_t WorkspaceStats::*field;
  telemetry::MetricKind kind = telemetry::MetricKind::kCounter;
};

constexpr telemetry::MetricKind kGauge = telemetry::MetricKind::kGauge;

constexpr ArenaField kArenaFields[] = {
    {"hits", &WorkspaceStats::hits},
    {"steals", &WorkspaceStats::steals},
    {"misses", &WorkspaceStats::misses},
    {"bytes_leased", &WorkspaceStats::bytes_leased},
    {"donations", &WorkspaceStats::donations},
    {"drops", &WorkspaceStats::drops},
    {"splits", &WorkspaceStats::splits},
    {"shrinks", &WorkspaceStats::shrinks},
    {"buffers_cached", &WorkspaceStats::buffers_cached, kGauge},
    {"bytes_cached", &WorkspaceStats::bytes_cached, kGauge},
};
constexpr std::size_t kDomainFields = 4;

std::string domain_prefix(std::size_t domain) {
  return "arena.shard" + std::to_string(domain) + ".";
}

void append_fields(MetricEntries& out, const std::string& prefix,
                   const WorkspaceStats& s,
                   std::span<const ArenaField> fields) {
  for (const ArenaField& f : fields) {
    telemetry::MetricValue m;
    m.kind = f.kind;
    m.value = s.*f.field;
    out.emplace_back(prefix + f.name, m);
  }
}

/// Fields the prefix does not publish (a domain's gauges) read as zero.
WorkspaceStats read_fields(const telemetry::RegistrySnapshot& snap,
                           const std::string& prefix) {
  WorkspaceStats s;
  for (const ArenaField& f : kArenaFields) {
    s.*f.field = snap.value_or(prefix + f.name, 0);
  }
  return s;
}

/// Telemetry provider: surfaces the arena's counters (and every active
/// per-shard stats domain) in each registry snapshot. The arena keeps its
/// own atomics and mutex-sharded storage — the hot lease path is untouched;
/// the provider just reads them at snapshot time.
void arena_provider(MetricEntries& out) {
  const detail::Workspace& ws = Context::instance().workspace();
  append_fields(out, "arena.", ws.stats(), kArenaFields);
  for (std::size_t d = 0; d < detail::Workspace::kMaxDomains; ++d) {
    const WorkspaceStats ds = ws.domain_stats(d);
    if (ds.leases() == 0) continue;  // idle domains stay out of the wire
    append_fields(out, domain_prefix(d), ds,
                  std::span(kArenaFields).first(kDomainFields));
  }
}

}  // namespace

Context& Context::instance() noexcept {
  static Context ctx;
  // Registered once, after ctx exists (the provider dereferences it); the
  // registration itself is what puts "arena.*" into every snapshot.
  static const std::uint64_t provider_id =
      telemetry::Registry::instance().add_provider(arena_provider);
  (void)provider_id;
  return ctx;
}

std::size_t trim_workspace() { return Context::instance().trim_workspace(); }

WorkspaceStats arena_stats_of(const telemetry::RegistrySnapshot& snap) {
  return read_fields(snap, "arena.");
}

WorkspaceStats arena_stats_of(const telemetry::RegistrySnapshot& snap,
                              std::size_t domain) {
  return read_fields(snap, domain_prefix(domain));
}

namespace detail {

Workspace& workspace() noexcept { return Context::instance().workspace(); }

}  // namespace detail

}  // namespace grb
