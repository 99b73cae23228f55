#include "support/telemetry/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace grbsm::telemetry {

// --- HistogramSnapshot -------------------------------------------------------

std::uint64_t HistogramSnapshot::count() const noexcept {
  std::uint64_t n = 0;
  for (const std::uint64_t b : buckets) n += b;
  return n;
}

double HistogramSnapshot::mean() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(n);
}

double HistogramSnapshot::quantile(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Target rank over the n recorded values (0-based, interpolated like the
  // sorted-vector estimator load_gen used to run on raw samples).
  const double rank = q * static_cast<double>(n - 1);
  std::uint64_t before = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    const std::uint64_t c = buckets[i];
    if (c == 0) continue;
    if (rank < static_cast<double>(before + c)) {
      const double lo = static_cast<double>(bucket_lo(i));
      // The recorded max lives in the highest non-empty bucket; capping that
      // bucket's upper edge with it (and the open-ended tail bucket always)
      // keeps the interpolation from extrapolating past a value ever seen.
      double hi = i >= kHistogramBuckets - 1
                      ? static_cast<double>(max)
                      : static_cast<double>(bucket_hi(i));
      if (max >= bucket_lo(i) && max < bucket_hi(i)) {
        hi = static_cast<double>(max);
      }
      hi = std::max(hi, lo);
      const double frac =
          c == 1 ? 0.5
                 : (rank - static_cast<double>(before)) /
                       static_cast<double>(c - 1);
      return lo + frac * (hi - lo);
    }
    before += c;
  }
  return static_cast<double>(max);
}

HistogramSnapshot& HistogramSnapshot::operator+=(
    const HistogramSnapshot& o) noexcept {
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) buckets[i] += o.buckets[i];
  sum += o.sum;
  max = std::max(max, o.max);
  return *this;
}

HistogramSnapshot HistogramSnapshot::delta_since(
    const HistogramSnapshot& earlier) const noexcept {
  HistogramSnapshot d;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    d.buckets[i] =
        buckets[i] >= earlier.buckets[i] ? buckets[i] - earlier.buckets[i] : 0;
  }
  d.sum = sum >= earlier.sum ? sum - earlier.sum : 0;
  // Max is not interval-decomposable; the later poll's max is the honest
  // upper bound for the interval.
  d.max = max;
  return d;
}

// --- Histogram ---------------------------------------------------------------

HistogramSnapshot Histogram::snapshot() const noexcept {
  HistogramSnapshot s;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  s.sum = sum_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  return s;
}

// --- RegistrySnapshot --------------------------------------------------------

const MetricValue* RegistrySnapshot::find(
    std::string_view name) const noexcept {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), name,
      [](const auto& e, std::string_view n) { return e.first < n; });
  if (it == entries.end() || it->first != name) return nullptr;
  return &it->second;
}

std::uint64_t RegistrySnapshot::value_or(
    std::string_view name, std::uint64_t fallback) const noexcept {
  const MetricValue* v = find(name);
  return v == nullptr ? fallback : v->value;
}

const HistogramSnapshot* RegistrySnapshot::histogram(
    std::string_view name) const noexcept {
  const MetricValue* v = find(name);
  return v != nullptr && v->kind == MetricKind::kHistogram ? &v->hist
                                                           : nullptr;
}

RegistrySnapshot RegistrySnapshot::delta_since(
    const RegistrySnapshot& earlier) const {
  RegistrySnapshot d = *this;
  for (auto& [name, v] : d.entries) {
    const MetricValue* e = earlier.find(name);
    if (e == nullptr || e->kind != v.kind) continue;
    if (v.kind == MetricKind::kCounter) {
      v.value = v.value >= e->value ? v.value - e->value : 0;
    } else if (v.kind == MetricKind::kHistogram) {
      v.hist = v.hist.delta_since(e->hist);
    }
  }
  return d;
}

// --- Wire codec --------------------------------------------------------------

namespace {

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

struct Cursor {
  const std::uint8_t* p;
  std::size_t left;

  void need(std::size_t n) const {
    if (left < n) {
      throw std::runtime_error("metrics snapshot truncated");
    }
  }
  std::uint8_t u8() {
    need(1);
    const std::uint8_t v = *p;
    ++p;
    --left;
    return v;
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
    p += 4;
    left -= 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
    p += 8;
    left -= 8;
    return v;
  }
  std::string str(std::size_t n) {
    need(n);
    std::string s(reinterpret_cast<const char*>(p), n);
    p += n;
    left -= n;
    return s;
  }
};

}  // namespace

std::vector<std::uint8_t> serialize(const RegistrySnapshot& s) {
  std::vector<std::uint8_t> out;
  put_u32(out, s.schema_version);
  put_u32(out, static_cast<std::uint32_t>(s.entries.size()));
  for (const auto& [name, v] : s.entries) {
    put_u8(out, static_cast<std::uint8_t>(v.kind));
    put_u32(out, static_cast<std::uint32_t>(name.size()));
    out.insert(out.end(), name.begin(), name.end());
    if (v.kind == MetricKind::kHistogram) {
      put_u64(out, v.hist.sum);
      put_u64(out, v.hist.max);
      put_u8(out, static_cast<std::uint8_t>(kHistogramBuckets));
      for (const std::uint64_t b : v.hist.buckets) put_u64(out, b);
    } else {
      put_u64(out, v.value);
    }
  }
  return out;
}

RegistrySnapshot parse_snapshot(const std::uint8_t* data, std::size_t size) {
  Cursor c{data, size};
  RegistrySnapshot s;
  s.schema_version = c.u32();
  if (s.schema_version != kMetricsSchemaVersion) {
    throw std::runtime_error("unsupported metrics schema version " +
                             std::to_string(s.schema_version));
  }
  const std::uint32_t count = c.u32();
  s.entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint8_t kind = c.u8();
    if (kind > static_cast<std::uint8_t>(MetricKind::kHistogram)) {
      throw std::runtime_error("unknown metric kind " + std::to_string(kind));
    }
    const std::uint32_t name_len = c.u32();
    MetricValue v;
    v.kind = static_cast<MetricKind>(kind);
    std::string name = c.str(name_len);
    if (v.kind == MetricKind::kHistogram) {
      v.hist.sum = c.u64();
      v.hist.max = c.u64();
      const std::uint8_t n = c.u8();
      if (n != kHistogramBuckets) {
        throw std::runtime_error("unexpected histogram bucket count " +
                                 std::to_string(n));
      }
      for (auto& b : v.hist.buckets) b = c.u64();
    } else {
      v.value = c.u64();
    }
    s.entries.emplace_back(std::move(name), std::move(v));
  }
  if (c.left != 0) {
    throw std::runtime_error("trailing bytes after metrics snapshot");
  }
  std::sort(s.entries.begin(), s.entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return s;
}

// --- Registry ----------------------------------------------------------------

Registry& Registry::instance() {
  static Registry r;
  return r;
}

Registry::Entry& Registry::entry_for(const std::string& name,
                                     MetricKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    if (it->second.kind != kind) {
      throw std::logic_error("telemetry metric '" + name +
                             "' already registered with a different kind");
    }
    return it->second;
  }
  Entry e;
  e.kind = kind;
  switch (kind) {
    case MetricKind::kCounter:
      e.counter = std::make_unique<Counter>();
      break;
    case MetricKind::kGauge:
      e.gauge = std::make_unique<Gauge>();
      break;
    case MetricKind::kHistogram:
      e.histogram = std::make_unique<Histogram>();
      break;
  }
  return metrics_.emplace(name, std::move(e)).first->second;
}

Counter& Registry::counter(const std::string& name) {
  return *entry_for(name, MetricKind::kCounter).counter;
}

Gauge& Registry::gauge(const std::string& name) {
  return *entry_for(name, MetricKind::kGauge).gauge;
}

Histogram& Registry::histogram(const std::string& name) {
  return *entry_for(name, MetricKind::kHistogram).histogram;
}

Registry::BatchScope::BatchScope() { instance().batch_mu_.lock(); }

Registry::BatchScope::~BatchScope() { instance().batch_mu_.unlock(); }

std::uint64_t Registry::add_provider(Provider p) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = next_provider_id_++;
  providers_.emplace(id, std::move(p));
  return id;
}

void Registry::remove_provider(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  providers_.erase(id);
}

RegistrySnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  RegistrySnapshot s;
  s.entries.reserve(metrics_.size());
  {
    // Lock order mu_ -> batch_mu_ (see the header): no batch is mid-flight
    // while the values are read.
    std::lock_guard<std::mutex> batch(batch_mu_);
    for (const auto& [name, e] : metrics_) {
      MetricValue v;
      v.kind = e.kind;
      switch (e.kind) {
        case MetricKind::kCounter:
          v.value = e.counter->value();
          break;
        case MetricKind::kGauge:
          v.value = e.gauge->value();
          break;
        case MetricKind::kHistogram:
          v.hist = e.histogram->snapshot();
          break;
      }
      s.entries.emplace_back(name, std::move(v));
    }
  }
  for (const auto& [id, provider] : providers_) {
    provider(s.entries);
  }
  std::sort(s.entries.begin(), s.entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return s;
}

}  // namespace grbsm::telemetry
