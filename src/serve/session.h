// Tenants, access levels, and per-tenant rate limiting for the query server.
//
// The access model follows the paper's deployment story (and pg_diffix-style
// systems): an analyst queries the *published* anonymized release, while an
// administrator may also query the raw microdata for utility auditing.
//
//  - kAnonymized: COUNTs are answered from the published recoding (the
//    estimated count the ARE metric compares against). Default level.
//  - kDirect: COUNTs are answered from the raw dataset (the exact count).
//    Granted only to admin tenants; an anonymized-level tenant requesting
//    "direct" gets PermissionDenied.
//
// Tenants are static server configuration ("name:token:access[:qps[:burst]]"
// specs on the daemon command line). Each tenant owns one token bucket
// shared by all of its concurrent connections, so a tenant cannot multiply
// its quota by opening sockets.

#ifndef SECRETA_SERVE_SESSION_H_
#define SECRETA_SERVE_SESSION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/status.h"

namespace secreta {

class Counter;
class LatencyHistogram;

/// Memoized labeled-metric handles for one (tenant, dataset) pair. Registry
/// handles are stable for the process lifetime, so the serving hot path
/// resolves them once per session+dataset instead of paying label
/// canonicalization and the registry mutex on every COUNT (the serve_bench
/// telemetry-overhead gate is what keeps this honest).
struct CountMetricHandles {
  Counter* requests_ok = nullptr;
  LatencyHistogram* count_seconds = nullptr;
  Counter* slow_queries = nullptr;
};

/// What a session is allowed to see.
enum class AccessLevel {
  kAnonymized,  ///< counts from the published recoding only
  kDirect,      ///< raw counts (admin / utility auditing)
};

const char* AccessLevelToString(AccessLevel level);
Result<AccessLevel> ParseAccessLevel(const std::string& name);

/// Static configuration of one tenant.
struct TenantConfig {
  std::string name;
  std::string token;  ///< bearer secret presented in the hello request
  AccessLevel access = AccessLevel::kAnonymized;
  /// Sustained queries/second; <= 0 means unlimited.
  double quota_qps = 0;
  /// Bucket capacity (burst allowance); defaults to max(1, quota_qps).
  double quota_burst = 0;
};

/// Parses "name:token:access[:qps[:burst]]", e.g. "demo:s3cret:anonymized:5".
Result<TenantConfig> ParseTenantSpec(const std::string& spec);

/// \brief Standard token bucket: capacity `burst`, refilled at `rate` tokens
/// per second. Thread-safe; shared by all connections of one tenant.
class TokenBucket {
 public:
  /// rate <= 0 constructs an unlimited bucket (TryAcquire always succeeds).
  TokenBucket(double rate, double burst);

  /// Takes one token. On an empty bucket fails with ResourceExhausted
  /// carrying a retry-after hint (time until one token refills).
  Status TryAcquire();

  bool unlimited() const { return rate_ <= 0; }

 private:
  const double rate_;
  const double burst_;
  Mutex mutex_;
  double tokens_ SECRETA_GUARDED_BY(mutex_);
  std::chrono::steady_clock::time_point last_refill_
      SECRETA_GUARDED_BY(mutex_);
};

/// \brief One authenticated connection. Created by TenantRegistry on a
/// successful hello; holds the tenant's shared quota bucket and the
/// session's metric handle cache. Per-tenant outcomes are counted in the
/// serve.requests{tenant,dataset,code} family, not here.
class ClientSession {
 public:
  ClientSession(uint64_t id, const TenantConfig& config,
                std::shared_ptr<TokenBucket> quota);

  uint64_t id() const { return id_; }
  const std::string& tenant() const { return tenant_; }
  AccessLevel access() const { return access_; }

  /// True when this session may answer at `requested` level (direct implies
  /// anonymized, not the other way around).
  bool Allows(AccessLevel requested) const;

  /// Charges one query against the tenant quota.
  Status ChargeQuota() { return quota_->TryAcquire(); }

  /// Per-dataset telemetry handle cache. A session belongs to exactly one
  /// connection and is only touched by that connection's handler thread, so
  /// the map needs no lock.
  CountMetricHandles& count_metric_handles(const std::string& dataset) {
    return telemetry_handles_[dataset];
  }

 private:
  const uint64_t id_;
  const std::string tenant_;
  const AccessLevel access_;
  std::shared_ptr<TokenBucket> quota_;
  std::unordered_map<std::string, CountMetricHandles> telemetry_handles_;
};

/// \brief Token → tenant lookup plus session minting. Tenants are added
/// before the server starts; Authenticate is called concurrently by
/// connection handlers afterwards (const, lock-free map reads).
class TenantRegistry {
 public:
  /// Registers a tenant. Fails on duplicate name or duplicate token (a
  /// shared token would make sessions indistinguishable).
  Status AddTenant(const TenantConfig& config);

  /// Mints a session for the tenant owning `token`. Fails with
  /// PermissionDenied on an unknown token — deliberately the same error for
  /// "no such tenant" and "wrong token" (no token-probing oracle).
  Result<std::shared_ptr<ClientSession>> Authenticate(
      const std::string& token);

  size_t tenant_count() const { return by_token_.size(); }

 private:
  struct Tenant {
    TenantConfig config;
    std::shared_ptr<TokenBucket> quota;
  };
  std::unordered_map<std::string, Tenant> by_token_;
  std::unordered_map<std::string, std::string> token_by_name_;
  std::atomic<uint64_t> next_session_id_{1};
};

}  // namespace secreta

#endif  // SECRETA_SERVE_SESSION_H_
