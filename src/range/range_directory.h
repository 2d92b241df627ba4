#ifndef SLACKER_RANGE_RANGE_DIRECTORY_H_
#define SLACKER_RANGE_RANGE_DIRECTORY_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/status.h"
#include "src/range/key_range.h"

namespace slacker::range {

/// A range with its owning server — one row of the router's table.
struct OwnedRange {
  KeyRange range;
  uint64_t server = 0;

  bool operator==(const OwnedRange& other) const = default;
};

/// The frontend's routing table (§2.2, DESIGN.md §16) and the only
/// tenant → server map in the cluster: for each tenant, an ordered map
/// from range start key to (end, owning server). The ranges of a tenant
/// always partition [0, kNoUpperBound), so OwnerOf is a total function
/// over registered tenants — a tenant may span several servers both
/// mid-migration and at rest (a split tenant).
///
/// Each tenant also records a *home*: the server that last held all of
/// its ranges. Consumers that think in whole tenants (recovery, drain,
/// monitors, the forecast sampler) read the home through Lookup and
/// TenantsOn; per-key routing reads OwnerOf. The two agree on every key
/// of an unsharded tenant because every move that leaves one owner —
/// MoveTenant, or the MoveRange that converges the tenant — moves the
/// home with it.
class RangeDirectory {
 public:
  /// Registers `tenant_id` with a single full-keyspace range owned by
  /// (and homed on) `server_id` — every tenant starts whole.
  /// AlreadyExists if present.
  Status RegisterTenant(uint64_t tenant_id, uint64_t server_id);
  /// Drops the tenant's whole range table (tenant deletion).
  Status RemoveTenant(uint64_t tenant_id);
  bool HasTenant(uint64_t tenant_id) const;

  /// The tenant's home server, or NotFound for unknown tenants.
  Result<uint64_t> Lookup(uint64_t tenant_id) const;
  /// Tenants whose home is `server_id`, in tenant-id order.
  std::vector<uint64_t> TenantsOn(uint64_t server_id) const;

  /// The server owning `key`, or NotFound for unknown tenants.
  Result<uint64_t> OwnerOf(uint64_t tenant_id, uint64_t key) const;
  /// The range containing `key`, or NotFound for unknown tenants.
  Result<OwnedRange> RangeContaining(uint64_t tenant_id, uint64_t key) const;

  /// Splits the range containing `split_key` into [lo, split_key) and
  /// [split_key, hi), both keeping the owner. InvalidArgument when
  /// split_key is 0, kNoUpperBound, or already a range boundary.
  Status Split(uint64_t tenant_id, uint64_t split_key);

  /// Reassigns an *exact* existing range to `server_id` (the range
  /// handover's directory flip), and moves the home there when that
  /// leaves every range on `server_id`. NotFound unless `exact` matches
  /// a current range boundary-for-boundary — callers split first, then
  /// move; a sloppy move could silently orphan a sliver of keyspace.
  Status MoveRange(uint64_t tenant_id, const KeyRange& exact,
                   uint64_t server_id);
  /// Reassigns every range of the tenant, and its home, to `server_id`
  /// (the whole-tenant handover's directory flip).
  Status MoveTenant(uint64_t tenant_id, uint64_t server_id);

  /// Merges the range containing `key` with its successor when both
  /// have the same owner (post-migration tidying keeps the table
  /// small). FailedPrecondition when owners differ or no successor.
  Status MergeAt(uint64_t tenant_id, uint64_t key);

  /// The tenant's ranges in key order (empty for unknown tenants).
  std::vector<OwnedRange> RangesOf(uint64_t tenant_id) const;
  /// Distinct owning servers, ascending (empty for unknown tenants).
  std::vector<uint64_t> ServersOf(uint64_t tenant_id) const;
  /// True when the tenant's ranges live on more than one server.
  bool IsSharded(uint64_t tenant_id) const;
  size_t RangeCount(uint64_t tenant_id) const;

  /// Structural invariant: the tenant's ranges are contiguous,
  /// non-overlapping, and cover [0, kNoUpperBound) exactly. Internal
  /// when violated (a routing table with a hole loses queries).
  Status ValidateCoverage(uint64_t tenant_id) const;

  /// Monotone counter bumped by every mutation (tests assert churn).
  uint64_t version() const { return version_; }

 private:
  struct Entry {
    uint64_t hi = kNoUpperBound;
    uint64_t server = 0;
  };
  struct Tenant {
    uint64_t home = 0;
    /// range lo -> entry; std::map iteration order is the key order,
    /// which keeps every listing deterministic.
    std::map<uint64_t, Entry> ranges;
  };

  /// nullptr for unknown tenants.
  const Tenant* Find(uint64_t tenant_id) const;
  Tenant* Find(uint64_t tenant_id);

  /// tenant -> table, in tenant-id order (TenantsOn lists in it).
  std::map<uint64_t, Tenant> tenants_;
  uint64_t version_ = 0;
};

}  // namespace slacker::range

#endif  // SLACKER_RANGE_RANGE_DIRECTORY_H_
