#ifndef SLACKER_STORAGE_TABLESPACE_H_
#define SLACKER_STORAGE_TABLESPACE_H_

#include <cstdint>

#include "src/common/units.h"

namespace slacker::storage {

/// Physical layout of one tenant's clustered table: a dense key space
/// packed into fixed-size pages. Maps keys to page ids (for buffer-pool
/// accounting) and exposes the logical sizes that drive I/O and
/// migration costs.
struct TablespaceLayout {
  /// Page size; InnoDB default.
  uint64_t page_bytes = 16 * kKiB;
  /// Logical bytes per row (YCSB default: 10 fields x 100 B ≈ 1 KiB).
  uint64_t record_bytes = kKiB;
  /// Number of rows the tenant was pre-populated with.
  uint64_t record_count = kGiB / kKiB;  // 1 GiB tenant by default.

  uint64_t RecordsPerPage() const { return page_bytes / record_bytes; }

  /// Page holding `key` (a tenant's keys are dense [0, record_count),
  /// fixed at load).
  uint64_t PageOf(uint64_t key) const { return key / RecordsPerPage(); }

  /// Pages needed for `records` rows.
  uint64_t PagesFor(uint64_t records) const {
    const uint64_t per_page = RecordsPerPage();
    return (records + per_page - 1) / per_page;
  }

  uint64_t TotalPages() const { return PagesFor(record_count); }

  /// Logical on-disk footprint of the table data.
  uint64_t DataBytes() const { return TotalPages() * page_bytes; }
};

}  // namespace slacker::storage

#endif  // SLACKER_STORAGE_TABLESPACE_H_
