#ifndef SLACKER_ENGINE_TENANT_CONFIG_H_
#define SLACKER_ENGINE_TENANT_CONFIG_H_

#include <cstdint>

#include "src/common/units.h"
#include "src/storage/tablespace.h"

namespace slacker::engine {

/// Static configuration of one tenant database (the my.cnf analog).
struct TenantConfig {
  uint64_t tenant_id = 0;

  /// Table geometry. Default: 1 GiB of 1 KiB rows in 16 KiB pages.
  storage::TablespaceLayout layout;

  /// Buffer pool size in bytes. The paper's evaluation pins this to
  /// 128 MB to force disk activity against the 1 GB tenant.
  uint64_t buffer_pool_bytes = 128 * kMiB;

  /// CPU time charged per query operation (parse/plan/execute of one
  /// basic SELECT/UPDATE against an indexed row).
  SimTime cpu_per_op = 0.0003;

  /// Commit path latency (binlog group-commit flush). Charged once per
  /// transaction; the binlog is assumed to live on the log device so it
  /// does not queue behind data-page I/O.
  SimTime commit_latency = 0.0005;

  /// Port is a fixed function of the tenant id (§2.2).
  int Port() const { return 34000 + static_cast<int>(tenant_id % 1000); }

  uint64_t BufferPoolPages() const {
    return buffer_pool_bytes / layout.page_bytes;
  }
};

}  // namespace slacker::engine

#endif  // SLACKER_ENGINE_TENANT_CONFIG_H_
