#ifndef SLACKER_RESOURCE_DISK_H_
#define SLACKER_RESOURCE_DISK_H_

#include <cstdint>
#include <string>

#include "src/common/ring_deque.h"
#include "src/common/stats.h"
#include "src/common/units.h"
#include "src/sim/simulator.h"

namespace slacker::resource {

/// Access pattern of a disk request. Random requests always pay a seek;
/// sequential requests pay one only when the head moved away (another
/// stream was served in between), which is how a migration's bulk read
/// degrades from standalone bandwidth when interleaved with OLTP I/O.
enum class IoKind { kRandomRead, kRandomWrite, kSequentialRead,
                    kSequentialWrite };

struct DiskOptions {
  /// Average positioning cost (seek + rotational) per discontiguous
  /// request. 2011-era 7.2k SATA: ~7-8 ms.
  SimTime seek_time = 0.0075;
  /// Media transfer bandwidth once positioned, bytes/sec.
  double transfer_bytes_per_sec = 90.0 * static_cast<double>(kMiB);
};

/// Single-spindle FIFO disk. One request is serviced at a time; others
/// queue. This shared queue is *the* contention point the paper's
/// migration slack is about: tenant page reads and the migration's
/// snapshot reads compete here.
class DiskModel {
 public:
  /// `name` appears in stats/debug output.
  DiskModel(sim::Simulator* sim, DiskOptions options, std::string name = "");

  DiskModel(const DiskModel&) = delete;
  DiskModel& operator=(const DiskModel&) = delete;

  /// Enqueues a request; `done` fires (via the simulator) when the
  /// request completes.
  void Submit(IoKind kind, uint64_t bytes, sim::Callback<void()> done,
              uint64_t stream_id = 0);

  /// Service time such a request would take in isolation (no queueing).
  SimTime ServiceTime(IoKind kind, uint64_t bytes, uint64_t stream_id) const;

  size_t QueueDepth() const { return queue_.size() + (busy_ ? 1 : 0); }

  /// Fraction of time the disk was busy since construction (or the last
  /// ResetStats).
  double Utilization() const;
  uint64_t total_requests() const { return total_requests_; }
  uint64_t bytes_read() const { return bytes_read_; }
  uint64_t bytes_written() const { return bytes_written_; }
  const RunningStats& wait_stats() const { return wait_stats_; }
  void ResetStats();

  const DiskOptions& options() const { return options_; }

 private:
  struct Request {
    IoKind kind = IoKind::kRandomRead;
    uint64_t bytes = 0;
    uint64_t stream_id = 0;
    SimTime submitted = 0.0;
    sim::Callback<void()> done;
  };

  void StartNext();
  static bool IsSequential(IoKind kind) {
    return kind == IoKind::kSequentialRead || kind == IoKind::kSequentialWrite;
  }
  static bool IsRead(IoKind kind) {
    return kind == IoKind::kRandomRead || kind == IoKind::kSequentialRead;
  }

  sim::Simulator* sim_;
  DiskOptions options_;
  std::string name_;
  RingDeque<Request> queue_;
  bool busy_ = false;
  /// Callback of the request in service (its event captures `this`).
  sim::Callback<void()> in_service_;
  // Stream id of the last serviced request; sequential requests from
  // the same stream skip the seek (head already positioned).
  uint64_t last_stream_ = UINT64_MAX;
  bool last_was_sequential_ = false;

  SimTime busy_time_ = 0.0;
  SimTime stats_epoch_ = 0.0;
  uint64_t total_requests_ = 0;
  uint64_t bytes_read_ = 0;
  uint64_t bytes_written_ = 0;
  RunningStats wait_stats_;
};

}  // namespace slacker::resource

#endif  // SLACKER_RESOURCE_DISK_H_
