#ifndef PERFBENCH_HOST_PROBE_H_
#define PERFBENCH_HOST_PROBE_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// Times a fixed loop of random read-modify-writes over an 8 MiB table:
/// a probe of how fast the host serves cache-missing memory traffic at
/// the moment. On a shared host, neighbours that contend for the cache
/// and memory bus slow the memory-bound fleet workloads by up to a
/// third for minutes at a time; this probe slows with them, so the
/// benchmark can scale their simulation speed back to a quiet host.
class MemoryProbe {
 public:
  /// Random accesses per block; one block takes about half a
  /// millisecond on a quiet host.
  static constexpr int kAccessesPerBlock = 50000;
  /// The probe's cost per access on a quiet 4-vCPU Xeon VM.
  static constexpr double kQuietNsPerAccess = 10.0;

  MemoryProbe();

  /// Runs and times one block of kAccessesPerBlock accesses.
  void RunBlock();

  /// Mean wall nanoseconds per access over every block run so far.
  double ns_per_access() const;
  /// How much slower the host served the probe than a quiet host
  /// (1.0 before any block ran).
  double slowdown() const;

 private:
  std::vector<uint64_t> table_;
  uint64_t state_ = 0x9E3779B97F4A7C15ull;
  uint64_t sink_ = 0;
  double seconds_ = 0.0;
  int blocks_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_PROBE_H_
