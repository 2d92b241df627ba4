#ifndef SLACKER_STORAGE_DATA_DIRECTORY_H_
#define SLACKER_STORAGE_DATA_DIRECTORY_H_

#include <cstdint>
#include <string>
#include <vector>

namespace slacker::storage {

/// One file in a tenant's data directory.
struct DataFile {
  std::string name;
  uint64_t bytes = 0;
};

/// The "tenant is just a directory" abstraction from §2.2: everything a
/// MySQL instance owns — tablespace, logs, config — as an enumerable
/// file set. Stop-and-copy migrates exactly this inventory; the hot
/// backup streams the tablespace part and ships log deltas separately.
class DataDirectory {
 public:
  /// Builds the standard inventory for a tenant with `data_bytes` of
  /// table data and `log_bytes` of binlog.
  static DataDirectory ForTenant(uint64_t tenant_id, uint64_t data_bytes,
                                 uint64_t log_bytes);

  void AddFile(const std::string& name, uint64_t bytes);

  const std::vector<DataFile>& files() const { return files_; }
  uint64_t TotalBytes() const;
  std::string path() const { return path_; }

 private:
  explicit DataDirectory(std::string path) : path_(std::move(path)) {}

  std::string path_;
  std::vector<DataFile> files_;
};

}  // namespace slacker::storage

#endif  // SLACKER_STORAGE_DATA_DIRECTORY_H_
