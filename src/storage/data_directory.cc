#include "src/storage/data_directory.h"

namespace slacker::storage {

DataDirectory DataDirectory::ForTenant(uint64_t tenant_id, uint64_t data_bytes,
                                       uint64_t log_bytes) {
  DataDirectory dir("/var/lib/slacker/tenant_" + std::to_string(tenant_id));
  dir.AddFile("ibdata1", data_bytes);
  dir.AddFile("binlog.000001", log_bytes);
  dir.AddFile("my.cnf", 4096);
  return dir;
}

void DataDirectory::AddFile(const std::string& name, uint64_t bytes) {
  files_.push_back(DataFile{name, bytes});
}

uint64_t DataDirectory::TotalBytes() const {
  uint64_t total = 0;
  for (const DataFile& f : files_) total += f.bytes;
  return total;
}

}  // namespace slacker::storage
