#include "storage/database.h"

namespace orthrus::storage {

Table* Database::CreateTable(std::uint32_t id, std::string name,
                             std::uint64_t capacity, std::uint32_t row_bytes) {
  ORTHRUS_CHECK_MSG(id == tables_.size(), "table ids must be dense");
  // lint:allow-alloc schema setup, before any worker runs
  tables_.push_back(std::make_unique<Table>(id, std::move(name), capacity,
                                            row_bytes));
  return tables_.back().get();
}

}  // namespace orthrus::storage
