// Test helper shared by every suite that reads a FlowEventStore: a scan()
// drained into a vector, for tests that compare whole result sets.
#pragma once

#include <vector>

#include "store/store.h"

namespace netseer::store {

/// Every row `query` matches, copied out in cursor order.
inline std::vector<backend::StoredEvent> scan_rows(const FlowEventStore& store,
                                                   const backend::EventQuery& query = {}) {
  std::vector<backend::StoredEvent> rows;
  for (const auto& stored : store.scan(query)) rows.push_back(stored);
  return rows;
}

}  // namespace netseer::store
