// A knowledge base's key names in ascending order, for tests that compare
// a base's keys with an expected list.
#pragma once

#include <string>
#include <vector>

#include "core/knowledge.hpp"

namespace sa::test::support {

inline std::vector<std::string> key_names(const core::KnowledgeBase& kb) {
  std::vector<std::string> out;
  for (const core::KnowledgeBase::KeyId id : kb.ids()) {
    out.emplace_back(kb.name(id));
  }
  return out;
}

}  // namespace sa::test::support
