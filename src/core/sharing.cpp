#include "core/sharing.hpp"

namespace sa::core {

std::size_t KnowledgeExchange::import(const KnowledgeBase& from,
                                      const std::string& peer_id,
                                      KnowledgeBase& into) {
  std::size_t imported = 0;
  for (const auto& [key, item] : from.public_snapshot()) {
    const std::string local = shared_key(peer_id, key);
    if (const auto existing = into.latest(into.find(local))) {
      if (existing->time >= item.time) continue;  // ours is fresher
    }
    // No transitive gossip: an imported item is Private.
    into.put_number(into.key(local), item.value, item.time,
                    item.confidence * kConfidenceDecay, Scope::Private,
                    into.source_id("shared:" + peer_id));
    ++imported;
  }
  return imported;
}

}  // namespace sa::core
