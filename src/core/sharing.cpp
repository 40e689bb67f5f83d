#include "core/sharing.hpp"

namespace sa::core {

std::size_t KnowledgeExchange::import(const KnowledgeBase& from,
                                      const std::string& peer_id,
                                      KnowledgeBase& into) {
  std::size_t imported = 0;
  for (const auto& [key, item] : from.public_snapshot()) {
    const std::string local = shared_key(peer_id, key);
    if (const auto existing = into.latest(local)) {
      if (existing->time >= item.time) continue;  // ours is fresher
    }
    KnowledgeItem copy = item;
    copy.confidence *= kConfidenceDecay;
    copy.scope = Scope::Private;  // no transitive gossip
    copy.source = "shared:" + peer_id;
    into.put(local, std::move(copy));
    ++imported;
  }
  return imported;
}

}  // namespace sa::core
