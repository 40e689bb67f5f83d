// Knowledge exchange: sharing the public self with peers.
//
// The framework's public/private distinction (Section IV, concept 1) is
// what makes sharing well-defined: only Public knowledge — the externally
// observable self — crosses agent boundaries. KnowledgeExchange imports a
// peer's public snapshot under "shared.<peer>.<key>", discounting
// confidence by kConfidenceDecay (second-hand knowledge is weaker
// evidence) and never overwriting fresher local copies. Imported items are
// stored Private, so knowledge does not gossip transitively by accident —
// an agent shares what it knows of itself, not rumours.
#pragma once

#include <cstddef>
#include <string>

#include "core/knowledge.hpp"

namespace sa::core {

class KnowledgeExchange {
 public:
  /// Factor applied to an imported item's confidence.
  static constexpr double kConfidenceDecay = 0.8;

  /// Imports `from`'s public snapshot into `into` as
  /// "shared.<peer_id>.<key>". Items older than what `into` already holds
  /// under that key are skipped. Returns the number of items imported.
  static std::size_t import(const KnowledgeBase& from,
                            const std::string& peer_id, KnowledgeBase& into);

  /// Key under which `key` from `peer_id` lands locally.
  [[nodiscard]] static std::string shared_key(const std::string& peer_id,
                                              const std::string& key) {
    return "shared." + peer_id + "." + key;
  }
};

}  // namespace sa::core
