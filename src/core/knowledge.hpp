// The knowledge base — the agent's self-model substrate.
//
// Everything an agent knows about itself and its world is a KnowledgeItem:
// a typed value with a timestamp, a confidence, a provenance tag, and a
// scope. Scope realises the paper's first framework concept (Section IV):
// *private* self-awareness covers knowledge of internal phenomena, while
// *public* self-awareness covers knowledge derived from / observable by the
// outside world. Only Public items are shared with peers by the collective
// layer.
//
// Data layout: keys are interned once into stable ids (the
// sim::TelemetryBus interned-id idiom); per-key state lives in an
// id-indexed arena of sim::Ring histories. The string-keyed API is a
// thin resolving shim — every lookup is one hash probe on a
// std::string_view (no temporary std::string, no tree walk), and reads on
// the hot path (number(), confidence(), fresh(), contains()) perform zero
// heap allocations. A sorted key index keeps keys()/stale_keys()/
// public_snapshot() deterministic (ascending key order), matching the old
// std::map iteration order byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/value.hpp"
#include "sim/ring.hpp"

namespace sa::core {

/// Visibility class of a knowledge item (paper, Section IV, concept 1).
enum class Scope {
  Private,  ///< internal phenomena; never shared outside the agent
  Public,   ///< externally observable / shareable knowledge
};

/// One piece of knowledge.
struct KnowledgeItem {
  Value value;
  double time = 0.0;        ///< when the knowledge was produced
  double confidence = 1.0;  ///< producer's self-assessed confidence in [0,1]
  Scope scope = Scope::Private;
  std::string source;       ///< producing process/sensor (provenance)
  /// Sim-time shelf life: the item counts as stale once now - time > ttl.
  /// Infinity (default) never expires. Stale items are still readable —
  /// staleness is a *signal* (see fresh()/stale_keys() and
  /// core::DegradationPolicy), not an eviction.
  double ttl = std::numeric_limits<double>::infinity();
};

/// Keyed, history-preserving store of knowledge items.
///
/// Keys are hierarchical strings by convention ("forecast.load.mae",
/// "peer.cam3.reliability"). Each key retains a bounded history so
/// time-awareness processes can inspect the past.
class KnowledgeBase {
 public:
  using Listener =
      std::function<void(const std::string& key, const KnowledgeItem&)>;

  /// `history_limit` — max items retained per key (oldest evicted first).
  explicit KnowledgeBase(std::size_t history_limit = 128)
      : history_limit_(history_limit) {}

  /// Stores a new item under `key`; notifies listeners.
  void put(std::string_view key, KnowledgeItem item);
  /// Convenience: store a numeric fact.
  void put_number(std::string_view key, double value, double time,
                  double confidence = 1.0, Scope scope = Scope::Private,
                  std::string source = {});

  /// Most recent item for `key`, if any.
  [[nodiscard]] std::optional<KnowledgeItem> latest(std::string_view key) const;
  /// Numeric view of the latest item (or `fallback` if absent/non-numeric).
  [[nodiscard]] double number(std::string_view key,
                              double fallback = 0.0) const;
  /// Confidence of the latest item (0 if absent).
  [[nodiscard]] double confidence(std::string_view key) const;
  /// Full retained history for `key` (empty if unknown), oldest first.
  /// The reference is valid until the next put() or clear().
  [[nodiscard]] const sim::Ring<KnowledgeItem>& history(
      std::string_view key) const;
  /// True if `key` has ever been written.
  [[nodiscard]] bool contains(std::string_view key) const;
  /// True when `key` has an item still within its TTL at sim time `now`.
  /// Unknown keys are not fresh. The stale-knowledge detector of the
  /// degradation machinery is built on this.
  [[nodiscard]] bool fresh(std::string_view key, double now) const;
  /// Keys under `prefix` (all keys if empty) whose latest item has
  /// outlived its TTL at `now`, sorted.
  [[nodiscard]] std::vector<std::string> stale_keys(std::string_view prefix,
                                                    double now) const;
  /// Default TTL stamped onto items put() without an explicit finite TTL
  /// (infinity = never expire). Existing items keep the TTL they carry.
  void set_default_ttl(double ttl) noexcept { default_ttl_ = ttl; }
  [[nodiscard]] double default_ttl() const noexcept { return default_ttl_; }
  /// All keys, sorted (deterministic iteration).
  [[nodiscard]] std::vector<std::string> keys() const;
  /// Keys beginning with `prefix`, sorted.
  [[nodiscard]] std::vector<std::string> keys_with_prefix(
      std::string_view prefix) const;
  /// Number of distinct keys.
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Snapshot of the latest Public item per key — the shareable self.
  [[nodiscard]] std::vector<std::pair<std::string, KnowledgeItem>>
  public_snapshot() const;

  /// Registers a listener fired on every put(). Returns a handle usable
  /// with unsubscribe().
  std::size_t subscribe(Listener l);
  void unsubscribe(std::size_t handle);

  /// Drops all knowledge (scenario teardown). Listeners stay subscribed.
  void clear();

  [[nodiscard]] std::size_t history_limit() const noexcept {
    return history_limit_;
  }

 private:
  using KeyId = std::uint32_t;
  static constexpr KeyId kNoKey = 0xffffffffu;

  [[nodiscard]] KeyId find(std::string_view key) const noexcept {
    const auto it = index_.find(key);
    return it == index_.end() ? kNoKey : it->second;
  }
  KeyId intern(std::string_view key);
  [[nodiscard]] const KnowledgeItem* latest_item(KeyId id) const noexcept {
    const sim::Ring<KnowledgeItem>& h = entries_[id];
    return h.empty() ? nullptr : &h.back();
  }

  std::size_t history_limit_;
  double default_ttl_ = std::numeric_limits<double>::infinity();
  /// Interned key names. A deque gives stable addresses, so index_'s
  /// string_view keys can point straight into it.
  std::deque<std::string> key_names_;
  std::unordered_map<std::string_view, KeyId> index_;
  /// id-indexed histories: each ring grows to history_limit_, then
  /// overwrites its oldest slot in place — no per-put allocation once warm.
  std::vector<sim::Ring<KnowledgeItem>> entries_;
  std::vector<KeyId> sorted_;           ///< ids in ascending key order
  std::vector<std::pair<std::size_t, Listener>> listeners_;
  std::size_t next_handle_ = 0;
};

}  // namespace sa::core
