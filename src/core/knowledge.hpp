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
// Data layout: keys are interned once into stable KeyIds (the
// sim::TelemetryBus interned-id idiom): names sit back to back in one
// string, and a name-sorted id vector is both the lookup index (binary
// search) and the iteration order. Each key's history is a sim::Ring
// of 40-byte POD slots. A slot holds the scalar value inline (bool, int64
// or double bits plus the Value alternative as a kind tag), time,
// confidence, TTL, scope, and its provenance as an index into a small
// per-base table of interned source names. A string or vector value —
// written only through the public API, never by the awareness processes —
// lives in a side store the slot indexes; overwriting the slot reclaims it.
// A ring starts at a 4-slot block, doubles up to history_limit, then
// overwrites its oldest slot in place, so a warm write never allocates.
//
// KnowledgeItem is the exchange type only: it is built on reads (latest(),
// history(), public_snapshot()), never stored. The hot path writes by id:
// an awareness process resolves each key it derives once, on first write,
// caches the KeyId under the base's incarnation() (unique per object and
// renewed by copy and move), and re-resolves when that changes. The
// string-keyed calls are one-line forwarders onto the id path. Reads by
// string are a binary search on a std::string_view and never allocate.
// keys()/public_snapshot() and the checkpoint writer iterate in ascending
// key order. Copies are self-contained (no view points into another base)
// and start a new incarnation.
//
// A camera agent of the svc case study holds 33 keys; after its 4 metro
// epochs its base is ~10 KB (33 rings of 4 slots, the id tables, the name
// string), down from ~35 KB with 104-byte items in rings reserved to 8.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/value.hpp"
#include "sim/ring.hpp"

namespace sa::core {

/// Visibility class of a knowledge item (paper, Section IV, concept 1).
enum class Scope : std::uint8_t {
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
  /// staleness is a *signal* (see fresh() and
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
  /// Interned key; valid for the incarnation() it was resolved in.
  using KeyId = std::uint32_t;
  /// Interned provenance tag; valid like a KeyId.
  using SourceId = std::uint32_t;
  static constexpr KeyId kNoKey = 0xffffffffu;

  /// `history_limit` — max items retained per key (oldest evicted first).
  explicit KnowledgeBase(std::size_t history_limit = 128)
      : history_limit_(history_limit) {}

  // -- id path ---------------------------------------------------------------

  /// Id of `key`, interning it (as an empty history) if new.
  KeyId key(std::string_view key);
  /// Cached resolution for writers: returns `id` if resolved, else interns
  /// prefix + name + suffix and stores the id there.
  KeyId key(KeyId& id, std::string_view prefix, std::string_view name = {},
            std::string_view suffix = {});
  /// Id of `key` if it exists, else kNoKey. Never interns.
  [[nodiscard]] KeyId find(std::string_view key) const noexcept;
  /// Id of the provenance tag `source`, interning it if new.
  SourceId source_id(std::string_view source);
  /// Identity of this base's id tables: unique per object, renewed by
  /// copy and move. Ids cached under another value are invalid.
  [[nodiscard]] std::uint64_t incarnation() const noexcept {
    return incarnation_.value;
  }

  /// Stores a new item under `id`.
  void put(KeyId id, KnowledgeItem item);
  /// Stores a numeric fact under `id` (TTL: the base's default).
  void put_number(KeyId id, double value, double time, double confidence,
                  Scope scope, SourceId source);
  /// Numeric view of the latest item under `id` (`fallback` if kNoKey,
  /// empty or non-numeric).
  [[nodiscard]] double number(KeyId id, double fallback = 0.0) const noexcept;

  // -- string-keyed forwarders -----------------------------------------------

  void put(std::string_view k, KnowledgeItem item) {
    put(key(k), std::move(item));
  }
  /// Convenience: store a numeric fact.
  void put_number(std::string_view k, double value, double time,
                  double confidence = 1.0, Scope scope = Scope::Private,
                  std::string_view source = {}) {
    put_number(key(k), value, time, confidence, scope, source_id(source));
  }
  /// Numeric view of the latest item (or `fallback` if absent/non-numeric).
  [[nodiscard]] double number(std::string_view k,
                              double fallback = 0.0) const noexcept {
    return number(find(k), fallback);
  }

  // -- reads -----------------------------------------------------------------

  /// Most recent item for `key`, if any.
  [[nodiscard]] std::optional<KnowledgeItem> latest(std::string_view key) const;
  /// Confidence of the latest item (0 if absent).
  [[nodiscard]] double confidence(std::string_view key) const noexcept;
  /// Full retained history for `key` (empty if unknown), oldest first.
  [[nodiscard]] std::vector<KnowledgeItem> history(std::string_view key) const;
  /// True if `key` has ever been written.
  [[nodiscard]] bool contains(std::string_view key) const noexcept {
    return find(key) != kNoKey;
  }
  /// True when `key` has an item still within its TTL at sim time `now`.
  /// Unknown keys are not fresh. The stale-knowledge detector of the
  /// degradation machinery is built on this.
  [[nodiscard]] bool fresh(std::string_view key, double now) const noexcept;
  /// Default TTL stamped onto items put() without an explicit finite TTL
  /// (infinity = never expire). Existing items keep the TTL they carry.
  void set_default_ttl(double ttl) noexcept { default_ttl_ = ttl; }
  [[nodiscard]] double default_ttl() const noexcept { return default_ttl_; }
  /// All keys, sorted (deterministic iteration).
  [[nodiscard]] std::vector<std::string> keys() const;
  /// Number of distinct keys.
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Snapshot of the latest Public item per key — the shareable self.
  [[nodiscard]] std::vector<std::pair<std::string, KnowledgeItem>>
  public_snapshot() const;

  [[nodiscard]] std::size_t history_limit() const noexcept {
    return history_limit_;
  }

 private:
  /// One retained item: 40 bytes, trivially copyable.
  struct Slot {
    std::uint64_t bits;  ///< bool/int64/double bits, or a side-store index
    double time;
    double confidence;
    double ttl;
    SourceId source;
    std::uint8_t kind;   ///< Value::index() of the stored value
    Scope scope;
  };
  static_assert(sizeof(Slot) <= 40);

  /// A process-unique number, renewed whenever the base's id tables stop
  /// being the ones ids were resolved against: on copy (the copy interns
  /// independently from then on) and on move (both sides).
  struct Incarnation {
    static std::uint64_t next() noexcept;
    Incarnation() noexcept : value(next()) {}
    Incarnation(const Incarnation&) noexcept : value(next()) {}
    Incarnation(Incarnation&& other) noexcept : value(next()) {
      other.value = next();
    }
    Incarnation& operator=(const Incarnation&) noexcept {
      value = next();
      return *this;
    }
    Incarnation& operator=(Incarnation&& other) noexcept {
      value = next();
      other.value = next();
      return *this;
    }
    std::uint64_t value;
  };

  void store(KeyId id, Slot s, Value* boxed);
  /// First position in sorted_ whose name is not less than `key`.
  [[nodiscard]] std::vector<KeyId>::const_iterator lower_bound(
      std::string_view key) const noexcept;
  [[nodiscard]] std::string_view name(KeyId id) const noexcept {
    const std::uint32_t begin = id == 0 ? 0 : name_end_[id - 1];
    return std::string_view(names_).substr(begin, name_end_[id] - begin);
  }
  [[nodiscard]] const Slot* latest_slot(KeyId id) const noexcept {
    const sim::Ring<Slot>& h = entries_[id];
    return h.empty() ? nullptr : &h.back();
  }
  [[nodiscard]] KnowledgeItem item(const Slot& s) const;

  std::size_t history_limit_;
  double default_ttl_ = std::numeric_limits<double>::infinity();
  Incarnation incarnation_;
  /// Key names, back to back in id order; key `id` ends at name_end_[id].
  std::string names_;
  std::vector<std::uint32_t> name_end_;
  /// id-indexed histories: each ring grows to history_limit_, then
  /// overwrites its oldest slot in place — no per-put allocation once warm.
  std::vector<sim::Ring<Slot>> entries_;
  /// Ids in ascending key order: iteration order and the lookup index.
  std::vector<KeyId> sorted_;
  /// Source names; SourceId 0 is "" and id i > 0 is sources_[i - 1].
  std::vector<std::string> sources_;
  /// Non-scalar values of retained slots; freed indices are reused.
  std::vector<Value> boxed_;
  std::vector<std::uint32_t> boxed_free_;
};

/// A writer's cached ids for one KnowledgeBase. Awareness processes receive
/// their base as an update() parameter, so each update starts with
/// bind(kb, name): while it returns true every cached KeyId is valid; when
/// it returns false the base is another object (or a copy or move), and the
/// writer must reset its cached ids to kNoKey before using them.
class KnowledgeIds {
 public:
  bool bind(KnowledgeBase& kb, std::string_view source) {
    if (kb.incarnation() == incarnation_) return true;
    incarnation_ = kb.incarnation();
    source_ = kb.source_id(source);
    return false;
  }
  /// The writer's provenance tag in the bound base.
  [[nodiscard]] KnowledgeBase::SourceId source() const noexcept {
    return source_;
  }

 private:
  std::uint64_t incarnation_ = 0;  ///< 0: never bound
  KnowledgeBase::SourceId source_ = 0;
};

}  // namespace sa::core
