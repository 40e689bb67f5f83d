// The knowledge base — the agent's self-model substrate.
//
// Everything an agent knows about itself and its world is a KnowledgeItem:
// a numeric value with a timestamp, a confidence, a provenance tag, and a
// scope. Scope realises the paper's first framework concept (Section IV):
// *private* self-awareness covers knowledge of internal phenomena, while
// *public* self-awareness covers knowledge derived from / observable by the
// outside world. Only Public items are shared with peers by the collective
// layer.
//
// Data layout: keys are interned once into stable KeyIds (the
// sim::TelemetryBus interned-id idiom): names sit back to back in one
// string, and a name-sorted id vector is both the lookup index (binary
// search) and the iteration order. Each key's history costs a 16-byte
// header (a pointer and two 32-bit counters) plus its block of 32-byte POD
// slots. A slot holds the value, time, confidence and scope, and its
// provenance as an index into a small per-base table of interned source
// names. A block is made on the key's first write at 4 slots,
// doubles up to history_limit, then each write overwrites the oldest slot
// in place, so a warm write never allocates.
//
// KnowledgeItem is the exchange type only: it is built on reads (latest(),
// history(), public_snapshot()), never stored. Every read and write is by
// KeyId; a string enters a base only through key(), which interns a key a
// writer is about to write, find(), which resolves a key for a read and
// never interns (a binary search on a std::string_view that never
// allocates), and source_id(). An awareness process holds the base it
// writes to from construction on, resolves each key it derives once, on
// first write, and keeps the KeyId. A base has one owner and is never
// assigned, so a resolved id stays valid for the writer's lifetime.
// ids()/public_snapshot() and the checkpoint writer iterate in ascending
// key order. Copies are self-contained (no view points into another base).
//
// A camera agent of the svc case study holds 33 keys; after its 4 metro
// epochs its base is ~6.8 KB: 33 blocks of 4 slots (~4.8 KB with their
// malloc headers), and the key tables, reserved for 40 keys on the first
// one, with the name string. It was ~10 KB with 40-byte slots behind a
// 40-byte sim::Ring per key, and ~35 KB with 104-byte items in rings
// reserved to 8.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sa::core {

/// Visibility class of a knowledge item (paper, Section IV, concept 1).
enum class Scope : std::uint8_t {
  Private,  ///< internal phenomena; never shared outside the agent
  Public,   ///< externally observable / shareable knowledge
};

/// One piece of knowledge.
struct KnowledgeItem {
  double value = 0.0;
  double time = 0.0;        ///< when the knowledge was produced
  double confidence = 1.0;  ///< producer's self-assessed confidence in [0,1]
  Scope scope = Scope::Private;
  std::string source;       ///< producing process/sensor (provenance)
};

/// Keyed, history-preserving store of knowledge items.
///
/// Keys are hierarchical strings by convention ("forecast.load.mae",
/// "peer.cam3.reliability"). Each key retains a bounded history so
/// time-awareness processes can inspect the past.
class KnowledgeBase {
 public:
  /// Interned key; valid for the base's lifetime.
  using KeyId = std::uint32_t;
  /// Interned provenance tag; valid like a KeyId.
  using SourceId = std::uint32_t;
  static constexpr KeyId kNoKey = 0xffffffffu;

  /// `history_limit` — max items retained per key (oldest evicted first).
  explicit KnowledgeBase(std::size_t history_limit = 128)
      : history_limit_(history_limit) {}
  KnowledgeBase(const KnowledgeBase&) = default;
  KnowledgeBase(KnowledgeBase&&) = default;
  /// Writers keep ids resolved against this base: replacing its contents
  /// under them is not an operation a base offers.
  KnowledgeBase& operator=(const KnowledgeBase&) = delete;
  KnowledgeBase& operator=(KnowledgeBase&&) = delete;

  // -- resolution and the write ---------------------------------------------

  /// Id of `key`, interning it (as an empty history) if new.
  KeyId key(std::string_view key);
  /// Cached resolution for writers: returns `id` if resolved, else interns
  /// prefix + name + suffix and stores the id there. The parts must not
  /// view this base's own storage.
  KeyId key(KeyId& id, std::string_view prefix, std::string_view name = {},
            std::string_view suffix = {});
  /// Id of `key` if it exists, else kNoKey. Never interns.
  [[nodiscard]] KeyId find(std::string_view key) const noexcept;
  /// Id of the provenance tag `source`, interning it if new.
  SourceId source_id(std::string_view source);

  /// Stores a numeric fact under `id`: the base's one write.
  void put_number(KeyId id, double value, double time,
                  double confidence = 1.0, Scope scope = Scope::Private,
                  SourceId source = 0);

  // -- reads (kNoKey reads as an absent key) ---------------------------------

  /// Value of the latest item under `id` (`fallback` if kNoKey or empty).
  [[nodiscard]] double number(KeyId id, double fallback = 0.0) const noexcept;
  /// Most recent item under `id`, if any.
  [[nodiscard]] std::optional<KnowledgeItem> latest(KeyId id) const;
  /// Confidence of the latest item under `id` (0 if absent).
  [[nodiscard]] double confidence(KeyId id) const noexcept;
  /// Full retained history under `id` (empty if absent), oldest first.
  [[nodiscard]] std::vector<KnowledgeItem> history(KeyId id) const;
  /// Name of the interned key `id` (requires id < size()); valid until
  /// the next key is interned.
  [[nodiscard]] std::string_view name(KeyId id) const noexcept {
    const std::uint32_t begin = id == 0 ? 0 : name_end_[id - 1];
    return std::string_view(names_).substr(begin, name_end_[id] - begin);
  }
  /// Every key's id, in ascending name order (deterministic iteration);
  /// valid until the next key is interned.
  [[nodiscard]] std::span<const KeyId> ids() const noexcept {
    return sorted_;
  }
  /// Number of distinct keys.
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Snapshot of the latest Public item per key — the shareable self.
  [[nodiscard]] std::vector<std::pair<std::string, KnowledgeItem>>
  public_snapshot() const;

  [[nodiscard]] std::size_t history_limit() const noexcept {
    return history_limit_;
  }

 private:
  /// One retained item: 32 bytes, trivially copyable.
  struct Slot {
    double value;
    double time;
    double confidence;
    SourceId source;
    Scope scope;
  };
  static_assert(sizeof(Slot) == 32);

  /// Slots of a history's first block; later growth doubles.
  static constexpr std::size_t kFirstBlock = 4;

  /// One key's retained slots. The block holds block_size(size) slots;
  /// below the limit the items are slots[0, size) oldest first, and once
  /// full `head` is the oldest slot, the next one overwritten.
  struct History {
    std::unique_ptr<Slot[]> slots;
    std::uint32_t size = 0;
    std::uint32_t head = 0;

    History() = default;
    History(History&&) = default;
    History& operator=(History&&) = default;
    /// Copies into a block of max(kFirstBlock, bit_ceil(size)) slots,
    /// never fewer than block_size(size): every item, in place.
    History(const History& other) : size(other.size), head(other.head) {
      if (size == 0) return;
      const std::size_t block =
          std::max(kFirstBlock, std::bit_ceil(std::size_t{size}));
      slots.reset(new Slot[block]);
      std::copy_n(other.slots.get(), size, slots.get());
    }
  };
  static_assert(sizeof(History) == 16);

  /// Items a history retains: history_limit_, within a History's counters.
  [[nodiscard]] std::size_t limit() const noexcept {
    return std::min<std::size_t>(history_limit_, 0xffffffffu);
  }
  /// Slots in the block of a history holding `size` items (none at 0).
  [[nodiscard]] std::size_t block_size(std::size_t size) const noexcept;
  /// The i-th oldest item of `h`; requires i < h.size.
  [[nodiscard]] static const Slot& at(const History& h,
                                      std::size_t i) noexcept {
    std::size_t j = h.head + i;
    if (j >= h.size) j -= h.size;
    return h.slots[j];
  }

  void store(KeyId id, const Slot& s);
  /// Gives the key tables their first room (once, on the first key).
  void reserve_tables();
  /// Adds the key whose name ends names_ at sorted position `pos`.
  KeyId add_key(std::vector<KeyId>::const_iterator pos);
  /// First position in sorted_ whose name is not less than `key`.
  [[nodiscard]] std::vector<KeyId>::const_iterator lower_bound(
      std::string_view key) const noexcept;
  /// The latest slot under `id`; null if kNoKey or empty.
  [[nodiscard]] const Slot* latest_slot(KeyId id) const noexcept {
    if (id == kNoKey) return nullptr;
    const History& h = entries_[id];
    return h.size == 0 ? nullptr : &at(h, h.size - 1);
  }
  [[nodiscard]] KnowledgeItem item(const Slot& s) const;

  std::size_t history_limit_;
  /// Key names, back to back in id order; key `id` ends at name_end_[id].
  std::string names_;
  std::vector<std::uint32_t> name_end_;
  /// id-indexed histories: each grows to history_limit_, then overwrites
  /// its oldest slot in place — no per-put allocation once warm.
  std::vector<History> entries_;
  /// Ids in ascending key order: iteration order and the lookup index.
  std::vector<KeyId> sorted_;
  /// Source names; SourceId 0 is "" and id i > 0 is sources_[i - 1].
  std::vector<std::string> sources_;
};

}  // namespace sa::core
