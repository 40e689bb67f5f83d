#include "core/knowledge.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace sa::core {

namespace {

/// Room the key tables take on a base's first key: 40 keys with names
/// averaging 20 bytes, and 8 sources. The most numerous agents, the svc
/// case study's cameras, hold 33-37 keys (~620 bytes of names) from 5
/// sources, so their tables are allocated once instead of doubling up
/// from one entry; a bigger base grows by doubling from there.
constexpr std::size_t kFirstKeys = 40;
constexpr std::size_t kFirstNameBytes = kFirstKeys * 20;
constexpr std::size_t kFirstSources = 8;

}  // namespace

std::size_t KnowledgeBase::block_size(std::size_t size) const noexcept {
  if (size == 0) return 0;
  return std::min(limit(), std::max(kFirstBlock, std::bit_ceil(size)));
}

std::vector<KnowledgeBase::KeyId>::const_iterator KnowledgeBase::lower_bound(
    std::string_view key) const noexcept {
  return std::lower_bound(
      sorted_.begin(), sorted_.end(), key,
      [this](KeyId a, std::string_view k) { return name(a) < k; });
}

KnowledgeBase::KeyId KnowledgeBase::find(std::string_view key) const noexcept {
  const auto pos = lower_bound(key);
  return pos != sorted_.end() && name(*pos) == key ? *pos : kNoKey;
}

void KnowledgeBase::reserve_tables() {
  if (entries_.capacity() != 0) return;
  names_.reserve(kFirstNameBytes);
  name_end_.reserve(kFirstKeys);
  entries_.reserve(kFirstKeys);
  sorted_.reserve(kFirstKeys);
}

KnowledgeBase::KeyId KnowledgeBase::add_key(
    std::vector<KeyId>::const_iterator pos) {
  const KeyId id = static_cast<KeyId>(entries_.size());
  name_end_.push_back(static_cast<std::uint32_t>(names_.size()));
  entries_.emplace_back();
  sorted_.insert(pos, id);
  return id;
}

KnowledgeBase::KeyId KnowledgeBase::key(std::string_view key) {
  reserve_tables();
  const auto pos = lower_bound(key);
  if (pos != sorted_.end() && name(*pos) == key) return *pos;
  names_.append(key);
  return add_key(pos);
}

KnowledgeBase::KeyId KnowledgeBase::key(KeyId& id, std::string_view prefix,
                                        std::string_view name,
                                        std::string_view suffix) {
  if (id != kNoKey) return id;
  reserve_tables();
  // Assemble the name where a new key's name goes, at the end of names_,
  // rather than in a temporary string; drop it again if the key exists.
  const std::size_t begin = names_.size();
  names_.append(prefix).append(name).append(suffix);
  const std::string_view full(names_.data() + begin, names_.size() - begin);
  const auto pos = lower_bound(full);
  if (pos != sorted_.end() && this->name(*pos) == full) {
    names_.resize(begin);
    return id = *pos;
  }
  return id = add_key(pos);
}

KnowledgeBase::SourceId KnowledgeBase::source_id(std::string_view source) {
  // A base sees a handful of producers (its processes, "sensor", a
  // "shared:<peer>" per exchange peer): a linear scan beats a hash here.
  if (source.empty()) return 0;
  const auto it = std::find(sources_.begin(), sources_.end(), source);
  if (it == sources_.end()) {
    if (sources_.empty()) sources_.reserve(kFirstSources);
    sources_.emplace_back(source);
    return static_cast<SourceId>(sources_.size());
  }
  return static_cast<SourceId>(it - sources_.begin()) + 1;
}

KnowledgeBase::TtlId KnowledgeBase::ttl_id(double ttl) {
  const auto bits = std::bit_cast<std::uint64_t>(ttl);
  if (bits == std::bit_cast<std::uint64_t>(
                  std::numeric_limits<double>::infinity())) {
    return 0;
  }
  const auto it =
      std::find_if(ttls_.begin(), ttls_.end(), [bits](double known) {
        return std::bit_cast<std::uint64_t>(known) == bits;
      });
  if (it != ttls_.end()) return static_cast<TtlId>(it - ttls_.begin()) + 1;
  if (ttls_.size() == std::numeric_limits<TtlId>::max()) {
    throw std::length_error("KnowledgeBase: too many distinct TTLs");
  }
  ttls_.push_back(ttl);
  return static_cast<TtlId>(ttls_.size());
}

void KnowledgeBase::put(KeyId id, KnowledgeItem item) {
  // Items that declared no shelf life inherit the default.
  const double ttl = std::isinf(item.ttl) ? default_ttl_ : item.ttl;
  store(id, Slot{item.value, item.time, item.confidence,
                 source_id(item.source), ttl_id(ttl), item.scope});
}

void KnowledgeBase::put_number(KeyId id, double value, double time,
                               double confidence, Scope scope,
                               SourceId source) {
  if (default_ttl_id_ == kNoTtl) default_ttl_id_ = ttl_id(default_ttl_);
  store(id, Slot{value, time, confidence, source,
                 static_cast<TtlId>(default_ttl_id_), scope});
}

void KnowledgeBase::store(KeyId id, const Slot& s) {
  if (history_limit_ == 0) return;
  History& h = entries_[id];
  const std::size_t full = limit();
  if (h.size == full) {
    h.slots[h.head] = s;
    if (++h.head == full) h.head = 0;
    return;
  }
  const std::size_t cap = block_size(h.size);
  if (h.size == cap) {  // first write, or the block is full: grow it
    const std::size_t grown = std::min(full, cap == 0 ? kFirstBlock : 2 * cap);
    std::unique_ptr<Slot[]> bigger(new Slot[grown]);
    std::copy_n(h.slots.get(), h.size, bigger.get());
    h.slots = std::move(bigger);
  }
  h.slots[h.size++] = s;
}

KnowledgeItem KnowledgeBase::item(const Slot& s) const {
  KnowledgeItem out;
  out.value = s.value;
  out.time = s.time;
  out.confidence = s.confidence;
  out.scope = s.scope;
  if (s.source != 0) out.source = sources_[s.source - 1];
  out.ttl = ttl(s);
  return out;
}

double KnowledgeBase::number(KeyId id, double fallback) const noexcept {
  if (id == kNoKey) return fallback;
  const Slot* s = latest_slot(id);
  return s != nullptr ? s->value : fallback;
}

std::optional<KnowledgeItem> KnowledgeBase::latest(std::string_view key) const {
  const KeyId id = find(key);
  if (id == kNoKey) return std::nullopt;
  const Slot* s = latest_slot(id);
  if (s == nullptr) return std::nullopt;
  return item(*s);
}

double KnowledgeBase::confidence(std::string_view key) const noexcept {
  const KeyId id = find(key);
  if (id == kNoKey) return 0.0;
  const Slot* s = latest_slot(id);
  return s != nullptr ? s->confidence : 0.0;
}

std::vector<KnowledgeItem> KnowledgeBase::history(std::string_view key) const {
  std::vector<KnowledgeItem> out;
  const KeyId id = find(key);
  if (id == kNoKey) return out;
  const History& h = entries_[id];
  out.reserve(h.size);
  for (std::size_t i = 0; i < h.size; ++i) out.push_back(item(at(h, i)));
  return out;
}

bool KnowledgeBase::fresh(std::string_view key, double now) const noexcept {
  const KeyId id = find(key);
  if (id == kNoKey) return false;
  const Slot* s = latest_slot(id);
  return s != nullptr && now - s->time <= ttl(*s);
}

std::vector<std::string> KnowledgeBase::keys() const {
  std::vector<std::string> out;
  out.reserve(sorted_.size());
  for (const KeyId id : sorted_) out.emplace_back(name(id));
  return out;
}

std::vector<std::pair<std::string, KnowledgeItem>>
KnowledgeBase::public_snapshot() const {
  std::vector<std::pair<std::string, KnowledgeItem>> out;
  for (const KeyId id : sorted_) {
    const Slot* s = latest_slot(id);
    if (s != nullptr && s->scope == Scope::Public) {
      out.emplace_back(name(id), item(*s));
    }
  }
  return out;
}

}  // namespace sa::core
