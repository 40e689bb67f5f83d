#include "core/knowledge.hpp"

#include <algorithm>
#include <cmath>

namespace sa::core {

namespace {

/// Slots a ring reserves when its key is interned; later growth doubles.
constexpr std::size_t kFirstBlock = 4;

}  // namespace

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

KnowledgeBase::KeyId KnowledgeBase::key(std::string_view key) {
  const auto pos = lower_bound(key);
  if (pos != sorted_.end() && name(*pos) == key) return *pos;
  const KeyId id = static_cast<KeyId>(entries_.size());
  names_.append(key);
  name_end_.push_back(static_cast<std::uint32_t>(names_.size()));
  entries_.emplace_back(history_limit_);
  entries_.back().reserve(std::min(history_limit_, kFirstBlock));
  sorted_.insert(pos, id);
  return id;
}

KnowledgeBase::KeyId KnowledgeBase::key(KeyId& id, std::string_view prefix,
                                        std::string_view name,
                                        std::string_view suffix) {
  if (id != kNoKey) return id;
  std::string full;
  full.reserve(prefix.size() + name.size() + suffix.size());
  full.append(prefix).append(name).append(suffix);
  return id = key(full);
}

KnowledgeBase::SourceId KnowledgeBase::source_id(std::string_view source) {
  // A base sees a handful of producers (its processes, "sensor", a
  // "shared:<peer>" per exchange peer): a linear scan beats a hash here.
  if (source.empty()) return 0;
  const auto it = std::find(sources_.begin(), sources_.end(), source);
  if (it == sources_.end()) {
    sources_.emplace_back(source);
    return static_cast<SourceId>(sources_.size());
  }
  return static_cast<SourceId>(it - sources_.begin()) + 1;
}

void KnowledgeBase::put(KeyId id, KnowledgeItem item) {
  store(id, Slot{item.value, item.time, item.confidence,
                 // Items that declared no shelf life inherit the default.
                 std::isinf(item.ttl) ? default_ttl_ : item.ttl,
                 source_id(item.source), item.scope});
}

void KnowledgeBase::put_number(KeyId id, double value, double time,
                               double confidence, Scope scope,
                               SourceId source) {
  store(id, Slot{value, time, confidence, default_ttl_, source, scope});
}

void KnowledgeBase::store(KeyId id, const Slot& s) {
  if (history_limit_ == 0) return;
  entries_[id].push(s);
}

KnowledgeItem KnowledgeBase::item(const Slot& s) const {
  KnowledgeItem out;
  out.value = s.value;
  out.time = s.time;
  out.confidence = s.confidence;
  out.scope = s.scope;
  if (s.source != 0) out.source = sources_[s.source - 1];
  out.ttl = s.ttl;
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
  const sim::Ring<Slot>& h = entries_[id];
  out.reserve(h.size());
  for (const Slot& s : h) out.push_back(item(s));
  return out;
}

bool KnowledgeBase::fresh(std::string_view key, double now) const noexcept {
  const KeyId id = find(key);
  if (id == kNoKey) return false;
  const Slot* s = latest_slot(id);
  return s != nullptr && now - s->time <= s->ttl;
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
