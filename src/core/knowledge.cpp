#include "core/knowledge.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

namespace sa::core {

std::string to_string(const Value& v) {
  std::ostringstream os;
  if (const auto* b = std::get_if<bool>(&v)) {
    os << (*b ? "true" : "false");
  } else if (const auto* i = std::get_if<std::int64_t>(&v)) {
    os << *i;
  } else if (const auto* d = std::get_if<double>(&v)) {
    os << *d;
  } else if (const auto* s = std::get_if<std::string>(&v)) {
    os << *s;
  } else {
    const auto& vec = std::get<std::vector<double>>(v);
    os << '[';
    for (std::size_t i = 0; i < vec.size(); ++i) os << (i ? "," : "") << vec[i];
    os << ']';
  }
  return os.str();
}

KnowledgeBase::KeyId KnowledgeBase::intern(std::string_view key) {
  const auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  const KeyId id = static_cast<KeyId>(entries_.size());
  key_names_.emplace_back(key);  // deque: stable address for the view below
  index_.emplace(std::string_view(key_names_.back()), id);
  entries_.emplace_back(history_limit_);
  entries_.back().reserve(std::min<std::size_t>(history_limit_, 8));
  // Keep the id list sorted by key name so iteration stays deterministic
  // (ascending key order, as the std::map store used to give for free).
  const auto pos = std::lower_bound(
      sorted_.begin(), sorted_.end(), key,
      [this](KeyId a, std::string_view k) { return key_names_[a] < k; });
  sorted_.insert(pos, id);
  return id;
}

void KnowledgeBase::put(std::string_view key, KnowledgeItem item) {
  // Items that declared no shelf life inherit the base's default.
  if (std::isinf(item.ttl)) item.ttl = default_ttl_;
  const KeyId id = intern(key);
  const std::string& name = key_names_[id];
  if (history_limit_ == 0) {
    // Degenerate store: the key exists but retains nothing.
    for (const auto& [handle, l] : listeners_) {
      (void)handle;
      l(name, item);
    }
    return;
  }
  sim::Ring<KnowledgeItem>& h = entries_[id];
  h.push(std::move(item));
  const KnowledgeItem& stored = h.back();
  for (const auto& [handle, l] : listeners_) {
    (void)handle;
    l(name, stored);
  }
}

void KnowledgeBase::put_number(std::string_view key, double value, double time,
                               double confidence, Scope scope,
                               std::string source) {
  put(key, KnowledgeItem{Value{value}, time, confidence, scope,
                         std::move(source)});
}

std::optional<KnowledgeItem> KnowledgeBase::latest(std::string_view key) const {
  const KeyId id = find(key);
  if (id == kNoKey) return std::nullopt;
  const KnowledgeItem* item = latest_item(id);
  if (!item) return std::nullopt;
  return *item;
}

double KnowledgeBase::number(std::string_view key, double fallback) const {
  const KeyId id = find(key);
  if (id == kNoKey) return fallback;
  const KnowledgeItem* item = latest_item(id);
  return item ? as_number(item->value, fallback) : fallback;
}

double KnowledgeBase::confidence(std::string_view key) const {
  const KeyId id = find(key);
  if (id == kNoKey) return 0.0;
  const KnowledgeItem* item = latest_item(id);
  return item ? item->confidence : 0.0;
}

const sim::Ring<KnowledgeItem>& KnowledgeBase::history(
    std::string_view key) const {
  static const sim::Ring<KnowledgeItem> kNone;
  const KeyId id = find(key);
  return id == kNoKey ? kNone : entries_[id];
}

bool KnowledgeBase::contains(std::string_view key) const {
  return find(key) != kNoKey;
}

bool KnowledgeBase::fresh(std::string_view key, double now) const {
  const KeyId id = find(key);
  if (id == kNoKey) return false;
  const KnowledgeItem* item = latest_item(id);
  return item != nullptr && now - item->time <= item->ttl;
}

std::vector<std::string> KnowledgeBase::stale_keys(std::string_view prefix,
                                                   double now) const {
  std::vector<std::string> out;
  for (const KeyId id : sorted_) {
    const std::string& name = key_names_[id];
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    const KnowledgeItem* item = latest_item(id);
    if (item && now - item->time > item->ttl) out.push_back(name);
  }
  return out;
}

std::vector<std::string> KnowledgeBase::keys() const {
  std::vector<std::string> out;
  out.reserve(sorted_.size());
  for (const KeyId id : sorted_) out.push_back(key_names_[id]);
  return out;
}

std::vector<std::string> KnowledgeBase::keys_with_prefix(
    std::string_view prefix) const {
  std::vector<std::string> out;
  for (const KeyId id : sorted_) {
    const std::string& name = key_names_[id];
    if (name.compare(0, prefix.size(), prefix) == 0) out.push_back(name);
  }
  return out;
}

std::vector<std::pair<std::string, KnowledgeItem>>
KnowledgeBase::public_snapshot() const {
  std::vector<std::pair<std::string, KnowledgeItem>> out;
  for (const KeyId id : sorted_) {
    const KnowledgeItem* item = latest_item(id);
    if (item && item->scope == Scope::Public) {
      out.emplace_back(key_names_[id], *item);
    }
  }
  return out;
}

std::size_t KnowledgeBase::subscribe(Listener l) {
  listeners_.emplace_back(next_handle_, std::move(l));
  return next_handle_++;
}

void KnowledgeBase::unsubscribe(std::size_t handle) {
  listeners_.erase(
      std::remove_if(listeners_.begin(), listeners_.end(),
                     [handle](const auto& p) { return p.first == handle; }),
      listeners_.end());
}

void KnowledgeBase::clear() {
  index_.clear();     // views point into key_names_: drop them first
  key_names_.clear();
  entries_.clear();
  sorted_.clear();
}

}  // namespace sa::core
