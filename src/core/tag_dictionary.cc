#include "core/tag_dictionary.h"

#include "core/check.h"

namespace corrtrack {

TagId TagDictionary::GetOrAdd(std::string_view name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const TagId id = static_cast<TagId>(names_.size());
  CORRTRACK_CHECK_NE(id, kInvalidTag);
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

std::optional<TagId> TagDictionary::Find(std::string_view name) const {
  auto it = ids_.find(name);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

void TagDictionary::Truncate(size_t size) {
  while (names_.size() > size) {
    ids_.erase(names_.back());
    names_.pop_back();
  }
}

std::string_view TagDictionary::Name(TagId id) const {
  CORRTRACK_CHECK_LT(id, names_.size());
  return names_[id];
}

}  // namespace corrtrack
