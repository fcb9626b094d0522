#ifndef CORRTRACK_CORE_TAG_DICTIONARY_H_
#define CORRTRACK_CORE_TAG_DICTIONARY_H_

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/types.h"

namespace corrtrack {

/// Interns tag strings (hashtags) to dense TagIds and back.
///
/// The Parser operator (§6.2) extracts hashtag strings from tweets; the rest
/// of the pipeline works exclusively with TagIds. Ids are assigned in first-
/// arrival order, so they are stable across a run and usable as dense array
/// indices.
///
/// Thread-compatible: concurrent const access is safe, mutation requires
/// external serialisation (the simulation runtime is single-threaded; the
/// pool runtime keeps one dictionary per parser task).
class TagDictionary {
 public:
  TagDictionary() = default;

  TagDictionary(const TagDictionary&) = delete;
  TagDictionary& operator=(const TagDictionary&) = delete;

  /// Returns the id of `name`, interning it if unseen.
  TagId GetOrAdd(std::string_view name);

  /// Returns the id of `name` if interned.
  std::optional<TagId> Find(std::string_view name) const;

  /// Returns the name of `id`. `id` must have been returned by GetOrAdd.
  std::string_view Name(TagId id) const;

  /// Number of interned tags. Also the smallest id not yet in use.
  size_t size() const { return names_.size(); }

  /// Forgets every tag interned after the dictionary held `size` tags.
  void Truncate(size_t size);

 private:
  // Heterogeneous lookup: string_view probes without a temporary
  // std::string (this map sits on the Parser's per-tweet hot path).
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, TagId, StringHash, std::equal_to<>> ids_;
  std::vector<std::string> names_;
};

}  // namespace corrtrack

#endif  // CORRTRACK_CORE_TAG_DICTIONARY_H_
