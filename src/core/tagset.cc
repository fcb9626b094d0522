#include "core/tagset.h"

#include <algorithm>

namespace corrtrack {

TagSet::TagSet(const std::vector<TagId>& tags) {
  std::vector<TagId> sorted = tags;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (TagId t : sorted) tags_.push_back(t);
}

TagSet TagSet::FromSorted(const TagId* first, const TagId* last) {
  TagSet s;
  for (const TagId* p = first; p != last; ++p) {
    if (p != first) CORRTRACK_CHECK_LT(*(p - 1), *p);
    s.tags_.push_back(*p);
  }
  return s;
}

bool TagSet::IsSortedRun(const TagId* first, const TagId* last) {
  for (const TagId* p = first; p != last; ++p) {
    if (*p == kInvalidTag || (p != first && *(p - 1) >= *p)) return false;
  }
  return true;
}

bool TagSet::Contains(TagId tag) const {
  return std::binary_search(tags_.begin(), tags_.end(), tag);
}

bool TagSet::IsSubsetOf(const TagSet& other) const {
  return std::includes(other.begin(), other.end(), begin(), end());
}

size_t TagSet::IntersectionSize(const TagSet& other) const {
  size_t count = 0;
  auto a = begin();
  auto b = other.begin();
  while (a != end() && b != other.end()) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      ++count;
      ++a;
      ++b;
    }
  }
  return count;
}

TagSet TagSet::Intersect(const TagSet& other) const {
  TagSet out;
  auto a = begin();
  auto b = other.begin();
  while (a != end() && b != other.end()) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      out.tags_.push_back(*a);
      ++a;
      ++b;
    }
  }
  return out;
}

TagSet TagSet::Union(const TagSet& other) const {
  TagSet out;
  auto a = begin();
  auto b = other.begin();
  while (a != end() || b != other.end()) {
    if (b == other.end() || (a != end() && *a < *b)) {
      out.tags_.push_back(*a++);
    } else if (a == end() || *b < *a) {
      out.tags_.push_back(*b++);
    } else {
      out.tags_.push_back(*a);
      ++a;
      ++b;
    }
  }
  return out;
}

size_t TagSet::Hash() const {
  // FNV-1a, folding in each tag id byte-wise.
  uint64_t h = 1469598103934665603ull;
  for (TagId t : tags_) {
    for (int shift = 0; shift < 32; shift += 8) {
      h ^= (t >> shift) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return static_cast<size_t>(h);
}

std::string TagSet::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < tags_.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(tags_[i]);
  }
  out += "}";
  return out;
}

}  // namespace corrtrack
