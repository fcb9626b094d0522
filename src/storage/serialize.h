#ifndef CORRTRACK_STORAGE_SERIALIZE_H_
#define CORRTRACK_STORAGE_SERIALIZE_H_

#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/jaccard.h"
#include "core/partition.h"
#include "core/tagset.h"

namespace corrtrack::storage {

/// Binary codec of every durable record (checkpoint sections, the serve
/// blob, the checkpoint manifest). Little-endian fixed-width integers (the
/// state is counter-table sized; varint savings are not worth the decode
/// branches) and doubles as IEEE-754 bit patterns: the encoding must
/// round-trip *bit-identically*, coefficients included, because the
/// kill-restore differential tests compare doubles with operator==.
///
/// A record states its byte layout once, as a field list
///
///   template <class Io, class S> bool Fields(Io& io, S& s) {
///     return io.U64(s.count) && io.F64(s.ratio) && Tags(io, s.tags);
///   }
///
/// ByteWriter and ByteReader carry the same field methods, so the list
/// encodes when instantiated with a writer and a const S, and decodes when
/// instantiated with a reader and a mutable S. A writer's field always
/// succeeds; a reader's fails on truncation or on a value the layout
/// rules out, and the caller refuses the record (StatusCode::kCorruption
/// or a "malformed" section). The frame CRCs have passed by then, so a
/// failure means version skew, an encoder bug or forged bytes: never
/// silently loaded, never fatal. Sequence lengths go through Count, the
/// only place a decoded length reaches an allocation, and Count refuses
/// any length the remaining bytes could not hold.
///
/// The Put*/Get* primitives remain for the wire protocol (net/protocol.cc),
/// whose messages are not field lists, and for the manifest's CRC tail.
class ByteWriter {
 public:
  static constexpr bool kReads = false;

  void PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }

  void PutU32(uint32_t v) { PutFixed(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutFixed(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutFixed(&v, sizeof(v)); }

  void PutDouble(double v) { PutU64(std::bit_cast<uint64_t>(v)); }

  void PutBytes(std::string_view data) {
    PutU64(data.size());
    out_.append(data.data(), data.size());
  }

  // Field methods. The wire width is the method's; the in-memory integer
  // type (bool, int, ...) converts with static_cast.
  template <class T>
  bool U8(const T& v) { return Put<uint8_t>(v); }
  template <class T>
  bool U32(const T& v) { return Put<uint32_t>(v); }
  template <class T>
  bool U64(const T& v) { return Put<uint64_t>(v); }
  template <class T>
  bool I64(const T& v) { return Put<int64_t>(v); }
  bool F64(const double& v) { return U64(std::bit_cast<uint64_t>(v)); }
  bool Str(const std::string& v) {
    PutBytes(v);
    return true;
  }
  /// A sequence length as a `Wire` integer (uint32_t or uint64_t).
  template <class Wire>
  bool Count(const size_t& n, size_t /*min_element_bytes*/) {
    return Put<Wire>(n);
  }

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  void PutFixed(const void* v, size_t n) {
    // Little-endian hosts only (x86-64/aarch64, the supported targets):
    // memcpy of the native representation IS the wire format.
    const char* p = static_cast<const char*>(v);
    out_.append(p, n);
  }

  template <class Wire, class T>
  bool Put(const T& v) {
    const Wire wire = static_cast<Wire>(v);
    PutFixed(&wire, sizeof(wire));
    return true;
  }

  std::string out_;
};

/// Bounds-checked decoder over a byte view. Every Get and field method
/// returns false on truncation and leaves its output untouched.
class ByteReader {
 public:
  static constexpr bool kReads = true;

  explicit ByteReader(std::string_view data) : data_(data) {}

  bool GetU8(uint8_t* v) { return GetFixed(v, sizeof(*v)); }
  bool GetU32(uint32_t* v) { return GetFixed(v, sizeof(*v)); }
  bool GetU64(uint64_t* v) { return GetFixed(v, sizeof(*v)); }
  bool GetI64(int64_t* v) { return GetFixed(v, sizeof(*v)); }

  bool GetDouble(double* v) {
    uint64_t bits;
    if (!GetU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }

  bool GetBytes(std::string_view* out) {
    uint64_t n;
    if (!GetU64(&n)) return false;
    if (data_.size() < n) return false;
    *out = data_.substr(0, static_cast<size_t>(n));
    data_.remove_prefix(static_cast<size_t>(n));
    return true;
  }

  bool GetString(std::string* out) {
    std::string_view view;
    if (!GetBytes(&view)) return false;
    out->assign(view.data(), view.size());
    return true;
  }

  template <class T>
  bool U8(T& v) { return Get<uint8_t>(v); }
  template <class T>
  bool U32(T& v) { return Get<uint32_t>(v); }
  template <class T>
  bool U64(T& v) { return Get<uint64_t>(v); }
  template <class T>
  bool I64(T& v) { return Get<int64_t>(v); }
  bool F64(double& v) { return GetDouble(&v); }
  bool Str(std::string& v) { return GetString(&v); }
  /// Reads a `Wire`-wide sequence length and refuses one above
  /// remaining() / min_element_bytes: every element takes at least that
  /// many of the bytes that follow, so a larger length is forged, and
  /// whatever the caller sizes from `n` stays proportional to the input.
  template <class Wire>
  bool Count(size_t& n, size_t min_element_bytes) {
    Wire wire = 0;
    if (!GetFixed(&wire, sizeof(wire)) ||
        wire > data_.size() / min_element_bytes) {
      return false;
    }
    n = static_cast<size_t>(wire);
    return true;
  }

  bool empty() const { return data_.empty(); }
  size_t remaining() const { return data_.size(); }

 private:
  template <class Wire, class T>
  bool Get(T& v) {
    Wire wire{};
    if (!GetFixed(&wire, sizeof(wire))) return false;
    v = static_cast<T>(wire);
    return true;
  }

  bool GetFixed(void* v, size_t n) {
    if (data_.size() < n) return false;
    std::memcpy(v, data_.data(), n);
    data_.remove_prefix(n);
    return true;
  }

  std::string_view data_;
};

/// `S` is the record type T, const when encoding: constrains one Fields
/// overload per record kind.
template <class S, class T>
concept StateOf = std::same_as<std::remove_const_t<S>, T>;

// ---------------------------------------------------------------------------
// Shared field codecs. Each is a field list over a writer or a reader.

/// Bytes the field list `element` takes for a default-constructed T: the
/// least any element can take, since every count in it is then zero.
template <class T, class F>
size_t MinEncodedSize(F& element) {
  ByteWriter w;
  const T empty{};
  element(w, empty);
  return w.str().empty() ? 1 : w.str().size();
}

/// A `Wire`-counted sequence of elements, each written by `element`.
template <class Wire = uint64_t, class Io, class V, class F>
bool Seq(Io& io, V& v, F element) {
  size_t n = v.size();
  size_t min_bytes = 0;
  if constexpr (Io::kReads) {
    min_bytes = MinEncodedSize<typename V::value_type>(element);
  }
  if (!io.template Count<Wire>(n, min_bytes)) return false;
  if constexpr (Io::kReads) {
    v.clear();
    v.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (!element(io, v.emplace_back())) return false;
    }
  } else {
    for (auto& e : v) {
      if (!element(io, e)) return false;
    }
  }
  return true;
}

inline constexpr auto kU32 = [](auto& io, auto& v) { return io.U32(v); };
inline constexpr auto kU64 = [](auto& io, auto& v) { return io.U64(v); };
inline constexpr auto kI64 = [](auto& io, auto& v) { return io.I64(v); };
inline constexpr auto kStr = [](auto& io, auto& v) { return io.Str(v); };

/// A canonical TagSet: u32 count, then the tags ascending. Decoding
/// refuses more than kMaxTagsPerDocument tags and a run TagSet::FromSorted
/// would abort on (descending, repeated, kInvalidTag).
template <class Io, StateOf<TagSet> S>
bool Tags(Io& io, S& tags) {
  size_t n = tags.size();
  if (!io.template Count<uint32_t>(n, sizeof(TagId)) ||
      n > static_cast<size_t>(kMaxTagsPerDocument)) {
    return false;
  }
  if constexpr (Io::kReads) {
    TagId buf[kMaxTagsPerDocument];
    for (size_t i = 0; i < n; ++i) {
      if (!io.U32(buf[i])) return false;
    }
    if (!TagSet::IsSortedRun(buf, buf + n)) return false;
    tags = TagSet::FromSorted(buf, buf + n);
  } else {
    for (const TagId tag : tags) io.U32(tag);
  }
  return true;
}

template <class Io, StateOf<JaccardEstimate> S>
bool Estimate(Io& io, S& e) {
  return Tags(io, e.tags) && io.F64(e.coefficient) &&
         io.U64(e.intersection_count) && io.U64(e.union_count);
}

/// An exported counter table: (tagset, count) pairs in table order.
template <class Io, StateOf<std::vector<std::pair<TagSet, uint64_t>>> S>
bool Counters(Io& io, S& counters) {
  return Seq(io, counters, [](auto& io, auto& c) {
    return Tags(io, c.first) && io.U64(c.second);
  });
}

/// A period map, in period order: each period's end, then its estimates.
/// Decoding refuses a repeated period.
template <class Io,
          StateOf<std::map<Timestamp, std::vector<JaccardEstimate>>> S>
bool Periods(Io& io, S& periods) {
  const auto period = [](auto& io, auto& p) {
    return io.I64(p.first) &&
           Seq(io, p.second, [](auto& io, auto& e) { return Estimate(io, e); });
  };
  if constexpr (!Io::kReads) {
    return Seq(io, periods, period);
  } else {
    std::vector<std::pair<Timestamp, std::vector<JaccardEstimate>>> decoded;
    if (!Seq(io, decoded, period)) return false;
    periods.clear();
    for (auto& [period_end, estimates] : decoded) {
      if (!periods.emplace(period_end, std::move(estimates)).second) {
        return false;
      }
    }
    return true;
  }
}

/// A flattened PartitionSet: each partition's tags, then the loads.
template <class Io, StateOf<PartitionSetState> S>
bool Partitions(Io& io, S& ps) {
  return Seq(io, ps.partition_tags,
             [](auto& io, auto& tags) { return Seq(io, tags, kU32); }) &&
         Seq(io, ps.loads, kU64);
}

}  // namespace corrtrack::storage

#endif  // CORRTRACK_STORAGE_SERIALIZE_H_
