#include "gen/file_source.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <limits>
#include <string_view>

namespace corrtrack::gen {

bool SaveDocuments(const std::string& path,
                   const std::vector<Document>& docs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = true;
  for (const Document& doc : docs) {
    std::string line = std::to_string(doc.id);
    line += '\t';
    line += std::to_string(doc.time);
    line += '\t';
    bool first = true;
    for (TagId t : doc.tags) {
      if (!first) line += ',';
      first = false;
      line += std::to_string(t);
    }
    line += '\n';
    if (std::fwrite(line.data(), 1, line.size(), f) != line.size()) {
      ok = false;
      break;
    }
  }
  if (std::fclose(f) != 0) ok = false;
  return ok;
}

namespace {

/// Parses all of `field` as a decimal in [0, max]: digits only, no sign,
/// no blanks, no overflow.
bool ParseField(std::string_view field, uint64_t max, uint64_t* out) {
  const char* last = field.data() + field.size();
  const auto [end, ec] = std::from_chars(field.data(), last, *out);
  return ec == std::errc() && end == last && *out <= max;
}

/// Parses one "id<TAB>time<TAB>tag,tag,..." line (newline stripped).
/// Returns nullptr on success, else what is wrong with the line.
const char* ParseLine(std::string_view line, Document* doc) {
  if (std::count(line.begin(), line.end(), '\t') != 2) {
    return "expected id<TAB>time<TAB>tags";
  }
  const size_t tab1 = line.find('\t');
  const size_t tab2 = line.find('\t', tab1 + 1);
  uint64_t time = 0;
  if (!ParseField(line.substr(0, tab1), std::numeric_limits<DocId>::max(),
                  &doc->id)) {
    return "bad id";
  }
  if (!ParseField(line.substr(tab1 + 1, tab2 - tab1 - 1),
                  std::numeric_limits<Timestamp>::max(), &time)) {
    return "bad time";
  }
  doc->time = static_cast<Timestamp>(time);
  std::vector<TagId> tags;
  for (std::string_view rest = line.substr(tab2 + 1);;) {
    const size_t comma = rest.find(',');
    uint64_t tag = 0;
    if (!ParseField(rest.substr(0, comma), kInvalidTag - 1, &tag)) {
      return "bad tag";
    }
    tags.push_back(static_cast<TagId>(tag));
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  doc->tags = TagSet(tags);
  if (doc->tags.size() > static_cast<size_t>(kMaxTagsPerDocument)) {
    return "too many distinct tags";
  }
  return nullptr;
}

}  // namespace

bool LoadDocuments(const std::string& path, std::vector<Document>* docs,
                   std::string* error) {
  if (docs == nullptr) return false;
  docs->clear();
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  const char* reason = nullptr;
  size_t line_no = 1;
  std::string line;
  // Byte by byte, so an embedded NUL or an over-long line is seen as
  // such, never silently cut short or split in two.
  for (int c = std::getc(f);; c = std::getc(f)) {
    if (c != '\n' && c != EOF) {
      if (line.size() == kMaxDocumentLineBytes) {
        reason = "line too long";
        break;
      }
      line.push_back(static_cast<char>(c));
      continue;
    }
    if (c == EOF && line.empty()) break;
    Document doc;
    reason = ParseLine(line, &doc);
    if (reason != nullptr) break;
    docs->push_back(std::move(doc));
    if (c == EOF) break;
    line.clear();
    ++line_no;
  }
  if (reason == nullptr && std::ferror(f) != 0) reason = "read error";
  const bool closed = std::fclose(f) == 0;
  if (reason != nullptr && error != nullptr) {
    *error = "line " + std::to_string(line_no) + ": " + reason;
  }
  if (reason != nullptr || !closed) docs->clear();
  return reason == nullptr && closed;
}

}  // namespace corrtrack::gen
