#ifndef CORRTRACK_GEN_FILE_SOURCE_H_
#define CORRTRACK_GEN_FILE_SOURCE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/document.h"

namespace corrtrack::gen {

/// Longest line LoadDocuments accepts, newline excluded.
inline constexpr size_t kMaxDocumentLineBytes = 4096;

/// TSV persistence for document streams: "id<TAB>time<TAB>tag,tag,...".
/// The paper's Source spout reads tweets "for repeatability of experiments
/// ... from a file" (§6.2); this is that path.
///
/// Both functions return false on I/O or parse errors (no exceptions).
bool SaveDocuments(const std::string& path,
                   const std::vector<Document>& docs);

/// Strict: every field must be fully numeric and in range (no sign, no
/// blanks; time >= 0, tags < kInvalidTag), every line must fit
/// kMaxDocumentLineBytes and carry 1..kMaxTagsPerDocument distinct tags.
/// On failure `docs` is left empty and `*error` (when given) names the
/// 1-based line and the reason.
bool LoadDocuments(const std::string& path, std::vector<Document>* docs,
                   std::string* error = nullptr);

}  // namespace corrtrack::gen

#endif  // CORRTRACK_GEN_FILE_SOURCE_H_
