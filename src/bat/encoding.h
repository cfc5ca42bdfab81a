// Byte-encodings (§3.1): columns with low domain cardinality are stored as
// 1- or 2-byte integer codes into a dictionary. The paper deliberately
// chooses fixed-size codes over bit-compression: predicates are *remapped*
// onto codes (a selection on "MAIL" becomes a selection on byte 3), so no
// per-tuple decoding work is added to the scan.
#ifndef CCDB_BAT_ENCODING_H_
#define CCDB_BAT_ENCODING_H_

#include <string>
#include <string_view>
#include <vector>

#include "bat/column.h"
#include "util/status.h"

namespace ccdb {

/// Ordered value dictionary for string domains. Codes are dense 0..n-1 in
/// first-appearance order.
class StrDictionary {
 public:
  StrDictionary() = default;

  /// Adds `v` if absent; returns its code.
  uint32_t Intern(std::string_view v);

  /// Code of `v`, or kNotFound.
  StatusOr<uint32_t> Lookup(std::string_view v) const;

  std::string_view Get(uint32_t code) const;
  size_t size() const { return values_.size(); }

 private:
  std::vector<std::string> values_;
};

/// A dictionary-encoded column: `codes` is kU8 or kU16 (chosen by domain
/// cardinality), `dict` maps codes back to values.
struct EncodedStrColumn {
  Column codes;
  StrDictionary dict;

  /// Width of one encoded value in bytes (1 or 2).
  size_t code_width() const { return PhysTypeWidth(codes.type()); }
};

/// Encodes a kStr column. Fails with kResourceExhausted when the domain
/// cardinality exceeds 65536 (the paper's encodings stop at 2 bytes; larger
/// domains stay unencoded).
StatusOr<EncodedStrColumn> DictEncode(const Column& str_column);

/// Reconstructs the original kStr column (used by projections that must
/// emit strings; selections never need this — they remap the predicate).
StatusOr<Column> DictDecode(const EncodedStrColumn& enc);

}  // namespace ccdb

#endif  // CCDB_BAT_ENCODING_H_
