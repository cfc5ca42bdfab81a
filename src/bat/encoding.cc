#include "bat/encoding.h"

#include <unordered_map>

namespace ccdb {

uint32_t StrDictionary::Intern(std::string_view v) {
  for (size_t i = 0; i < values_.size(); ++i) {
    if (values_[i] == v) return static_cast<uint32_t>(i);
  }
  values_.emplace_back(v);
  return static_cast<uint32_t>(values_.size() - 1);
}

StatusOr<uint32_t> StrDictionary::Lookup(std::string_view v) const {
  for (size_t i = 0; i < values_.size(); ++i) {
    if (values_[i] == v) return static_cast<uint32_t>(i);
  }
  return Status::NotFound("value not in dictionary: " + std::string(v));
}

std::string_view StrDictionary::Get(uint32_t code) const {
  CCDB_CHECK(code < values_.size());
  return values_[code];
}

StatusOr<EncodedStrColumn> DictEncode(const Column& str_column) {
  if (str_column.type() != PhysType::kStr) {
    return Status::InvalidArgument(
        std::string("DictEncode requires a str column, got ") +
        PhysTypeName(str_column.type()));
  }
  size_t n = str_column.size();
  EncodedStrColumn out;
  // Two passes: first build the dictionary with a hash map for speed, then
  // emit codes at the final width. Intern() itself is linear-scan (dicts are
  // small by definition), so bulk encoding uses the map. The map owns its
  // keys: views into the dictionary dangle when its string vector grows
  // (SSO buffers move on reallocation); heterogeneous lookup keeps probes
  // allocation-free.
  struct SvHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, uint32_t, SvHash, std::equal_to<>> index;
  std::vector<uint32_t> wide_codes(n);
  for (size_t i = 0; i < n; ++i) {
    std::string_view v = str_column.GetStr(i);
    auto it = index.find(v);
    if (it == index.end()) {
      uint32_t code = out.dict.Intern(v);
      index.emplace(std::string(v), code);
      wide_codes[i] = code;
    } else {
      wide_codes[i] = it->second;
    }
    if (out.dict.size() > 65536) {
      return Status::ResourceExhausted(
          "domain cardinality exceeds 65536; column not byte-encodable");
    }
  }
  if (out.dict.size() <= 256) {
    std::vector<uint8_t> codes(n);
    for (size_t i = 0; i < n; ++i) codes[i] = static_cast<uint8_t>(wide_codes[i]);
    out.codes = Column::U8(std::move(codes));
  } else {
    std::vector<uint16_t> codes(n);
    for (size_t i = 0; i < n; ++i)
      codes[i] = static_cast<uint16_t>(wide_codes[i]);
    out.codes = Column::U16(std::move(codes));
  }
  return out;
}

StatusOr<Column> DictDecode(const EncodedStrColumn& enc) {
  size_t n = enc.codes.size();
  std::vector<std::string> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t code = enc.codes.GetIntegral(i);
    values.emplace_back(enc.dict.Get(static_cast<uint32_t>(code)));
  }
  return Column::Str(values);
}

}  // namespace ccdb
