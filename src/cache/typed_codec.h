#ifndef ALDSP_CACHE_TYPED_CODEC_H_
#define ALDSP_CACHE_TYPED_CODEC_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "xml/item.h"

namespace aldsp::cache {

/// Serializes an item sequence to a compact typed wire format that —
/// unlike plain XML text — preserves runtime type annotations, so cached
/// results read back from the persistent store stay typed (ALDSP data is
/// typed end-to-end, paper §5.1). One token per line:
///   SE name / EE name       element start/end
///   AT name type lexical    attribute
///   TX type lexical         typed text / atomic item
/// Lexical values escape backslash and newline.
std::string EncodeTypedSequence(const xml::Sequence& seq);

Result<xml::Sequence> DecodeTypedSequence(std::string_view encoded);

}  // namespace aldsp::cache

#endif  // ALDSP_CACHE_TYPED_CODEC_H_
