#ifndef ALDSP_RELATIONAL_CELL_H_
#define ALDSP_RELATIONAL_CELL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "xml/value.h"

namespace aldsp::relational {

/// A nullable SQL value (xml::Cell): NULLs become *missing elements* when
/// rows cross into XML (paper §4.4). It lives in the XML layer because a
/// flat row node keeps its row's cells as they came from the source.
using Cell = xml::Cell;
using Row = std::vector<Cell>;

/// SQL three-valued logic.
enum class Tribool { kFalse, kTrue, kUnknown };

inline Tribool ToTribool(bool b) { return b ? Tribool::kTrue : Tribool::kFalse; }
Tribool TriAnd(Tribool a, Tribool b);
Tribool TriOr(Tribool a, Tribool b);
Tribool TriNot(Tribool a);

/// SQL comparison with NULL propagation; `op` is one of =,<>,<,<=,>,>=.
Result<Tribool> CompareCells(const Cell& a, const Cell& b,
                             const std::string& op);

/// Equality used by GROUP BY / DISTINCT (NULLs group together).
bool GroupingEquals(const Cell& a, const Cell& b);
/// Ordering used by ORDER BY (NULLs sort last, as Oracle defaults).
int OrderCompare(const Cell& a, const Cell& b);

}  // namespace aldsp::relational

#endif  // ALDSP_RELATIONAL_CELL_H_
