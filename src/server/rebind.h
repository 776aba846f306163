#ifndef ALDSP_SERVER_REBIND_H_
#define ALDSP_SERVER_REBIND_H_

#include <cstdint>
#include <string>
#include <vector>

#include "xml/value.h"
#include "xquery/ast.h"

namespace aldsp::server {

/// Literal rebinding for the plan cache's template tier. ParseExpression
/// numbers a query's literals (Expr::literal_slot); analysis, the
/// optimizer's clones and substitutions, and pushdown's translation into
/// SQL carry the slot along. A compiled plan whose every slot survives as
/// a literal can serve another text of the same statement shape: the
/// rebound plan shares the template's tree and carries only the new
/// text's values, which every slotted literal reads when it executes or
/// renders (xquery::LiteralValue, relational::LiteralCell).

/// The literal values of a freshly parsed query, indexed by slot.
std::vector<xml::AtomicValue> SlotLiterals(const xquery::Expr& parsed);

/// Template key: the statement fingerprint plus each slot's atomic type,
/// in slot order.
std::string ShapeKey(uint64_t statement_fp,
                     const std::vector<xml::AtomicValue>& literals);

/// True when every slot of `literals` appears in `plan` (as an XQuery
/// literal, or as a literal cell of a pushed SQL select or PP-k fetch
/// template) and every slotted literal still holds its parsed value.
/// False when a rewrite removed every copy of a slot or changed one in
/// place. A rewrite that read a slot's value (a folded constant, a LIKE
/// pattern, a row range) may leave other copies of it behind, so the
/// compiler reports such reads itself (Optimizer::read_slotted_literal,
/// sql::PushdownStats::slotted_literals_read).
bool SlotsSurvive(const xquery::Expr& plan,
                  const std::vector<xml::AtomicValue>& literals);

/// Every literal of `plan` executing with `slots`, slotted or not, with
/// its slot, type and value, in walk order (XQuery literals, and the
/// literal cells of pushed SQL selects and PP-k fetch templates). A
/// template is verified only when this and the EXPLAIN snapshot of the
/// candidate read with a second text's values both equal those of that
/// text's fresh plan.
std::string LiteralDigest(const xquery::Expr& plan,
                          const xquery::SlotValues* slots);

/// True when no slot holds the same value in `a` and `b`: only such a
/// pair of texts can show that a plan depends on nothing but its slots.
bool AllSlotsDiffer(const std::vector<xml::AtomicValue>& a,
                    const std::vector<xml::AtomicValue>& b);

}  // namespace aldsp::server

#endif  // ALDSP_SERVER_REBIND_H_
