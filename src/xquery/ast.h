#ifndef ALDSP_XQUERY_AST_H_
#define ALDSP_XQUERY_AST_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/diagnostics.h"
#include "relational/sql_ast.h"
#include "xml/value.h"
#include "xsd/types.h"

namespace aldsp::xquery {

struct Expr;
using ExprPtr = std::shared_ptr<Expr>;

/// A reference to a sequence type as written in source
/// ("element(ns0:PROFILE)*", "xs:string?", "item()*", "empty-sequence()").
/// Resolved against the schema registry during compilation.
struct TypeRef {
  enum class Kind {
    kAtomic,         // xs:NAME
    kElement,        // element(NAME) / element(NAME, ANYTYPE)
    kSchemaElement,  // schema-element(NAME): must exist in schema context
    kAnyItem,        // item()
    kAnyNode,        // node()
    kEmpty,          // empty-sequence()
  };
  Kind kind = Kind::kAnyItem;
  std::string name;
  xsd::Occurrence occurrence = xsd::Occurrence::kOne;

  std::string ToString() const;
};

/// Expression node kinds. The parser produces these directly; compilation
/// phases (normalization, type check, optimization) rewrite the same tree.
enum class ExprKind {
  kLiteral,          // atomic constant
  kEmptySequence,    // ()
  kSequence,         // comma operator: children are the concatenated parts
  kVarRef,           // $name
  kFLWOR,            // for/let/where/group/order/return
  kPathStep,         // children[0]/NAME, children[0]/@NAME, fn-style steps
  kFilter,           // children[0][predicate] — predicate is children[1]
  kElementCtor,      // <NAME attr...>{content}</NAME>; children = content
  kAttributeCtor,    // attribute NAME { children[0] } (inside element ctor)
  kIf,               // children: cond, then, else
  kQuantified,       // some/every $v in children[0] satisfies children[1]
  kComparison,       // value (eq..) or general (=, !=, <, ...) comparison
  kArith,            // + - * div idiv mod
  kLogical,          // and / or
  kFunctionCall,     // fn:*, fn-bea:*, user functions, source functions
  kCastAs,           // children[0] cast as TypeRef
  kInstanceOf,       // children[0] instance of TypeRef
  kCastable,         // children[0] castable as TypeRef
  kTypematch,        // internal: runtime check inserted by optimistic typing
  kSqlQuery,         // internal: pushed-down SQL region (optimizer output)
  kCustomQuery,      // internal: pushed filter for a custom queryable source
  kError,            // internal: placeholder from design-time error recovery
};

const char* ExprKindName(ExprKind kind);

/// Cross-source join methods of the ALDSP runtime (paper §5.2): nested
/// loop, index nested loop, and PP-k (parameter passing in blocks of k)
/// layered over either. kAuto lets the optimizer decide.
enum class JoinMethod {
  kAuto,
  kNestedLoop,
  kIndexNestedLoop,
  kPPkNestedLoop,
  kPPkIndexNestedLoop,
};

const char* JoinMethodName(JoinMethod m);

struct PPkFetchSpec;

/// FLWOR clause. The ALDSP FLWGOR extension adds the group-by clause
/// (paper §3.1): `group $v as $v2 by expr as $v3, expr as $v4`.
/// kJoin clauses are introduced by the optimizer (paper §4.3: "join
/// expressions are introduced for each 'for' clause"): the tuple stream
/// so far is joined with the binding sequence of `var` under `condition`.
struct Clause {
  enum class Kind { kFor, kLet, kWhere, kGroupBy, kOrderBy, kJoin };

  struct GroupVar {
    std::string in_var;   // var1: variable being regrouped
    std::string out_var;  // var2: bound to the sequence of var1 values
  };
  struct GroupKey {
    ExprPtr expr;
    std::string as_var;  // var3: optional binding of the key value
  };
  struct OrderKey {
    ExprPtr expr;
    bool descending = false;
  };

  Kind kind = Kind::kFor;
  // kFor / kLet
  std::string var;
  std::string positional_var;  // `at $p` (kFor only; empty if absent)
  ExprPtr expr;                // binding expr (kFor/kLet) or condition (kWhere)
  // kGroupBy
  std::vector<GroupVar> group_vars;
  std::vector<GroupKey> group_keys;
  /// Set by the optimizer when the input is known to arrive clustered on
  /// the grouping keys, enabling the constant-memory streaming group
  /// operator (paper §4.2); otherwise the runtime sorts first.
  bool pre_clustered = false;
  // kOrderBy
  std::vector<OrderKey> order_keys;
  // kJoin (optimizer-introduced)
  ExprPtr condition;            // residual join predicate (may be null)
  /// Equi-join key pairs: (expression over earlier variables, expression
  /// over this clause's variable). Extracted by the optimizer; used by the
  /// index-nested-loop and PP-k methods.
  std::vector<std::pair<ExprPtr, ExprPtr>> equi_keys;
  bool left_outer = false;      // let-join rewritten to left outer join
  JoinMethod method = JoinMethod::kAuto;
  int ppk_block_size = 20;      // the paper's empirically chosen default k
  std::shared_ptr<PPkFetchSpec> ppk_fetch;  // set for PP-k methods
  /// Observed-cost annotations (optimizer post-pass, -1/-1 = none).
  /// For kFor/kJoin: the ObservedCostModel's cardinality estimate for the
  /// binding source call; the plan builder inserts exchange operators
  /// when the running estimate crosses its threshold.
  int64_t estimated_rows = -1;
  /// For kLet: consecutive let clauses sharing a non-negative group id
  /// are mutually independent source calls the runtime may fan out
  /// concurrently (paper Â§5.4 async evaluation, applied by the planner).
  int parallel_group = -1;
};

/// A pushed-down SQL region (paper §4.4). The node's children are the
/// outer-variable parameter expressions, evaluated in the XQuery runtime
/// and bound as SQL parameters in order.
struct SqlQuerySpec {
  std::string source;  // registered relational source id
  relational::SelectPtr select;
  struct OutCol {
    std::string name;  // output column name (and row child-element name)
    xml::AtomicType type = xml::AtomicType::kString;
  };
  std::vector<OutCol> columns;
  std::string row_name = "row";  // element name wrapping each result row
};

/// A pushed filter region for a *custom* queryable source — the paper's
/// §9 roadmap item ("an extensible pushdown framework for use in teaching
/// the ALDSP query processor to push work down to queryable data sources
/// such as LDAP"). The source function's results are filtered at the
/// source by a conjunction of attribute predicates; each predicate
/// compares a child element of the source's items against a parameter
/// expression (the node's children, by index).
struct CustomQuerySpec {
  std::string source;
  std::string function;
  struct Conjunct {
    std::string attribute;
    std::string op;  // "eq","ne","lt","le","gt","ge"
    int param_index = -1;
  };
  std::vector<Conjunct> conjuncts;
};

/// PP-k parameterized-fetch descriptor (paper §4.2): for each block of k
/// outer tuples the runtime executes `select_template` extended with
/// `in_alias.in_column IN (k parameters)` — one round trip per block —
/// and joins the fetched rows with the block in the middleware.
struct PPkFetchSpec {
  std::string source;                     // relational source id
  relational::SelectPtr select_template;  // without the IN predicate
  std::string in_alias;                   // alias of the keyed table
  std::string in_column;                  // key column for the IN list
  std::vector<SqlQuerySpec::OutCol> columns;
  std::string row_name = "row";
};

/// One expression node. A deliberately "fat" tagged struct: rewrite rules
/// in the optimizer pattern-match on `kind` and mutate children in place.
struct Expr {
  ExprKind kind;
  SourceLocation loc;

  /// Inferred static type (filled by the type checker).
  xsd::SequenceType static_type = xsd::AnySequence();

  // kLiteral
  xml::AtomicValue literal;
  /// Pre-order number of this literal among the literals of a query text
  /// (assigned by ParseExpression; -1 for module literals and literals a
  /// rewrite created). A plan compiled from one text serves another text
  /// of the same shape by reading that text's value for each slot (see
  /// LiteralValue).
  int literal_slot = -1;

  // kVarRef
  std::string var_name;

  // Generic operands. Layout by kind:
  //   kSequence: parts
  //   kFLWOR: [return]
  //   kPathStep: [input]
  //   kFilter: [input, predicate]
  //   kElementCtor: content parts (kAttributeCtor children first)
  //   kAttributeCtor: [value]
  //   kIf: [cond, then, else]
  //   kQuantified: [in, satisfies]
  //   kComparison/kArith/kLogical: [lhs, rhs]
  //   kFunctionCall: args
  //   kCastAs/kInstanceOf/kTypematch: [input]
  //   kError: original operands (kept so design-time analysis continues)
  std::vector<ExprPtr> children;

  // kFLWOR
  std::vector<Clause> clauses;

  // kPathStep
  std::string step_name;  // element name test, or attribute name
  bool is_attribute_step = false;

  // kElementCtor / kAttributeCtor
  std::string ctor_name;
  bool conditional = false;  // the ALDSP `<NAME?>` extension (paper §3.1)

  // kComparison / kArith / kLogical
  std::string op;           // "eq", "=", "+", "and", ...
  bool general_comparison = false;

  // kFunctionCall
  std::string fn_name;

  // kCastAs / kInstanceOf / kTypematch
  TypeRef type_ref;
  xsd::SequenceType target_type;  // resolved (typematch/cast)

  // kQuantified
  std::string var_name2;  // quantifier variable
  bool is_every = false;

  // kSqlQuery (children are the parameter expressions)
  std::shared_ptr<SqlQuerySpec> sql;

  // kCustomQuery (children are the parameter expressions)
  std::shared_ptr<CustomQuerySpec> custom;

  // kError
  std::string error_message;
};

/// The literal values of one query text, indexed by Expr::literal_slot.
/// A plan rebound to another text of its statement shape shares its
/// template's tree and carries that text's values.
using SlotValues = std::vector<xml::AtomicValue>;

/// The value literal `e` has in a plan executing with `slots`: the slot's
/// value when the plan carries values and `e` is slotted, else e.literal.
/// Every reader of a literal after compilation goes through here.
inline const xml::AtomicValue& LiteralValue(const Expr& e,
                                            const SlotValues* slots) {
  return slots != nullptr && e.literal_slot >= 0
             ? (*slots)[static_cast<size_t>(e.literal_slot)]
             : e.literal;
}

// ----- Factories ------------------------------------------------------

ExprPtr MakeLiteral(xml::AtomicValue v, SourceLocation loc = {});
ExprPtr MakeEmptySequence(SourceLocation loc = {});
ExprPtr MakeSequence(std::vector<ExprPtr> parts, SourceLocation loc = {});
ExprPtr MakeVarRef(std::string name, SourceLocation loc = {});
ExprPtr MakeFLWOR(std::vector<Clause> clauses, ExprPtr ret,
                  SourceLocation loc = {});
ExprPtr MakePathStep(ExprPtr input, std::string name, bool attribute,
                     SourceLocation loc = {});
ExprPtr MakeFilter(ExprPtr input, ExprPtr predicate, SourceLocation loc = {});
ExprPtr MakeElementCtor(std::string name, std::vector<ExprPtr> content,
                        bool conditional, SourceLocation loc = {});
ExprPtr MakeAttributeCtor(std::string name, ExprPtr value, bool conditional,
                          SourceLocation loc = {});
ExprPtr MakeIf(ExprPtr cond, ExprPtr then_e, ExprPtr else_e,
               SourceLocation loc = {});
ExprPtr MakeQuantified(bool is_every, std::string var, ExprPtr in,
                       ExprPtr satisfies, SourceLocation loc = {});
ExprPtr MakeComparison(std::string op, bool general, ExprPtr lhs, ExprPtr rhs,
                       SourceLocation loc = {});
ExprPtr MakeArith(std::string op, ExprPtr lhs, ExprPtr rhs,
                  SourceLocation loc = {});
ExprPtr MakeLogical(std::string op, ExprPtr lhs, ExprPtr rhs,
                    SourceLocation loc = {});
ExprPtr MakeFunctionCall(std::string name, std::vector<ExprPtr> args,
                         SourceLocation loc = {});
ExprPtr MakeCastAs(ExprPtr input, TypeRef target, SourceLocation loc = {});
ExprPtr MakeInstanceOf(ExprPtr input, TypeRef target, SourceLocation loc = {});
ExprPtr MakeCastable(ExprPtr input, TypeRef target, SourceLocation loc = {});
ExprPtr MakeTypematch(ExprPtr input, xsd::SequenceType target,
                      SourceLocation loc = {});
ExprPtr MakeSqlQuery(std::shared_ptr<SqlQuerySpec> spec,
                     std::vector<ExprPtr> params, SourceLocation loc = {});
ExprPtr MakeCustomQuery(std::shared_ptr<CustomQuerySpec> spec,
                        std::vector<ExprPtr> params, SourceLocation loc = {});
ExprPtr MakeError(std::string message, std::vector<ExprPtr> operands,
                  SourceLocation loc = {});

/// Deep copy of an expression tree (used by function inlining).
ExprPtr CloneExpr(const ExprPtr& e);

/// Visits every direct child expression, including those embedded in
/// FLWOR clauses, invoking `fn` with a mutable slot so rewrites can
/// replace children in place. The order is fixed (each clause's fields,
/// clause by clause, then the children): the parser numbers query
/// literals in this order and the plan cache rebinds them in it.
template <typename Fn>
void ForEachChildSlot(Expr& e, Fn&& fn) {
  for (auto& cl : e.clauses) {
    if (cl.expr) fn(cl.expr);
    if (cl.condition) fn(cl.condition);
    for (auto& [l, r] : cl.equi_keys) {
      if (l) fn(l);
      if (r) fn(r);
    }
    for (auto& gk : cl.group_keys) {
      if (gk.expr) fn(gk.expr);
    }
    for (auto& ok : cl.order_keys) {
      if (ok.expr) fn(ok.expr);
    }
  }
  for (auto& c : e.children) {
    if (c) fn(c);
  }
}

/// Compact single-line rendering for diagnostics and plan explainers.
std::string DebugString(const Expr& e);

// ----- Module-level declarations ---------------------------------------

/// Parsed pragma annotation: (::pragma function <kind> key="value" ... ::).
struct Pragma {
  std::string name;  // e.g. "function"
  std::vector<std::pair<std::string, std::string>> attrs;

  const std::string* Find(const std::string& key) const;
};

struct Param {
  std::string name;
  TypeRef type;
};

/// One XQuery function declaration of a data service file.
struct FunctionDecl {
  std::string name;  // "tns:getProfile"
  std::vector<Param> params;
  TypeRef return_type;
  ExprPtr body;  // null for external functions
  bool external = false;
  std::vector<Pragma> pragmas;
  SourceLocation loc;

  /// Value of pragma attr `kind` ("read", "navigate", ...), empty if none.
  std::string PragmaKind() const;
};

struct NamespaceDecl {
  std::string prefix;
  std::string uri;
};

/// A parsed data service file: prolog declarations + functions.
struct Module {
  std::string version;
  std::vector<NamespaceDecl> namespaces;
  std::vector<NamespaceDecl> schema_imports;
  std::vector<FunctionDecl> functions;

  const FunctionDecl* FindFunction(const std::string& name) const;
};

}  // namespace aldsp::xquery

#endif  // ALDSP_XQUERY_AST_H_
