#include "xquery/ast.h"

#include <sstream>

#include "xml/node.h"

namespace aldsp::xquery {

std::string TypeRef::ToString() const {
  std::string s;
  switch (kind) {
    case Kind::kAtomic:
      s = name;
      break;
    case Kind::kElement:
      s = "element(" + name + ")";
      break;
    case Kind::kSchemaElement:
      s = "schema-element(" + name + ")";
      break;
    case Kind::kAnyItem:
      s = "item()";
      break;
    case Kind::kAnyNode:
      s = "node()";
      break;
    case Kind::kEmpty:
      return "empty-sequence()";
  }
  switch (occurrence) {
    case xsd::Occurrence::kOne:
      break;
    case xsd::Occurrence::kOptional:
      s += "?";
      break;
    case xsd::Occurrence::kStar:
      s += "*";
      break;
    case xsd::Occurrence::kPlus:
      s += "+";
      break;
  }
  return s;
}

const char* JoinMethodName(JoinMethod m) {
  switch (m) {
    case JoinMethod::kAuto:
      return "auto";
    case JoinMethod::kNestedLoop:
      return "nl";
    case JoinMethod::kIndexNestedLoop:
      return "inl";
    case JoinMethod::kPPkNestedLoop:
      return "ppk-nl";
    case JoinMethod::kPPkIndexNestedLoop:
      return "ppk-inl";
  }
  return "?";
}

const char* ExprKindName(ExprKind kind) {
  switch (kind) {
    case ExprKind::kLiteral:
      return "literal";
    case ExprKind::kEmptySequence:
      return "empty";
    case ExprKind::kSequence:
      return "sequence";
    case ExprKind::kVarRef:
      return "varref";
    case ExprKind::kFLWOR:
      return "flwor";
    case ExprKind::kPathStep:
      return "step";
    case ExprKind::kFilter:
      return "filter";
    case ExprKind::kElementCtor:
      return "element";
    case ExprKind::kAttributeCtor:
      return "attribute";
    case ExprKind::kIf:
      return "if";
    case ExprKind::kQuantified:
      return "quantified";
    case ExprKind::kComparison:
      return "comparison";
    case ExprKind::kArith:
      return "arith";
    case ExprKind::kLogical:
      return "logical";
    case ExprKind::kFunctionCall:
      return "call";
    case ExprKind::kCastAs:
      return "cast";
    case ExprKind::kInstanceOf:
      return "instanceof";
    case ExprKind::kCastable:
      return "castable";
    case ExprKind::kTypematch:
      return "typematch";
    case ExprKind::kSqlQuery:
      return "sql";
    case ExprKind::kCustomQuery:
      return "custom-query";
    case ExprKind::kError:
      return "error";
  }
  return "?";
}

namespace {
ExprPtr NewExpr(ExprKind kind, SourceLocation loc) {
  auto e = std::make_shared<Expr>();
  e->kind = kind;
  e->loc = loc;
  return e;
}
}  // namespace

ExprPtr MakeLiteral(xml::AtomicValue v, SourceLocation loc) {
  ExprPtr e = NewExpr(ExprKind::kLiteral, loc);
  e->literal = std::move(v);
  return e;
}

ExprPtr MakeEmptySequence(SourceLocation loc) {
  return NewExpr(ExprKind::kEmptySequence, loc);
}

ExprPtr MakeSequence(std::vector<ExprPtr> parts, SourceLocation loc) {
  if (parts.empty()) return MakeEmptySequence(loc);
  if (parts.size() == 1) return parts[0];
  ExprPtr e = NewExpr(ExprKind::kSequence, loc);
  e->children = std::move(parts);
  return e;
}

ExprPtr MakeVarRef(std::string name, SourceLocation loc) {
  ExprPtr e = NewExpr(ExprKind::kVarRef, loc);
  e->var_name = std::move(name);
  return e;
}

ExprPtr MakeFLWOR(std::vector<Clause> clauses, ExprPtr ret, SourceLocation loc) {
  ExprPtr e = NewExpr(ExprKind::kFLWOR, loc);
  e->clauses = std::move(clauses);
  e->children = {std::move(ret)};
  return e;
}

ExprPtr MakePathStep(ExprPtr input, std::string name, bool attribute,
                     SourceLocation loc) {
  ExprPtr e = NewExpr(ExprKind::kPathStep, loc);
  e->children = {std::move(input)};
  e->step_name = std::move(name);
  e->is_attribute_step = attribute;
  return e;
}

ExprPtr MakeFilter(ExprPtr input, ExprPtr predicate, SourceLocation loc) {
  ExprPtr e = NewExpr(ExprKind::kFilter, loc);
  e->children = {std::move(input), std::move(predicate)};
  return e;
}

ExprPtr MakeElementCtor(std::string name, std::vector<ExprPtr> content,
                        bool conditional, SourceLocation loc) {
  ExprPtr e = NewExpr(ExprKind::kElementCtor, loc);
  e->ctor_name = std::move(name);
  e->children = std::move(content);
  e->conditional = conditional;
  return e;
}

ExprPtr MakeAttributeCtor(std::string name, ExprPtr value, bool conditional,
                          SourceLocation loc) {
  ExprPtr e = NewExpr(ExprKind::kAttributeCtor, loc);
  e->ctor_name = std::move(name);
  e->children = {std::move(value)};
  e->conditional = conditional;
  return e;
}

ExprPtr MakeIf(ExprPtr cond, ExprPtr then_e, ExprPtr else_e,
               SourceLocation loc) {
  ExprPtr e = NewExpr(ExprKind::kIf, loc);
  e->children = {std::move(cond), std::move(then_e), std::move(else_e)};
  return e;
}

ExprPtr MakeQuantified(bool is_every, std::string var, ExprPtr in,
                       ExprPtr satisfies, SourceLocation loc) {
  ExprPtr e = NewExpr(ExprKind::kQuantified, loc);
  e->is_every = is_every;
  e->var_name2 = std::move(var);
  e->children = {std::move(in), std::move(satisfies)};
  return e;
}

ExprPtr MakeComparison(std::string op, bool general, ExprPtr lhs, ExprPtr rhs,
                       SourceLocation loc) {
  ExprPtr e = NewExpr(ExprKind::kComparison, loc);
  e->op = std::move(op);
  e->general_comparison = general;
  e->children = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr MakeArith(std::string op, ExprPtr lhs, ExprPtr rhs,
                  SourceLocation loc) {
  ExprPtr e = NewExpr(ExprKind::kArith, loc);
  e->op = std::move(op);
  e->children = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr MakeLogical(std::string op, ExprPtr lhs, ExprPtr rhs,
                    SourceLocation loc) {
  ExprPtr e = NewExpr(ExprKind::kLogical, loc);
  e->op = std::move(op);
  e->children = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr MakeFunctionCall(std::string name, std::vector<ExprPtr> args,
                         SourceLocation loc) {
  ExprPtr e = NewExpr(ExprKind::kFunctionCall, loc);
  e->fn_name = std::move(name);
  e->children = std::move(args);
  return e;
}

ExprPtr MakeCastAs(ExprPtr input, TypeRef target, SourceLocation loc) {
  ExprPtr e = NewExpr(ExprKind::kCastAs, loc);
  e->children = {std::move(input)};
  e->type_ref = std::move(target);
  return e;
}

ExprPtr MakeInstanceOf(ExprPtr input, TypeRef target, SourceLocation loc) {
  ExprPtr e = NewExpr(ExprKind::kInstanceOf, loc);
  e->children = {std::move(input)};
  e->type_ref = std::move(target);
  return e;
}

ExprPtr MakeCastable(ExprPtr input, TypeRef target, SourceLocation loc) {
  ExprPtr e = NewExpr(ExprKind::kCastable, loc);
  e->children = {std::move(input)};
  e->type_ref = std::move(target);
  return e;
}

ExprPtr MakeTypematch(ExprPtr input, xsd::SequenceType target,
                      SourceLocation loc) {
  ExprPtr e = NewExpr(ExprKind::kTypematch, loc);
  e->children = {std::move(input)};
  e->target_type = std::move(target);
  return e;
}

ExprPtr MakeSqlQuery(std::shared_ptr<SqlQuerySpec> spec,
                     std::vector<ExprPtr> params, SourceLocation loc) {
  ExprPtr e = NewExpr(ExprKind::kSqlQuery, loc);
  e->sql = std::move(spec);
  e->children = std::move(params);
  return e;
}

ExprPtr MakeCustomQuery(std::shared_ptr<CustomQuerySpec> spec,
                        std::vector<ExprPtr> params, SourceLocation loc) {
  ExprPtr e = NewExpr(ExprKind::kCustomQuery, loc);
  e->custom = std::move(spec);
  e->children = std::move(params);
  return e;
}

ExprPtr MakeError(std::string message, std::vector<ExprPtr> operands,
                  SourceLocation loc) {
  ExprPtr e = NewExpr(ExprKind::kError, loc);
  e->error_message = std::move(message);
  e->children = std::move(operands);
  e->static_type = xsd::One(xsd::XType::Error(e->error_message));
  return e;
}

ExprPtr CloneExpr(const ExprPtr& e) {
  if (!e) return nullptr;
  auto copy = std::make_shared<Expr>(*e);
  copy->children.clear();
  for (const auto& c : e->children) copy->children.push_back(CloneExpr(c));
  if (e->sql) {
    // Share the SqlQuerySpec's immutable select; clone the spec shell so
    // later mutation of one copy cannot alias the other.
    copy->sql = std::make_shared<SqlQuerySpec>(*e->sql);
    if (e->sql->select) copy->sql->select = e->sql->select->Clone();
  }
  if (e->custom) copy->custom = std::make_shared<CustomQuerySpec>(*e->custom);
  copy->clauses.clear();
  for (const auto& cl : e->clauses) {
    Clause c = cl;
    c.expr = CloneExpr(cl.expr);
    c.condition = CloneExpr(cl.condition);
    c.equi_keys.clear();
    for (const auto& [l, r] : cl.equi_keys) {
      c.equi_keys.emplace_back(CloneExpr(l), CloneExpr(r));
    }
    if (cl.ppk_fetch) {
      c.ppk_fetch = std::make_shared<PPkFetchSpec>(*cl.ppk_fetch);
      if (cl.ppk_fetch->select_template) {
        c.ppk_fetch->select_template = cl.ppk_fetch->select_template->Clone();
      }
    }
    c.group_keys.clear();
    for (const auto& gk : cl.group_keys) {
      c.group_keys.push_back({CloneExpr(gk.expr), gk.as_var});
    }
    c.order_keys.clear();
    for (const auto& ok : cl.order_keys) {
      c.order_keys.push_back({CloneExpr(ok.expr), ok.descending});
    }
    copy->clauses.push_back(std::move(c));
  }
  return copy;
}

namespace {

void Write(const Expr& e, std::ostringstream& os) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      if (e.literal.is_string()) {
        os << '"' << e.literal.Lexical() << '"';
      } else {
        os << e.literal.Lexical();
      }
      break;
    case ExprKind::kEmptySequence:
      os << "()";
      break;
    case ExprKind::kSequence:
      os << "(";
      for (size_t i = 0; i < e.children.size(); ++i) {
        if (i > 0) os << ", ";
        Write(*e.children[i], os);
      }
      os << ")";
      break;
    case ExprKind::kVarRef:
      os << "$" << e.var_name;
      break;
    case ExprKind::kFLWOR: {
      for (const auto& cl : e.clauses) {
        switch (cl.kind) {
          case Clause::Kind::kFor:
            os << "for $" << cl.var;
            if (!cl.positional_var.empty()) os << " at $" << cl.positional_var;
            os << " in ";
            Write(*cl.expr, os);
            os << " ";
            break;
          case Clause::Kind::kLet:
            os << "let $" << cl.var << " := ";
            Write(*cl.expr, os);
            os << " ";
            break;
          case Clause::Kind::kWhere:
            os << "where ";
            Write(*cl.expr, os);
            os << " ";
            break;
          case Clause::Kind::kGroupBy:
            os << "group ";
            for (size_t i = 0; i < cl.group_vars.size(); ++i) {
              if (i > 0) os << ", ";
              os << "$" << cl.group_vars[i].in_var << " as $"
                 << cl.group_vars[i].out_var;
            }
            os << " by ";
            for (size_t i = 0; i < cl.group_keys.size(); ++i) {
              if (i > 0) os << ", ";
              Write(*cl.group_keys[i].expr, os);
              if (!cl.group_keys[i].as_var.empty()) {
                os << " as $" << cl.group_keys[i].as_var;
              }
            }
            os << " ";
            break;
          case Clause::Kind::kOrderBy:
            os << "order by ";
            for (size_t i = 0; i < cl.order_keys.size(); ++i) {
              if (i > 0) os << ", ";
              Write(*cl.order_keys[i].expr, os);
              if (cl.order_keys[i].descending) os << " descending";
            }
            os << " ";
            break;
          case Clause::Kind::kJoin:
            os << (cl.left_outer ? "left-join" : "join") << "["
               << JoinMethodName(cl.method) << "] $" << cl.var << " in ";
            Write(*cl.expr, os);
            os << " on ";
            if (cl.condition) {
              Write(*cl.condition, os);
            } else {
              os << "true";
            }
            os << " ";
            break;
        }
      }
      os << "return ";
      Write(*e.children[0], os);
      break;
    }
    case ExprKind::kPathStep:
      Write(*e.children[0], os);
      os << "/" << (e.is_attribute_step ? "@" : "") << e.step_name;
      break;
    case ExprKind::kFilter:
      Write(*e.children[0], os);
      os << "[";
      Write(*e.children[1], os);
      os << "]";
      break;
    case ExprKind::kElementCtor:
      os << "<" << e.ctor_name << (e.conditional ? "?" : "") << ">{";
      for (size_t i = 0; i < e.children.size(); ++i) {
        if (i > 0) os << ", ";
        Write(*e.children[i], os);
      }
      os << "}</" << e.ctor_name << ">";
      break;
    case ExprKind::kAttributeCtor:
      os << "attribute " << e.ctor_name << (e.conditional ? "?" : "") << " {";
      Write(*e.children[0], os);
      os << "}";
      break;
    case ExprKind::kIf:
      os << "if (";
      Write(*e.children[0], os);
      os << ") then ";
      Write(*e.children[1], os);
      os << " else ";
      Write(*e.children[2], os);
      break;
    case ExprKind::kQuantified:
      os << (e.is_every ? "every" : "some") << " $" << e.var_name2 << " in ";
      Write(*e.children[0], os);
      os << " satisfies ";
      Write(*e.children[1], os);
      break;
    case ExprKind::kComparison:
    case ExprKind::kArith:
    case ExprKind::kLogical:
      os << "(";
      Write(*e.children[0], os);
      os << " " << e.op << " ";
      Write(*e.children[1], os);
      os << ")";
      break;
    case ExprKind::kFunctionCall:
      os << e.fn_name << "(";
      for (size_t i = 0; i < e.children.size(); ++i) {
        if (i > 0) os << ", ";
        Write(*e.children[i], os);
      }
      os << ")";
      break;
    case ExprKind::kCastAs:
      Write(*e.children[0], os);
      os << " cast as " << e.type_ref.ToString();
      break;
    case ExprKind::kInstanceOf:
      Write(*e.children[0], os);
      os << " instance of " << e.type_ref.ToString();
      break;
    case ExprKind::kCastable:
      Write(*e.children[0], os);
      os << " castable as " << e.type_ref.ToString();
      break;
    case ExprKind::kTypematch:
      os << "typematch[" << e.target_type.ToString() << "](";
      Write(*e.children[0], os);
      os << ")";
      break;
    case ExprKind::kSqlQuery:
      os << "sql[" << (e.sql ? e.sql->source : "?") << "]{"
         << (e.sql && e.sql->select ? relational::DebugString(*e.sql->select)
                                    : "")
         << "}";
      if (!e.children.empty()) {
        os << "(";
        for (size_t i = 0; i < e.children.size(); ++i) {
          if (i > 0) os << ", ";
          Write(*e.children[i], os);
        }
        os << ")";
      }
      break;
    case ExprKind::kCustomQuery:
      os << "custom[" << (e.custom ? e.custom->source : "?") << ":"
         << (e.custom ? e.custom->function : "?") << "]{";
      if (e.custom) {
        for (size_t i = 0; i < e.custom->conjuncts.size(); ++i) {
          if (i > 0) os << " and ";
          os << e.custom->conjuncts[i].attribute << " "
             << e.custom->conjuncts[i].op << " ?"
             << e.custom->conjuncts[i].param_index;
        }
      }
      os << "}(";
      for (size_t i = 0; i < e.children.size(); ++i) {
        if (i > 0) os << ", ";
        Write(*e.children[i], os);
      }
      os << ")";
      break;
    case ExprKind::kError:
      os << "error(\"" << e.error_message << "\")";
      break;
  }
}

}  // namespace

std::string DebugString(const Expr& e) {
  std::ostringstream os;
  Write(e, os);
  return os.str();
}

const std::string* Pragma::Find(const std::string& key) const {
  for (const auto& [k, v] : attrs) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string FunctionDecl::PragmaKind() const {
  for (const auto& p : pragmas) {
    if (p.name != "function") continue;
    const std::string* kind = p.Find("kind");
    if (kind != nullptr) return *kind;
  }
  return "";
}

const FunctionDecl* Module::FindFunction(const std::string& name) const {
  for (const auto& f : functions) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

}  // namespace aldsp::xquery
