#include "compiler/analyzer.h"

#include <algorithm>

#include "compiler/builtins.h"
#include "xml/node.h"

namespace aldsp::compiler {

using xquery::Clause;
using xquery::CloneExpr;
using xquery::Expr;
using xquery::ExprKind;
using xquery::ExprPtr;
using xquery::TypeRef;
using xsd::Occurrence;
using xsd::SequenceType;
using xsd::TypePtr;
using xsd::XType;

Result<SequenceType> ResolveTypeRef(const TypeRef& ref,
                                    const xsd::SchemaRegistry& schemas) {
  switch (ref.kind) {
    case TypeRef::Kind::kEmpty:
      return xsd::EmptySequenceType();
    case TypeRef::Kind::kAnyItem:
      return SequenceType{XType::AnyItem(), ref.occurrence};
    case TypeRef::Kind::kAnyNode:
      return SequenceType{XType::AnyNode(), ref.occurrence};
    case TypeRef::Kind::kAtomic: {
      std::string local = xml::LocalName(ref.name);
      xml::AtomicType at;
      if (local == "string") {
        at = xml::AtomicType::kString;
      } else if (local == "integer" || local == "int" || local == "long") {
        at = xml::AtomicType::kInteger;
      } else if (local == "decimal") {
        at = xml::AtomicType::kDecimal;
      } else if (local == "double" || local == "float") {
        at = xml::AtomicType::kDouble;
      } else if (local == "boolean") {
        at = xml::AtomicType::kBoolean;
      } else if (local == "dateTime") {
        at = xml::AtomicType::kDateTime;
      } else if (local == "untypedAtomic" || local == "anyAtomicType") {
        at = xml::AtomicType::kUntyped;
      } else {
        return Status::TypeError("unknown atomic type: " + ref.name);
      }
      return SequenceType{XType::Atomic(at), ref.occurrence};
    }
    case TypeRef::Kind::kElement: {
      TypePtr t = schemas.Lookup(ref.name);
      if (t == nullptr) t = XType::AnyElement(ref.name);
      return SequenceType{t, ref.occurrence};
    }
    case TypeRef::Kind::kSchemaElement: {
      TypePtr t = schemas.Lookup(ref.name);
      if (t == nullptr) {
        return Status::TypeError("schema-element(" + ref.name +
                                 ") not found in schema context");
      }
      return SequenceType{t, ref.occurrence};
    }
  }
  return Status::Internal("unhandled TypeRef kind");
}

namespace {

// Occurrence of the concatenation of two (non-empty-typed) sequences.
// Both sides can produce an item, so the upper bound always exceeds one;
// the lower bound is zero only if both sides allow empty.
Occurrence OccurrenceConcat(Occurrence a, Occurrence b) {
  auto low = [](Occurrence o) {
    return o == Occurrence::kOptional || o == Occurrence::kStar ? 0 : 1;
  };
  return low(a) + low(b) == 0 ? Occurrence::kStar : Occurrence::kPlus;
}

bool IsErrorType(const SequenceType& t) {
  return t.item != nullptr && t.item->kind() == XType::Kind::kError;
}

}  // namespace

class Analyzer::Impl {
 public:
  Impl(const FunctionTable* functions, const xsd::SchemaRegistry* schemas,
       DiagnosticBag* bag, AnalyzeOptions options)
      : functions_(functions),
        schemas_(schemas),
        bag_(bag),
        options_(options) {}

  Status Run(ExprPtr& root, const std::vector<VarBinding>& env) {
    env_ = env;
    first_error_ = Status::OK();
    Check(root);
    return options_.recover ? Status::OK() : first_error_;
  }

 private:
  // Records an error; in recovery mode replaces the node with an error
  // expression (keeping its operands) so analysis can continue.
  void ReportError(ExprPtr& e, StatusCode code, const std::string& message) {
    if (bag_ != nullptr) bag_->AddError(code, message, e->loc);
    if (first_error_.ok()) {
      std::string msg = message;
      if (e->loc.valid()) msg += " (at " + e->loc.ToString() + ")";
      first_error_ = Status(code, msg);
    }
    ExprPtr err = xquery::MakeError(message, e->children, e->loc);
    e = err;
  }

  const VarBinding* FindVar(const std::string& name) const {
    for (auto it = env_.rbegin(); it != env_.rend(); ++it) {
      if (it->name == name) return &*it;
    }
    return nullptr;
  }

  // ----- Normalization rewrites (top-down, before typing) --------------

  void Normalize(ExprPtr& e) {
    if (e->kind == ExprKind::kElementCtor && e->conditional) {
      // Paper §3.1: <E?>{c}</E>  ==  if (exists(c)) then <E>{c}</E> else ().
      std::vector<ExprPtr> value_parts;
      for (const auto& c : e->children) {
        if (c->kind != ExprKind::kAttributeCtor) {
          value_parts.push_back(CloneExpr(c));
        }
      }
      ExprPtr ctor = xquery::MakeElementCtor(e->ctor_name, e->children,
                                             /*conditional=*/false, e->loc);
      ExprPtr cond = xquery::MakeFunctionCall(
          "fn:exists", {xquery::MakeSequence(std::move(value_parts), e->loc)},
          e->loc);
      e = xquery::MakeIf(std::move(cond), std::move(ctor),
                         xquery::MakeEmptySequence(e->loc), e->loc);
      return;
    }
    if (e->kind == ExprKind::kAttributeCtor && e->conditional) {
      ExprPtr ctor = xquery::MakeAttributeCtor(e->ctor_name, e->children[0],
                                               /*conditional=*/false, e->loc);
      ExprPtr cond = xquery::MakeFunctionCall(
          "fn:exists", {CloneExpr(e->children[0])}, e->loc);
      e = xquery::MakeIf(std::move(cond), std::move(ctor),
                         xquery::MakeEmptySequence(e->loc), e->loc);
    }
  }

  // ----- Type checking (bottom-up) --------------------------------------

  void Check(ExprPtr& e) {
    Normalize(e);
    switch (e->kind) {
      case ExprKind::kLiteral:
        e->static_type = xsd::One(XType::Atomic(e->literal.type()));
        return;
      case ExprKind::kEmptySequence:
        e->static_type = xsd::EmptySequenceType();
        return;
      case ExprKind::kSequence: {
        SequenceType t = xsd::EmptySequenceType();
        for (auto& c : e->children) {
          Check(c);
          if (t.is_empty_sequence()) {
            t = c->static_type;
          } else if (!c->static_type.is_empty_sequence()) {
            SequenceType merged =
                xsd::CommonSupertype(t, c->static_type);
            merged.occurrence =
                OccurrenceConcat(t.occurrence, c->static_type.occurrence);
            t = merged;
          }
        }
        e->static_type = t;
        return;
      }
      case ExprKind::kVarRef: {
        const VarBinding* var = FindVar(e->var_name);
        if (var == nullptr) {
          ReportError(e, StatusCode::kAnalysisError,
                      "undefined variable $" + e->var_name);
          return;
        }
        e->static_type = var->type;
        return;
      }
      case ExprKind::kFLWOR:
        CheckFLWOR(e);
        return;
      case ExprKind::kPathStep:
        CheckPathStep(e);
        return;
      case ExprKind::kFilter:
        CheckFilter(e);
        return;
      case ExprKind::kElementCtor:
        CheckElementCtor(e);
        return;
      case ExprKind::kAttributeCtor: {
        Check(e->children[0]);
        xml::AtomicType at = xsd::AtomizedType(e->children[0]->static_type);
        e->static_type = xsd::One(XType::AttributeType(e->ctor_name, at));
        return;
      }
      case ExprKind::kIf: {
        Check(e->children[0]);
        Check(e->children[1]);
        Check(e->children[2]);
        e->static_type = xsd::CommonSupertype(e->children[1]->static_type,
                                              e->children[2]->static_type);
        return;
      }
      case ExprKind::kQuantified: {
        Check(e->children[0]);
        env_.push_back({e->var_name2,
                        {e->children[0]->static_type.item
                             ? e->children[0]->static_type.item
                             : XType::AnyItem(),
                         Occurrence::kOne}});
        Check(e->children[1]);
        env_.pop_back();
        e->static_type = xsd::One(XType::Atomic(xml::AtomicType::kBoolean));
        return;
      }
      case ExprKind::kComparison: {
        Check(e->children[0]);
        Check(e->children[1]);
        xml::AtomicType lt = xsd::AtomizedType(e->children[0]->static_type);
        xml::AtomicType rt = xsd::AtomizedType(e->children[1]->static_type);
        bool comparable =
            lt == rt || lt == xml::AtomicType::kUntyped ||
            rt == xml::AtomicType::kUntyped ||
            (xml::IsNumeric(lt) && xml::IsNumeric(rt));
        if (!comparable) {
          ReportError(e, StatusCode::kTypeError,
                      std::string("cannot compare ") + xml::AtomicTypeName(lt) +
                          " with " + xml::AtomicTypeName(rt));
          return;
        }
        Occurrence occ =
            (e->children[0]->static_type.allows_empty() ||
             e->children[1]->static_type.allows_empty())
                ? Occurrence::kOptional
                : Occurrence::kOne;
        if (e->general_comparison) occ = Occurrence::kOne;
        e->static_type = {XType::Atomic(xml::AtomicType::kBoolean), occ};
        return;
      }
      case ExprKind::kArith: {
        Check(e->children[0]);
        Check(e->children[1]);
        xml::AtomicType lt = xsd::AtomizedType(e->children[0]->static_type);
        xml::AtomicType rt = xsd::AtomizedType(e->children[1]->static_type);
        auto numeric_ok = [](xml::AtomicType t) {
          return xml::IsNumeric(t) || t == xml::AtomicType::kUntyped;
        };
        if (!numeric_ok(lt) || !numeric_ok(rt)) {
          ReportError(e, StatusCode::kTypeError,
                      std::string("arithmetic requires numeric operands, got ") +
                          xml::AtomicTypeName(lt) + " and " +
                          xml::AtomicTypeName(rt));
          return;
        }
        xml::AtomicType result;
        if (e->op == "div") {
          result = xml::AtomicType::kDouble;
        } else if (e->op == "idiv") {
          result = xml::AtomicType::kInteger;
        } else if (lt == xml::AtomicType::kDouble ||
                   rt == xml::AtomicType::kDouble ||
                   lt == xml::AtomicType::kUntyped ||
                   rt == xml::AtomicType::kUntyped) {
          result = xml::AtomicType::kDouble;
        } else if (lt == xml::AtomicType::kDecimal ||
                   rt == xml::AtomicType::kDecimal) {
          result = xml::AtomicType::kDecimal;
        } else {
          result = xml::AtomicType::kInteger;
        }
        Occurrence occ = (e->children[0]->static_type.allows_empty() ||
                          e->children[1]->static_type.allows_empty())
                             ? Occurrence::kOptional
                             : Occurrence::kOne;
        e->static_type = {XType::Atomic(result), occ};
        return;
      }
      case ExprKind::kLogical:
        Check(e->children[0]);
        Check(e->children[1]);
        e->static_type = xsd::One(XType::Atomic(xml::AtomicType::kBoolean));
        return;
      case ExprKind::kFunctionCall:
        CheckFunctionCall(e);
        return;
      case ExprKind::kCastAs: {
        Check(e->children[0]);
        auto target = ResolveTypeRef(e->type_ref, *schemas_);
        if (!target.ok()) {
          ReportError(e, StatusCode::kTypeError, target.status().message());
          return;
        }
        e->target_type = target.value();
        e->static_type = {e->target_type.item,
                          e->children[0]->static_type.allows_empty()
                              ? Occurrence::kOptional
                              : Occurrence::kOne};
        return;
      }
      case ExprKind::kInstanceOf:
      case ExprKind::kCastable: {
        Check(e->children[0]);
        auto target = ResolveTypeRef(e->type_ref, *schemas_);
        if (!target.ok()) {
          ReportError(e, StatusCode::kTypeError, target.status().message());
          return;
        }
        e->target_type = target.value();
        e->static_type = xsd::One(XType::Atomic(xml::AtomicType::kBoolean));
        return;
      }
      case ExprKind::kTypematch:
        Check(e->children[0]);
        e->static_type = e->target_type;
        return;
      case ExprKind::kSqlQuery: {
        for (auto& c : e->children) Check(c);
        if (e->sql) {
          // Structural row type from the pushed query's output columns;
          // every column is optional because NULL renders as a missing
          // element (paper §4.4).
          std::vector<xsd::ElementField> fields;
          for (const auto& col : e->sql->columns) {
            fields.push_back(
                {col.name,
                 xsd::Opt(XType::SimpleElement(col.name, col.type))});
          }
          e->static_type = xsd::Star(
              XType::ComplexElement(e->sql->row_name, std::move(fields)));
        } else {
          e->static_type = xsd::Star(XType::AnyElement("row"));
        }
        return;
      }
      case ExprKind::kCustomQuery: {
        for (auto& c : e->children) Check(c);
        const ExternalFunction* fn =
            e->custom ? functions_->FindExternal(e->custom->function)
                      : nullptr;
        // Filtering never adds items: the source function's type (made
        // optional-cardinality) bounds the result.
        if (fn != nullptr && !fn->return_type.is_empty_sequence()) {
          e->static_type = {fn->return_type.item,
                            xsd::MakeOptional(fn->return_type.occurrence)};
        } else {
          e->static_type = xsd::AnySequence();
        }
        return;
      }
      case ExprKind::kError:
        e->static_type = xsd::One(XType::Error(e->error_message));
        return;
    }
  }

  void CheckFLWOR(ExprPtr& e) {
    size_t outer_size = env_.size();
    Occurrence loop_occ = Occurrence::kOne;
    for (auto& cl : e->clauses) {
      switch (cl.kind) {
        case Clause::Kind::kFor:
        case Clause::Kind::kJoin: {
          Check(cl.expr);
          TypePtr item = cl.expr->static_type.item ? cl.expr->static_type.item
                                                   : XType::AnyItem();
          env_.push_back({cl.var, {item, Occurrence::kOne}});
          if (!cl.positional_var.empty()) {
            env_.push_back({cl.positional_var,
                            xsd::One(XType::Atomic(xml::AtomicType::kInteger))});
          }
          loop_occ =
              xsd::OccurrenceProduct(loop_occ, cl.expr->static_type.occurrence);
          if (cl.kind == Clause::Kind::kJoin) {
            if (cl.condition) Check(cl.condition);
            if (cl.left_outer) {
              // An unmatched left row binds the join variable to ().
              env_.back().type.occurrence = Occurrence::kOptional;
            }
          }
          break;
        }
        case Clause::Kind::kLet:
          Check(cl.expr);
          env_.push_back({cl.var, cl.expr->static_type});
          break;
        case Clause::Kind::kWhere:
          Check(cl.expr);
          loop_occ = xsd::MakeOptional(loop_occ);
          break;
        case Clause::Kind::kGroupBy: {
          // Validate regrouped variables and key expressions in the
          // pre-grouping scope.
          std::vector<VarBinding> post;
          for (auto& gv : cl.group_vars) {
            const VarBinding* in = FindVar(gv.in_var);
            if (in == nullptr) {
              if (bag_ != nullptr) {
                bag_->AddError(StatusCode::kAnalysisError,
                               "undefined grouping variable $" + gv.in_var,
                               e->loc);
              }
              if (first_error_.ok()) {
                first_error_ = Status::AnalysisError(
                    "undefined grouping variable $" + gv.in_var);
              }
              post.push_back({gv.out_var, xsd::AnySequence()});
              continue;
            }
            post.push_back(
                {gv.out_var,
                 {in->type.item ? in->type.item : XType::AnyItem(),
                  Occurrence::kStar}});
          }
          for (auto& gk : cl.group_keys) {
            Check(gk.expr);
            if (!gk.as_var.empty()) {
              post.push_back(
                  {gk.as_var,
                   xsd::Opt(XType::Atomic(xsd::AtomizedType(gk.expr->static_type)))});
            }
          }
          // Grouping removes the per-iteration bindings: only regrouped
          // variables and key bindings remain visible.
          env_.resize(outer_size);
          for (auto& b : post) env_.push_back(std::move(b));
          loop_occ = xsd::MakeOptional(loop_occ);
          break;
        }
        case Clause::Kind::kOrderBy:
          for (auto& ok : cl.order_keys) Check(ok.expr);
          break;
      }
    }
    Check(e->children[0]);
    const SequenceType& ret = e->children[0]->static_type;
    if (ret.is_empty_sequence()) {
      e->static_type = xsd::EmptySequenceType();
    } else {
      e->static_type = {ret.item,
                        xsd::OccurrenceProduct(loop_occ, ret.occurrence)};
    }
    env_.resize(outer_size);
  }

  void CheckPathStep(ExprPtr& e) {
    Check(e->children[0]);
    const SequenceType& in = e->children[0]->static_type;
    if (IsErrorType(in)) {
      e->static_type = in;
      return;
    }
    if (in.is_empty_sequence()) {
      e->static_type = xsd::EmptySequenceType();
      return;
    }
    const TypePtr& item = in.item;
    if (item->kind() == XType::Kind::kAtomic) {
      ReportError(e, StatusCode::kTypeError,
                  "path step '" + e->step_name + "' on atomic type " +
                      item->ToString());
      return;
    }
    if (item->kind() == XType::Kind::kElement && !item->has_any_content() &&
        !item->has_simple_content()) {
      // Structural typing: we statically know the content model.
      if (e->is_attribute_step) {
        const xsd::ElementField* attr = item->FindAttribute(e->step_name);
        if (attr == nullptr) {
          ReportError(e, StatusCode::kTypeError,
                      "no attribute @" + e->step_name + " in " +
                          item->ToString());
          return;
        }
        e->static_type = {attr->type.item,
                          xsd::OccurrenceProduct(in.occurrence,
                                                 attr->type.occurrence)};
        return;
      }
      const xsd::ElementField* field = item->FindField(e->step_name);
      if (field == nullptr) {
        ReportError(e, StatusCode::kTypeError,
                    "no child element <" + e->step_name + "> in " +
                        item->ToString());
        return;
      }
      e->static_type = {field->type.item,
                        xsd::OccurrenceProduct(in.occurrence,
                                               field->type.occurrence)};
      return;
    }
    if (item->kind() == XType::Kind::kElement && item->has_simple_content()) {
      ReportError(e, StatusCode::kTypeError,
                  "path step '" + e->step_name +
                      "' into simple-content element " + item->ToString());
      return;
    }
    // element(E, ANYTYPE), node(), item(): dynamically typed navigation.
    if (e->is_attribute_step) {
      e->static_type = xsd::Star(
          XType::AttributeType(e->step_name, xml::AtomicType::kUntyped));
    } else {
      e->static_type = xsd::Star(XType::AnyElement(e->step_name));
    }
  }

  void CheckFilter(ExprPtr& e) {
    Check(e->children[0]);
    const SequenceType& in = e->children[0]->static_type;
    TypePtr item = in.item ? in.item : XType::AnyItem();
    env_.push_back({".", {item, Occurrence::kOne}});
    Check(e->children[1]);
    env_.pop_back();
    e->static_type = {item, xsd::MakeOptional(in.is_empty_sequence()
                                                  ? Occurrence::kOptional
                                                  : in.occurrence)};
  }

  void CheckElementCtor(ExprPtr& e) {
    std::vector<xsd::ElementField> attrs;
    std::vector<xsd::ElementField> fields;
    bool has_atomic_content = false;
    bool opaque_content = false;
    xml::AtomicType single_atomic = xml::AtomicType::kUntyped;
    size_t content_children = 0;
    for (auto& c : e->children) {
      Check(c);
      const SequenceType& t = c->static_type;
      if (c->kind == ExprKind::kAttributeCtor) {
        attrs.push_back({c->ctor_name, t});
        continue;
      }
      ++content_children;
      if (t.is_empty_sequence()) continue;
      if (IsErrorType(t)) {
        opaque_content = true;
        continue;
      }
      TypePtr item = t.item;
      if (item->kind() == XType::Kind::kElement) {
        // Merge repeated names into a starred particle.
        bool merged = false;
        for (auto& f : fields) {
          if (xml::NameMatches(f.name, item->name())) {
            f.type.occurrence = Occurrence::kStar;
            merged = true;
            break;
          }
        }
        if (!merged) fields.push_back({item->name(), t});
      } else if (item->kind() == XType::Kind::kAtomic) {
        has_atomic_content = true;
        single_atomic = item->atomic_type();
      } else {
        opaque_content = true;  // node()/item(): content model unknown
      }
    }
    // An if/else of elements named differently, or mixed content, yields
    // an opaque ANYTYPE element; the common data-centric cases stay
    // precisely typed (the essence of structural typing, paper §3.1).
    if (opaque_content || (has_atomic_content && !fields.empty())) {
      e->static_type = xsd::One(XType::AnyElement(e->ctor_name));
      return;
    }
    if (fields.empty()) {
      if (has_atomic_content && content_children == 1) {
        e->static_type =
            xsd::One(XType::SimpleElement(e->ctor_name, single_atomic));
      } else if (has_atomic_content) {
        e->static_type = xsd::One(
            XType::SimpleElement(e->ctor_name, xml::AtomicType::kString));
      } else {
        e->static_type =
            xsd::One(XType::ComplexElement(e->ctor_name, {}, std::move(attrs)));
      }
      return;
    }
    e->static_type = xsd::One(
        XType::ComplexElement(e->ctor_name, std::move(fields), std::move(attrs)));
  }

  void CheckFunctionCall(ExprPtr& e) {
    for (auto& c : e->children) Check(c);
    Builtin b = LookupBuiltin(e->fn_name);
    if (b != Builtin::kUnknown) {
      int min_args, max_args;
      BuiltinArity(b, &min_args, &max_args);
      int n = static_cast<int>(e->children.size());
      if (n < min_args || n > max_args) {
        ReportError(e, StatusCode::kAnalysisError,
                    "wrong number of arguments to " + e->fn_name + ": " +
                        std::to_string(n));
        return;
      }
      e->static_type = InferBuiltinType(b, *e);
      return;
    }
    if (const UserFunction* fn = functions_->FindUser(e->fn_name)) {
      if (e->children.size() != fn->params.size()) {
        ReportError(e, StatusCode::kAnalysisError,
                    "wrong number of arguments to " + e->fn_name);
        return;
      }
      for (size_t i = 0; i < e->children.size(); ++i) {
        ApplyOptimisticRule(e, i, fn->params[i].type);
        if (e->kind == ExprKind::kError) return;
      }
      e->static_type = fn->return_type;
      return;
    }
    if (const ExternalFunction* fn = functions_->FindExternal(e->fn_name)) {
      if (e->children.size() != fn->param_types.size()) {
        ReportError(e, StatusCode::kAnalysisError,
                    "wrong number of arguments to " + e->fn_name);
        return;
      }
      for (size_t i = 0; i < e->children.size(); ++i) {
        ApplyOptimisticRule(e, i, fn->param_types[i]);
        if (e->kind == ExprKind::kError) return;
      }
      e->static_type = fn->return_type;
      return;
    }
    ReportError(e, StatusCode::kAnalysisError,
                "unknown function: " + e->fn_name);
  }

  // ALDSP's optimistic static typing rule (paper §4.1): the argument is
  // valid if its type intersects the parameter type; a typematch operator
  // enforces exact semantics at runtime unless the argument is already a
  // subtype.
  void ApplyOptimisticRule(ExprPtr& call, size_t arg_index,
                           const SequenceType& param_type) {
    ExprPtr& arg = call->children[arg_index];
    if (IsErrorType(arg->static_type)) return;
    // XQuery function conversion: when the expected type is atomic, node
    // arguments are implicitly atomized. Normalization makes the implicit
    // fn:data explicit (paper §3.3 step 3).
    if (!param_type.is_empty_sequence() && param_type.item &&
        param_type.item->kind() == XType::Kind::kAtomic &&
        arg->static_type.item &&
        arg->static_type.item->kind() != XType::Kind::kAtomic &&
        arg->static_type.item->kind() != XType::Kind::kError) {
      xml::AtomicType at_type = xsd::AtomizedType(arg->static_type);
      SequenceType data_type{XType::Atomic(at_type),
                             arg->static_type.occurrence};
      ExprPtr data = xquery::MakeFunctionCall("fn:data", {arg}, arg->loc);
      data->static_type = data_type;
      arg = data;
    }
    const SequenceType& at = arg->static_type;
    if (xsd::IsSubtype(at, param_type)) return;
    if (!xsd::Intersects(at, param_type)) {
      ReportError(call, StatusCode::kTypeError,
                  "argument " + std::to_string(arg_index + 1) + " of " +
                      call->fn_name + " has type " + at.ToString() +
                      ", incompatible with " + param_type.ToString());
      return;
    }
    ExprPtr tm = xquery::MakeTypematch(arg, param_type, arg->loc);
    tm->static_type = param_type;
    arg = tm;
  }

  SequenceType InferBuiltinType(Builtin b, const Expr& e) {
    auto arg_type = [&](size_t i) -> SequenceType {
      return i < e.children.size() ? e.children[i]->static_type
                                   : xsd::AnySequence();
    };
    using AT = xml::AtomicType;
    switch (b) {
      case Builtin::kData: {
        SequenceType in = arg_type(0);
        return {XType::Atomic(xsd::AtomizedType(in)),
                in.is_empty_sequence() ? Occurrence::kOptional : in.occurrence};
      }
      case Builtin::kCount:
      case Builtin::kStringLength:
        return xsd::One(XType::Atomic(AT::kInteger));
      case Builtin::kSum:
        return xsd::One(XType::Atomic(xsd::AtomizedType(arg_type(0)) == AT::kUntyped
                                          ? AT::kDouble
                                          : xsd::AtomizedType(arg_type(0))));
      case Builtin::kAvg:
        return xsd::Opt(XType::Atomic(AT::kDouble));
      case Builtin::kMin:
      case Builtin::kMax:
        return xsd::Opt(XType::Atomic(xsd::AtomizedType(arg_type(0))));
      case Builtin::kExists:
      case Builtin::kEmpty:
      case Builtin::kNot:
      case Builtin::kBoolean:
      case Builtin::kDeepEqual:
      case Builtin::kContains:
      case Builtin::kStartsWith:
      case Builtin::kTrue:
      case Builtin::kFalse:
        return xsd::One(XType::Atomic(AT::kBoolean));
      case Builtin::kSubsequence: {
        SequenceType in = arg_type(0);
        if (in.is_empty_sequence()) return in;
        return xsd::Star(in.item);
      }
      case Builtin::kConcat:
      case Builtin::kString:
      case Builtin::kUpperCase:
      case Builtin::kLowerCase:
      case Builtin::kSubstring:
      case Builtin::kStringJoin:
        return xsd::One(XType::Atomic(AT::kString));
      case Builtin::kDistinctValues:
        return xsd::Star(XType::Atomic(xsd::AtomizedType(arg_type(0))));
      case Builtin::kNumber:
        return xsd::One(XType::Atomic(AT::kDouble));
      case Builtin::kAbs:
      case Builtin::kFloor:
      case Builtin::kCeiling:
      case Builtin::kRound: {
        AT t = xsd::AtomizedType(arg_type(0));
        return {XType::Atomic(xml::IsNumeric(t) ? t : AT::kDouble),
                arg_type(0).allows_empty() ? Occurrence::kOptional
                                           : Occurrence::kOne};
      }
      case Builtin::kAsync:
        return arg_type(0);
      case Builtin::kFailOver:
        return xsd::CommonSupertype(arg_type(0), arg_type(1));
      case Builtin::kTimeout:
        return xsd::CommonSupertype(arg_type(0), arg_type(2));
      case Builtin::kUnknown:
        break;
    }
    return xsd::AnySequence();
  }

  const FunctionTable* functions_;
  const xsd::SchemaRegistry* schemas_;
  DiagnosticBag* bag_;
  AnalyzeOptions options_;
  std::vector<VarBinding> env_;
  Status first_error_;
};

Status Analyzer::Analyze(ExprPtr& root, const std::vector<VarBinding>& env) {
  Impl impl(functions_, schemas_, bag_, options_);
  return impl.Run(root, env);
}

Status Analyzer::AnalyzeModule(const xquery::Module& module,
                               FunctionTable* out) {
  // Pass 1: register all signatures so functions can call each other.
  for (const auto& fn : module.functions) {
    UserFunction uf;
    uf.name = fn.name;
    uf.pragma_kind = fn.PragmaKind();
    for (const auto& pragma : fn.pragmas) {
      if (pragma.name == "hint") {
        for (const auto& [key, value] : pragma.attrs) uf.hints[key] = value;
      } else if (pragma.name == "function") {
        const std::string* primary = pragma.Find("isPrimary");
        if (primary != nullptr && *primary == "true") uf.is_primary = true;
      }
    }
    for (const auto& p : fn.params) {
      auto t = ResolveTypeRef(p.type, *schemas_);
      if (!t.ok()) {
        if (bag_ != nullptr) {
          bag_->AddError(StatusCode::kTypeError, t.status().message(), fn.loc,
                         fn.name);
        }
        if (!options_.recover) return t.status();
        uf.params.push_back({p.name, xsd::AnySequence()});
        uf.valid = false;
        continue;
      }
      uf.params.push_back({p.name, t.value()});
    }
    auto rt = ResolveTypeRef(fn.return_type, *schemas_);
    if (!rt.ok()) {
      if (bag_ != nullptr) {
        bag_->AddError(StatusCode::kTypeError, rt.status().message(), fn.loc,
                       fn.name);
      }
      if (!options_.recover) return rt.status();
      uf.return_type = xsd::AnySequence();
      uf.valid = false;
    } else {
      uf.return_type = rt.value();
    }
    uf.body = fn.external ? nullptr : CloneExpr(fn.body);
    ALDSP_RETURN_NOT_OK(out->RegisterUser(std::move(uf)));
  }
  // Pass 2: analyze bodies against the completed table.
  for (const auto& fn : module.functions) {
    if (fn.external) continue;
    UserFunction* uf = out->FindUserMutable(fn.name);
    if (uf == nullptr || uf->body == nullptr) continue;
    if (uf->body->kind == ExprKind::kError) {
      uf->valid = false;
      continue;
    }
    std::vector<VarBinding> env;
    for (const auto& p : uf->params) env.push_back({p.name, p.type});
    size_t errors_before = bag_ != nullptr ? bag_->error_count() : 0;
    Impl impl(out, schemas_, bag_, options_);
    Status st = impl.Run(uf->body, env);
    if (!st.ok()) {
      if (!options_.recover) return st;
      uf->valid = false;
      continue;
    }
    if (bag_ != nullptr && bag_->error_count() > errors_before) {
      uf->valid = false;
      if (!options_.recover) return bag_->FirstError();
    }
  }
  return Status::OK();
}

}  // namespace aldsp::compiler
