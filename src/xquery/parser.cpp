#include "xquery/parser.h"

#include <cctype>

#include "common/string_util.h"

namespace aldsp::xquery {

namespace {

bool IsNameStartChar(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
         c == '.';
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<Module> ParseModuleText(DiagnosticBag* bag, bool recover) {
    Module module;
    SkipWs();
    // Optional version declaration.
    if (MatchWord("xquery")) {
      if (!MatchWord("version")) return Fail("expected 'version'");
      ALDSP_ASSIGN_OR_RETURN(std::string version, ParseStringLiteral());
      module.version = version;
      if (MatchWord("encoding")) {
        ALDSP_ASSIGN_OR_RETURN(std::string enc, ParseStringLiteral());
        (void)enc;
      }
      if (!MatchSymbol(";")) return Fail("expected ';' after version");
    }
    // Prolog declarations and function declarations.
    while (true) {
      SkipWs();
      if (Eof()) break;
      size_t decl_start = pos_;
      Status st = ParseDeclaration(&module);
      if (!st.ok()) {
        if (!recover) return st;
        if (bag != nullptr) {
          bag->AddError(StatusCode::kParseError, st.message(), Location());
        }
        // Recovery (paper §4.1): skip to the end of the declaration — the
        // first ';' token outside strings/comments — and continue.
        pos_ = decl_start;
        SkipToSemicolon();
      }
    }
    if (!recover && bag != nullptr && bag->has_errors()) {
      return bag->FirstError();
    }
    return module;
  }

  Result<ExprPtr> ParseExpressionText() {
    ALDSP_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    SkipWs();
    if (!Eof()) return Fail("trailing input after expression");
    int next_slot = 0;
    NumberLiterals(e, &next_slot);
    return e;
  }

 private:
  // Numbers a query's literals in pre-order (clauses before the return
  // expression, operands left to right: the order they appear in the
  // text). Module bodies are not numbered.
  static void NumberLiterals(const ExprPtr& e, int* next_slot) {
    if (e->kind == ExprKind::kLiteral) {
      e->literal_slot = (*next_slot)++;
      return;
    }
    ForEachChildSlot(*e, [&](ExprPtr& c) { NumberLiterals(c, next_slot); });
  }

  // ----- Character-level helpers --------------------------------------

  bool Eof() const { return pos_ >= text_.size(); }
  char Peek() const { return Eof() ? '\0' : text_[pos_]; }
  char PeekAt(size_t off) const {
    return pos_ + off >= text_.size() ? '\0' : text_[pos_ + off];
  }
  void Advance() {
    if (Eof()) return;
    if (text_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }
  void AdvanceN(size_t n) {
    for (size_t i = 0; i < n; ++i) Advance();
  }

  SourceLocation Location() const { return {line_, col_}; }

  Status Fail(const std::string& message) const {
    return Status::ParseError(message + " at " + Location().ToString());
  }

  // Skips whitespace and comments. XQuery comments are "(: ... :)" and
  // nest; ALDSP pragmas "(:: ... ::)" are captured into pending_pragmas_.
  void SkipWs() {
    while (!Eof()) {
      char c = Peek();
      if (std::isspace(static_cast<unsigned char>(c))) {
        Advance();
        continue;
      }
      if (c == '(' && PeekAt(1) == ':') {
        if (PeekAt(2) == ':') {
          CapturePragma();
        } else {
          SkipComment();
        }
        continue;
      }
      break;
    }
  }

  void SkipComment() {
    // At "(:"; comments nest.
    AdvanceN(2);
    int depth = 1;
    while (!Eof() && depth > 0) {
      if (Peek() == '(' && PeekAt(1) == ':') {
        depth++;
        AdvanceN(2);
      } else if (Peek() == ':' && PeekAt(1) == ')') {
        depth--;
        AdvanceN(2);
      } else {
        Advance();
      }
    }
  }

  void CapturePragma() {
    // At "(::"; capture raw text until "::)" and parse loosely.
    AdvanceN(3);
    std::string raw;
    while (!Eof() && !(Peek() == ':' && PeekAt(1) == ':' && PeekAt(2) == ')')) {
      raw += Peek();
      Advance();
    }
    AdvanceN(3);
    Pragma pragma;
    size_t i = 0;
    auto skip = [&] {
      while (i < raw.size() && std::isspace(static_cast<unsigned char>(raw[i])))
        ++i;
    };
    auto word = [&]() {
      std::string w;
      while (i < raw.size() &&
             !std::isspace(static_cast<unsigned char>(raw[i])) &&
             raw[i] != '=') {
        w += raw[i++];
      }
      return w;
    };
    skip();
    pragma.name = word();
    if (pragma.name == "pragma") {
      // "(::pragma function kind=... ::)" — the marker word is "pragma",
      // the pragma name is the next word.
      skip();
      pragma.name = word();
    }
    while (true) {
      skip();
      if (i >= raw.size()) break;
      std::string key = word();
      skip();
      if (i < raw.size() && raw[i] == '=') {
        ++i;
        skip();
        std::string value;
        if (i < raw.size() && (raw[i] == '"' || raw[i] == '\'')) {
          char q = raw[i++];
          while (i < raw.size() && raw[i] != q) value += raw[i++];
          if (i < raw.size()) ++i;
        } else {
          value = word();
        }
        pragma.attrs.emplace_back(key, value);
      } else if (!key.empty()) {
        pragma.attrs.emplace_back("target", key);
      } else {
        break;
      }
    }
    pending_pragmas_.push_back(std::move(pragma));
  }

  void SkipToSemicolon() {
    // Used by recovery: consume until ';' at comment/string top level.
    while (!Eof()) {
      char c = Peek();
      if (c == ';') {
        Advance();
        return;
      }
      if (c == '(' && PeekAt(1) == ':') {
        if (PeekAt(2) == ':') {
          CapturePragma();
        } else {
          SkipComment();
        }
        continue;
      }
      if (c == '"' || c == '\'') {
        char q = c;
        Advance();
        while (!Eof() && Peek() != q) Advance();
        if (!Eof()) Advance();
        continue;
      }
      Advance();
    }
  }

  // Matches a keyword (word boundary applies).
  bool MatchWord(const std::string& word) {
    SkipWs();
    if (text_.compare(pos_, word.size(), word) != 0) return false;
    char after = PeekAt(word.size());
    if (IsNameChar(after) || after == ':') return false;
    AdvanceN(word.size());
    return true;
  }

  bool PeekWord(const std::string& word) {
    SkipWs();
    if (text_.compare(pos_, word.size(), word) != 0) return false;
    char after = PeekAt(word.size());
    return !(IsNameChar(after) || after == ':');
  }

  bool MatchSymbol(const std::string& sym) {
    SkipWs();
    if (text_.compare(pos_, sym.size(), sym) != 0) return false;
    AdvanceN(sym.size());
    return true;
  }

  bool PeekSymbol(const std::string& sym) {
    SkipWs();
    return text_.compare(pos_, sym.size(), sym) == 0;
  }

  Status Expect(const std::string& sym) {
    if (!MatchSymbol(sym)) return Fail("expected '" + sym + "'");
    return Status::OK();
  }

  Result<std::string> ParseNCName() {
    SkipWs();
    if (!IsNameStartChar(Peek())) return Fail("expected a name");
    std::string name;
    while (IsNameChar(Peek())) {
      name += Peek();
      Advance();
    }
    return name;
  }

  Result<std::string> ParseQName() {
    ALDSP_ASSIGN_OR_RETURN(std::string name, ParseNCName());
    if (Peek() == ':' && IsNameStartChar(PeekAt(1))) {
      Advance();
      ALDSP_ASSIGN_OR_RETURN(std::string local, ParseNCName());
      return name + ":" + local;
    }
    return name;
  }

  Result<std::string> ParseStringLiteral() {
    SkipWs();
    char q = Peek();
    if (q != '"' && q != '\'') return Fail("expected a string literal");
    Advance();
    std::string out;
    while (!Eof()) {
      char c = Peek();
      if (c == q) {
        if (PeekAt(1) == q) {  // doubled quote escape
          out += q;
          AdvanceN(2);
          continue;
        }
        Advance();
        return out;
      }
      out += c;
      Advance();
    }
    return Fail("unterminated string literal");
  }

  // ----- Types ---------------------------------------------------------

  Result<TypeRef> ParseTypeRef() {
    SkipWs();
    TypeRef t;
    if (MatchWord("empty-sequence")) {
      ALDSP_RETURN_NOT_OK(Expect("("));
      ALDSP_RETURN_NOT_OK(Expect(")"));
      t.kind = TypeRef::Kind::kEmpty;
      return t;
    }
    if (MatchWord("item")) {
      ALDSP_RETURN_NOT_OK(Expect("("));
      ALDSP_RETURN_NOT_OK(Expect(")"));
      t.kind = TypeRef::Kind::kAnyItem;
    } else if (MatchWord("node")) {
      ALDSP_RETURN_NOT_OK(Expect("("));
      ALDSP_RETURN_NOT_OK(Expect(")"));
      t.kind = TypeRef::Kind::kAnyNode;
    } else if (MatchWord("element")) {
      ALDSP_RETURN_NOT_OK(Expect("("));
      ALDSP_ASSIGN_OR_RETURN(t.name, ParseQName());
      if (MatchSymbol(",")) {
        ALDSP_ASSIGN_OR_RETURN(std::string content, ParseQName());
        (void)content;  // element(E, ANYTYPE) treated as element(E)
      }
      ALDSP_RETURN_NOT_OK(Expect(")"));
      t.kind = TypeRef::Kind::kElement;
    } else if (MatchWord("schema-element")) {
      ALDSP_RETURN_NOT_OK(Expect("("));
      ALDSP_ASSIGN_OR_RETURN(t.name, ParseQName());
      ALDSP_RETURN_NOT_OK(Expect(")"));
      t.kind = TypeRef::Kind::kSchemaElement;
    } else {
      ALDSP_ASSIGN_OR_RETURN(t.name, ParseQName());
      t.kind = TypeRef::Kind::kAtomic;
    }
    // Occurrence indicator.
    SkipWs();
    if (Peek() == '?') {
      Advance();
      t.occurrence = xsd::Occurrence::kOptional;
    } else if (Peek() == '*') {
      Advance();
      t.occurrence = xsd::Occurrence::kStar;
    } else if (Peek() == '+') {
      Advance();
      t.occurrence = xsd::Occurrence::kPlus;
    }
    return t;
  }

  // ----- Prolog --------------------------------------------------------

  Status ParseDeclaration(Module* module) {
    SkipWs();
    if (Eof()) return Status::OK();
    if (MatchWord("declare")) {
      if (MatchWord("namespace")) {
        NamespaceDecl ns;
        ALDSP_ASSIGN_OR_RETURN(ns.prefix, ParseNCName());
        ALDSP_RETURN_NOT_OK(Expect("="));
        ALDSP_ASSIGN_OR_RETURN(ns.uri, ParseStringLiteral());
        ALDSP_RETURN_NOT_OK(Expect(";"));
        module->namespaces.push_back(std::move(ns));
        return Status::OK();
      }
      if (MatchWord("function")) return ParseFunctionDecl(module);
      return Fail("unsupported declaration after 'declare'");
    }
    if (MatchWord("import")) {
      if (!MatchWord("schema")) return Fail("expected 'schema' after 'import'");
      NamespaceDecl ns;
      if (MatchWord("namespace")) {
        ALDSP_ASSIGN_OR_RETURN(ns.prefix, ParseNCName());
        ALDSP_RETURN_NOT_OK(Expect("="));
      }
      ALDSP_ASSIGN_OR_RETURN(ns.uri, ParseStringLiteral());
      if (MatchWord("at")) {
        ALDSP_ASSIGN_OR_RETURN(std::string loc, ParseStringLiteral());
        (void)loc;
      }
      ALDSP_RETURN_NOT_OK(Expect(";"));
      module->schema_imports.push_back(std::move(ns));
      return Status::OK();
    }
    return Fail("expected a declaration");
  }

  Status ParseFunctionDecl(Module* module) {
    FunctionDecl fn;
    fn.loc = Location();
    fn.pragmas = std::move(pending_pragmas_);
    pending_pragmas_.clear();
    ALDSP_ASSIGN_OR_RETURN(fn.name, ParseQName());
    ALDSP_RETURN_NOT_OK(Expect("("));
    if (!PeekSymbol(")")) {
      while (true) {
        Param p;
        ALDSP_RETURN_NOT_OK(Expect("$"));
        ALDSP_ASSIGN_OR_RETURN(p.name, ParseQName());
        if (MatchWord("as")) {
          ALDSP_ASSIGN_OR_RETURN(p.type, ParseTypeRef());
        } else {
          p.type.kind = TypeRef::Kind::kAnyItem;
          p.type.occurrence = xsd::Occurrence::kStar;
        }
        fn.params.push_back(std::move(p));
        if (!MatchSymbol(",")) break;
      }
    }
    ALDSP_RETURN_NOT_OK(Expect(")"));
    if (MatchWord("as")) {
      ALDSP_ASSIGN_OR_RETURN(fn.return_type, ParseTypeRef());
    } else {
      fn.return_type.kind = TypeRef::Kind::kAnyItem;
      fn.return_type.occurrence = xsd::Occurrence::kStar;
    }
    if (MatchWord("external")) {
      fn.external = true;
      ALDSP_RETURN_NOT_OK(Expect(";"));
      module->functions.push_back(std::move(fn));
      return Status::OK();
    }
    ALDSP_RETURN_NOT_OK(Expect("{"));
    // Body errors should not lose the signature (paper §4.1): keep the
    // declaration with an error body if parsing the body fails.
    auto body = ParseExpr();
    if (!body.ok()) {
      fn.body = MakeError(body.status().message(), {}, Location());
      module->functions.push_back(std::move(fn));
      return body.status();
    }
    fn.body = body.value();
    ALDSP_RETURN_NOT_OK(Expect("}"));
    ALDSP_RETURN_NOT_OK(Expect(";"));
    module->functions.push_back(std::move(fn));
    return Status::OK();
  }

  // ----- Expressions ---------------------------------------------------

  Result<ExprPtr> ParseExpr() {
    ALDSP_ASSIGN_OR_RETURN(ExprPtr first, ParseExprSingle());
    if (!PeekSymbol(",")) return first;
    std::vector<ExprPtr> parts = {first};
    while (MatchSymbol(",")) {
      ALDSP_ASSIGN_OR_RETURN(ExprPtr next, ParseExprSingle());
      parts.push_back(next);
    }
    return MakeSequence(std::move(parts), first->loc);
  }

  Result<ExprPtr> ParseExprSingle() {
    SkipWs();
    if (PeekWord("for") || PeekWord("let")) return ParseFLWOR();
    if (PeekWord("some") || PeekWord("every")) return ParseQuantified();
    if (PeekWord("if") && LookaheadIsIfParen()) return ParseIf();
    return ParseOrExpr();
  }

  bool LookaheadIsIfParen() {
    // Distinguish `if (cond) then ...` from a path starting with an
    // element named "if" (not supported anyway, but be safe).
    size_t save = pos_;
    int l = line_, c = col_;
    bool ok = MatchWord("if") && PeekSymbol("(");
    pos_ = save;
    line_ = l;
    col_ = c;
    return ok;
  }

  Result<ExprPtr> ParseFLWOR() {
    SourceLocation loc = Location();
    std::vector<Clause> clauses;
    while (true) {
      if (MatchWord("for")) {
        while (true) {
          Clause cl;
          cl.kind = Clause::Kind::kFor;
          ALDSP_RETURN_NOT_OK(Expect("$"));
          ALDSP_ASSIGN_OR_RETURN(cl.var, ParseQName());
          if (MatchWord("at")) {
            ALDSP_RETURN_NOT_OK(Expect("$"));
            ALDSP_ASSIGN_OR_RETURN(cl.positional_var, ParseQName());
          }
          if (!MatchWord("in")) return Fail("expected 'in' in for clause");
          ALDSP_ASSIGN_OR_RETURN(cl.expr, ParseExprSingle());
          clauses.push_back(std::move(cl));
          if (!MatchSymbol(",")) break;
        }
        continue;
      }
      if (MatchWord("let")) {
        while (true) {
          Clause cl;
          cl.kind = Clause::Kind::kLet;
          ALDSP_RETURN_NOT_OK(Expect("$"));
          ALDSP_ASSIGN_OR_RETURN(cl.var, ParseQName());
          ALDSP_RETURN_NOT_OK(Expect(":="));
          ALDSP_ASSIGN_OR_RETURN(cl.expr, ParseExprSingle());
          clauses.push_back(std::move(cl));
          if (!MatchSymbol(",")) break;
        }
        continue;
      }
      if (MatchWord("where")) {
        Clause cl;
        cl.kind = Clause::Kind::kWhere;
        ALDSP_ASSIGN_OR_RETURN(cl.expr, ParseExprSingle());
        clauses.push_back(std::move(cl));
        continue;
      }
      if (PeekWord("group")) {
        size_t save = pos_;
        int l = line_, c = col_;
        MatchWord("group");
        Clause cl;
        cl.kind = Clause::Kind::kGroupBy;
        // `group ($v1 as $v2 (, ...))? by key (as $v)? (, ...)*`
        if (PeekSymbol("$")) {
          while (true) {
            Clause::GroupVar gv;
            ALDSP_RETURN_NOT_OK(Expect("$"));
            ALDSP_ASSIGN_OR_RETURN(gv.in_var, ParseQName());
            if (!MatchWord("as")) return Fail("expected 'as' in group clause");
            ALDSP_RETURN_NOT_OK(Expect("$"));
            ALDSP_ASSIGN_OR_RETURN(gv.out_var, ParseQName());
            cl.group_vars.push_back(std::move(gv));
            if (!MatchSymbol(",")) break;
          }
        }
        if (!MatchWord("by")) {
          // Not a group clause after all (e.g. a path step named group —
          // unlikely); rewind and fall through to `return` handling.
          pos_ = save;
          line_ = l;
          col_ = c;
          break;
        }
        while (true) {
          Clause::GroupKey gk;
          ALDSP_ASSIGN_OR_RETURN(gk.expr, ParseExprSingle());
          if (MatchWord("as")) {
            ALDSP_RETURN_NOT_OK(Expect("$"));
            ALDSP_ASSIGN_OR_RETURN(gk.as_var, ParseQName());
          }
          cl.group_keys.push_back(std::move(gk));
          if (!MatchSymbol(",")) break;
        }
        clauses.push_back(std::move(cl));
        continue;
      }
      if (MatchWord("order")) {
        if (!MatchWord("by")) return Fail("expected 'by' after 'order'");
        Clause cl;
        cl.kind = Clause::Kind::kOrderBy;
        while (true) {
          Clause::OrderKey ok;
          ALDSP_ASSIGN_OR_RETURN(ok.expr, ParseExprSingle());
          if (MatchWord("descending")) {
            ok.descending = true;
          } else {
            MatchWord("ascending");
          }
          cl.order_keys.push_back(std::move(ok));
          if (!MatchSymbol(",")) break;
        }
        clauses.push_back(std::move(cl));
        continue;
      }
      break;
    }
    if (clauses.empty()) return Fail("expected a FLWOR clause");
    if (!MatchWord("return")) return Fail("expected 'return' in FLWOR");
    ALDSP_ASSIGN_OR_RETURN(ExprPtr ret, ParseExprSingle());
    return MakeFLWOR(std::move(clauses), std::move(ret), loc);
  }

  Result<ExprPtr> ParseQuantified() {
    SourceLocation loc = Location();
    bool is_every = false;
    if (MatchWord("some")) {
      is_every = false;
    } else if (MatchWord("every")) {
      is_every = true;
    } else {
      return Fail("expected 'some' or 'every'");
    }
    ALDSP_RETURN_NOT_OK(Expect("$"));
    ALDSP_ASSIGN_OR_RETURN(std::string var, ParseQName());
    if (!MatchWord("in")) return Fail("expected 'in' in quantified expr");
    ALDSP_ASSIGN_OR_RETURN(ExprPtr in, ParseExprSingle());
    // The paper's Table 2(h) example spells it "satisifes"; accept the
    // correct spelling only.
    if (!MatchWord("satisfies")) return Fail("expected 'satisfies'");
    ALDSP_ASSIGN_OR_RETURN(ExprPtr sat, ParseExprSingle());
    return MakeQuantified(is_every, std::move(var), std::move(in),
                          std::move(sat), loc);
  }

  Result<ExprPtr> ParseIf() {
    SourceLocation loc = Location();
    MatchWord("if");
    ALDSP_RETURN_NOT_OK(Expect("("));
    ALDSP_ASSIGN_OR_RETURN(ExprPtr cond, ParseExpr());
    ALDSP_RETURN_NOT_OK(Expect(")"));
    if (!MatchWord("then")) return Fail("expected 'then'");
    ALDSP_ASSIGN_OR_RETURN(ExprPtr then_e, ParseExprSingle());
    if (!MatchWord("else")) return Fail("expected 'else'");
    ALDSP_ASSIGN_OR_RETURN(ExprPtr else_e, ParseExprSingle());
    return MakeIf(std::move(cond), std::move(then_e), std::move(else_e), loc);
  }

  Result<ExprPtr> ParseOrExpr() {
    ALDSP_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAndExpr());
    while (MatchWord("or")) {
      ALDSP_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAndExpr());
      lhs = MakeLogical("or", std::move(lhs), std::move(rhs), lhs->loc);
    }
    return lhs;
  }

  Result<ExprPtr> ParseAndExpr() {
    ALDSP_ASSIGN_OR_RETURN(ExprPtr lhs, ParseComparisonExpr());
    while (MatchWord("and")) {
      ALDSP_ASSIGN_OR_RETURN(ExprPtr rhs, ParseComparisonExpr());
      lhs = MakeLogical("and", std::move(lhs), std::move(rhs), lhs->loc);
    }
    return lhs;
  }

  Result<ExprPtr> ParseComparisonExpr() {
    ALDSP_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditiveExpr());
    // Value comparisons.
    for (const char* op : {"eq", "ne", "lt", "le", "gt", "ge"}) {
      if (MatchWord(op)) {
        ALDSP_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditiveExpr());
        return MakeComparison(op, false, std::move(lhs), std::move(rhs),
                              lhs->loc);
      }
    }
    // General comparisons (multi-char first).
    for (const char* op : {"!=", "<=", ">=", "=", "<", ">"}) {
      // `<` could open a direct constructor only in primary position, so
      // here it is safe to treat as comparison.
      if (MatchSymbol(op)) {
        ALDSP_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditiveExpr());
        return MakeComparison(op, true, std::move(lhs), std::move(rhs),
                              lhs->loc);
      }
    }
    return lhs;
  }

  Result<ExprPtr> ParseAdditiveExpr() {
    ALDSP_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicativeExpr());
    while (true) {
      SkipWs();
      if (Peek() == '+') {
        Advance();
      } else if (Peek() == '-') {
        Advance();
        ALDSP_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicativeExpr());
        lhs = MakeArith("-", std::move(lhs), std::move(rhs), lhs->loc);
        continue;
      } else {
        break;
      }
      ALDSP_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicativeExpr());
      lhs = MakeArith("+", std::move(lhs), std::move(rhs), lhs->loc);
    }
    return lhs;
  }

  Result<ExprPtr> ParseMultiplicativeExpr() {
    ALDSP_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnaryExpr());
    while (true) {
      std::string op;
      if (MatchWord("div")) {
        op = "div";
      } else if (MatchWord("idiv")) {
        op = "idiv";
      } else if (MatchWord("mod")) {
        op = "mod";
      } else {
        SkipWs();
        if (Peek() == '*') {
          Advance();
          op = "*";
        } else {
          break;
        }
      }
      ALDSP_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnaryExpr());
      lhs = MakeArith(op, std::move(lhs), std::move(rhs), lhs->loc);
    }
    return lhs;
  }

  Result<ExprPtr> ParseUnaryExpr() {
    SkipWs();
    if (Peek() == '-' && !std::isdigit(static_cast<unsigned char>(PeekAt(1)))) {
      SourceLocation loc = Location();
      Advance();
      ALDSP_ASSIGN_OR_RETURN(ExprPtr arg, ParseUnaryExpr());
      return MakeArith("-", MakeLiteral(xml::AtomicValue::Integer(0), loc),
                       std::move(arg), loc);
    }
    return ParseCastExpr();
  }

  Result<ExprPtr> ParseCastExpr() {
    ALDSP_ASSIGN_OR_RETURN(ExprPtr input, ParsePathExpr());
    if (PeekWord("cast")) {
      MatchWord("cast");
      if (!MatchWord("as")) return Fail("expected 'as' after 'cast'");
      ALDSP_ASSIGN_OR_RETURN(TypeRef t, ParseTypeRef());
      return MakeCastAs(std::move(input), std::move(t), input->loc);
    }
    if (PeekWord("castable")) {
      MatchWord("castable");
      if (!MatchWord("as")) return Fail("expected 'as' after 'castable'");
      ALDSP_ASSIGN_OR_RETURN(TypeRef t, ParseTypeRef());
      return MakeCastable(std::move(input), std::move(t), input->loc);
    }
    if (PeekWord("instance")) {
      MatchWord("instance");
      if (!MatchWord("of")) return Fail("expected 'of' after 'instance'");
      ALDSP_ASSIGN_OR_RETURN(TypeRef t, ParseTypeRef());
      return MakeInstanceOf(std::move(input), std::move(t), input->loc);
    }
    return input;
  }

  Result<ExprPtr> ParsePathExpr() {
    ALDSP_ASSIGN_OR_RETURN(ExprPtr step, ParseStepExpr());
    while (true) {
      SkipWs();
      // '/' path separator — but not "//" (descendant; unsupported) and
      // not inside a constructor tail.
      if (Peek() == '/' && PeekAt(1) != '/' && PeekAt(1) != '>') {
        Advance();
        SkipWs();
        bool attribute = false;
        if (Peek() == '@') {
          Advance();
          attribute = true;
        }
        ALDSP_ASSIGN_OR_RETURN(std::string name, ParseQName());
        step = MakePathStep(std::move(step), std::move(name), attribute,
                            step->loc);
        // Predicates on the step.
        while (PeekSymbol("[")) {
          MatchSymbol("[");
          ALDSP_ASSIGN_OR_RETURN(ExprPtr pred, ParseExpr());
          ALDSP_RETURN_NOT_OK(Expect("]"));
          step = MakeFilter(std::move(step), std::move(pred), step->loc);
        }
        continue;
      }
      break;
    }
    return step;
  }

  Result<ExprPtr> ParseStepExpr() {
    ALDSP_ASSIGN_OR_RETURN(ExprPtr primary, ParsePrimaryExpr());
    while (PeekSymbol("[")) {
      MatchSymbol("[");
      ALDSP_ASSIGN_OR_RETURN(ExprPtr pred, ParseExpr());
      ALDSP_RETURN_NOT_OK(Expect("]"));
      primary = MakeFilter(std::move(primary), std::move(pred), primary->loc);
    }
    return primary;
  }

  Result<ExprPtr> ParsePrimaryExpr() {
    SkipWs();
    SourceLocation loc = Location();
    char c = Peek();
    if (c == '$') {
      Advance();
      ALDSP_ASSIGN_OR_RETURN(std::string name, ParseQName());
      return MakeVarRef(std::move(name), loc);
    }
    if (c == '"' || c == '\'') {
      ALDSP_ASSIGN_OR_RETURN(std::string s, ParseStringLiteral());
      return MakeLiteral(xml::AtomicValue::String(std::move(s)), loc);
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && std::isdigit(static_cast<unsigned char>(PeekAt(1)))) ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(PeekAt(1))))) {
      return ParseNumericLiteral();
    }
    if (c == '(') {
      Advance();
      SkipWs();
      if (Peek() == ')') {
        Advance();
        return MakeEmptySequence(loc);
      }
      ALDSP_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
      ALDSP_RETURN_NOT_OK(Expect(")"));
      return inner;
    }
    if (c == '<' && IsNameStartChar(PeekAt(1))) {
      return ParseDirectConstructor();
    }
    if (IsNameStartChar(c)) {
      ALDSP_ASSIGN_OR_RETURN(std::string name, ParseQName());
      SkipWs();
      if (Peek() == '(') {
        Advance();
        std::vector<ExprPtr> args;
        SkipWs();
        if (Peek() != ')') {
          while (true) {
            ALDSP_ASSIGN_OR_RETURN(ExprPtr arg, ParseExprSingle());
            args.push_back(std::move(arg));
            if (!MatchSymbol(",")) break;
          }
        }
        ALDSP_RETURN_NOT_OK(Expect(")"));
        return MakeFunctionCall(std::move(name), std::move(args), loc);
      }
      // A bare name in expression position is a child step on the context
      // item — our subset only supports this inside predicates, where the
      // context is the filtered item: CUSTOMER()[CID eq $id].
      return MakePathStep(MakeVarRef(".", loc), std::move(name), false, loc);
    }
    if (c == '@') {
      Advance();
      ALDSP_ASSIGN_OR_RETURN(std::string name, ParseQName());
      return MakePathStep(MakeVarRef(".", loc), std::move(name), true, loc);
    }
    if (c == '.') {
      Advance();
      return MakeVarRef(".", loc);
    }
    return Fail("unexpected character '" + std::string(1, c) +
                "' in expression");
  }

  Result<ExprPtr> ParseNumericLiteral() {
    SourceLocation loc = Location();
    std::string num;
    if (Peek() == '-') {
      num += '-';
      Advance();
    }
    bool is_decimal = false;
    bool is_double = false;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) {
      num += Peek();
      Advance();
    }
    if (Peek() == '.') {
      is_decimal = true;
      num += '.';
      Advance();
      while (std::isdigit(static_cast<unsigned char>(Peek()))) {
        num += Peek();
        Advance();
      }
    }
    if (Peek() == 'e' || Peek() == 'E') {
      is_double = true;
      num += 'e';
      Advance();
      if (Peek() == '+' || Peek() == '-') {
        num += Peek();
        Advance();
      }
      while (std::isdigit(static_cast<unsigned char>(Peek()))) {
        num += Peek();
        Advance();
      }
    }
    if (is_double) {
      return MakeLiteral(xml::AtomicValue::Double(std::stod(num)), loc);
    }
    if (is_decimal) {
      return MakeLiteral(xml::AtomicValue::Decimal(std::stod(num)), loc);
    }
    return MakeLiteral(xml::AtomicValue::Integer(std::stoll(num)), loc);
  }

  // ----- Direct constructors -------------------------------------------

  // Parses `<Name ...>` where Peek() == '<'. Supports the ALDSP `<Name?>`
  // conditional-construction extension on both elements and attributes.
  Result<ExprPtr> ParseDirectConstructor() {
    SourceLocation loc = Location();
    Advance();  // '<'
    ALDSP_ASSIGN_OR_RETURN(std::string name, ParseQName());
    bool conditional = false;
    std::vector<ExprPtr> content;
    // Attributes.
    while (true) {
      SkipRawWs();
      char c = Peek();
      if (c == '?' && (PeekAt(1) == '>' || std::isspace(static_cast<unsigned char>(PeekAt(1))))) {
        conditional = true;
        Advance();
        continue;
      }
      if (c == '/') {
        Advance();
        if (Peek() != '>') return Fail("expected '>' after '/'");
        Advance();
        return MakeElementCtor(std::move(name), std::move(content), conditional,
                               loc);
      }
      if (c == '>') {
        Advance();
        break;
      }
      if (!IsNameStartChar(c)) return Fail("expected attribute or '>' in tag");
      ALDSP_ASSIGN_OR_RETURN(std::string attr_name, ParseQName());
      bool attr_conditional = false;
      if (Peek() == '?') {
        attr_conditional = true;
        Advance();
      }
      SkipRawWs();
      if (Peek() != '=') return Fail("expected '=' after attribute name");
      Advance();
      SkipRawWs();
      char q = Peek();
      if (q != '"' && q != '\'') return Fail("expected quoted attribute value");
      Advance();
      ALDSP_ASSIGN_OR_RETURN(ExprPtr value, ParseAttrValueContent(q));
      content.insert(content.begin() + NumLeadingAttributes(content),
                     MakeAttributeCtor(attr_name, std::move(value),
                                       attr_conditional, loc));
    }
    // Element content until matching end tag.
    ALDSP_RETURN_NOT_OK(ParseElementContent(name, &content));
    return MakeElementCtor(std::move(name), std::move(content), conditional,
                           loc);
  }

  static size_t NumLeadingAttributes(const std::vector<ExprPtr>& content) {
    size_t n = 0;
    while (n < content.size() &&
           content[n]->kind == ExprKind::kAttributeCtor) {
      ++n;
    }
    return n;
  }

  // Whitespace inside tags (no comment handling).
  void SkipRawWs() {
    while (!Eof() && std::isspace(static_cast<unsigned char>(Peek()))) Advance();
  }

  Result<ExprPtr> ParseAttrValueContent(char quote) {
    // Mix of literal text and {expr}; multiple parts concatenate.
    std::vector<ExprPtr> parts;
    std::string text;
    SourceLocation loc = Location();
    auto flush = [&] {
      if (!text.empty()) {
        parts.push_back(MakeLiteral(xml::AtomicValue::String(text), loc));
        text.clear();
      }
    };
    while (true) {
      if (Eof()) return Fail("unterminated attribute value");
      char c = Peek();
      if (c == quote) {
        Advance();
        break;
      }
      if (c == '{') {
        if (PeekAt(1) == '{') {
          text += '{';
          AdvanceN(2);
          continue;
        }
        Advance();
        flush();
        ALDSP_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        ALDSP_RETURN_NOT_OK(Expect("}"));
        parts.push_back(std::move(e));
        continue;
      }
      if (c == '}' && PeekAt(1) == '}') {
        text += '}';
        AdvanceN(2);
        continue;
      }
      text += c;
      Advance();
    }
    flush();
    if (parts.empty()) {
      return MakeLiteral(xml::AtomicValue::String(""), loc);
    }
    if (parts.size() == 1) return parts[0];
    return MakeFunctionCall("fn:concat", std::move(parts), loc);
  }

  Status ParseElementContent(const std::string& name,
                             std::vector<ExprPtr>* content) {
    std::string text;
    SourceLocation loc = Location();
    auto flush = [&] {
      // Boundary whitespace between markup is stripped (data-centric
      // whitespace handling).
      std::string_view trimmed = Trim(text);
      if (!trimmed.empty()) {
        content->push_back(
            MakeLiteral(xml::AtomicValue::String(std::string(trimmed)), loc));
      }
      text.clear();
    };
    while (true) {
      if (Eof()) return Fail("unterminated element <" + name + ">");
      char c = Peek();
      if (c == '<') {
        if (PeekAt(1) == '/') {
          flush();
          AdvanceN(2);
          ALDSP_ASSIGN_OR_RETURN(std::string end_name, ParseQName());
          SkipRawWs();
          if (Peek() != '>') return Fail("expected '>' in end tag");
          Advance();
          if (end_name != name) {
            return Fail("mismatched end tag </" + end_name + "> for <" + name +
                        ">");
          }
          return Status::OK();
        }
        flush();
        ALDSP_ASSIGN_OR_RETURN(ExprPtr child, ParseDirectConstructor());
        content->push_back(std::move(child));
        continue;
      }
      if (c == '{') {
        if (PeekAt(1) == '{') {
          text += '{';
          AdvanceN(2);
          continue;
        }
        Advance();
        flush();
        ALDSP_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        ALDSP_RETURN_NOT_OK(Expect("}"));
        content->push_back(std::move(e));
        continue;
      }
      if (c == '}' && PeekAt(1) == '}') {
        text += '}';
        AdvanceN(2);
        continue;
      }
      text += c;
      Advance();
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
  std::vector<Pragma> pending_pragmas_;
};

}  // namespace

Result<Module> ParseModule(const std::string& text, DiagnosticBag* bag,
                           bool recover) {
  Parser parser(text);
  return parser.ParseModuleText(bag, recover);
}

Result<Module> ParseModule(const std::string& text) {
  DiagnosticBag bag;
  return ParseModule(text, &bag, /*recover=*/false);
}

Result<ExprPtr> ParseExpression(const std::string& text) {
  Parser parser(text);
  return parser.ParseExpressionText();
}

}  // namespace aldsp::xquery
