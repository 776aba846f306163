#include "runtime/physical/batch.h"

#include <utility>

#include "xml/node.h"

namespace aldsp::runtime::physical {

using xml::Item;
using xml::Sequence;
using xquery::Expr;
using xquery::ExprKind;

// ----- BatchColumn -------------------------------------------------------

void BatchColumn::Demote() {
  seqs.reserve(atoms.size() + 1);
  for (auto& a : atoms) {
    seqs.emplace_back(Sequence{Item(std::move(a))});
  }
  atoms.clear();
  layout = Layout::kSeq;
}

void BatchColumn::AppendItem(const Item& item) {
  if (item.is_atomic() && layout != Layout::kSeq) {
    layout = Layout::kAtomic;
    atoms.push_back(item.atomic());
    return;
  }
  if (layout != Layout::kSeq) Demote();
  seqs.push_back(Sequence{item});
}

void BatchColumn::AppendAtomic(xml::AtomicValue v) {
  if (layout != Layout::kSeq) {
    layout = Layout::kAtomic;
    atoms.push_back(std::move(v));
    return;
  }
  seqs.push_back(Sequence{Item(std::move(v))});
}

void BatchColumn::AppendSeq(Sequence value) {
  if (value.size() == 1 && value.front().is_atomic() &&
      layout != Layout::kSeq) {
    layout = Layout::kAtomic;
    atoms.push_back(value.front().atomic());
    return;
  }
  if (layout != Layout::kSeq) Demote();
  seqs.push_back(std::move(value));
}

// ----- TupleBatch --------------------------------------------------------

void TupleBatch::Clear() {
  bases_.clear();
  num_rows_ = 0;
  cols_.clear();
  sel_.clear();
  has_sel_ = false;
}

size_t TupleBatch::AddRow(Tuple base) {
  bases_.push_back(std::move(base));
  return num_rows_++;
}

BatchColumn* TupleBatch::AddColumn(std::string name) {
  cols_.emplace_back();
  cols_.back().name = std::move(name);
  return &cols_.back();
}

void TupleBatch::SetSelection(std::vector<uint32_t> sel) {
  sel_ = std::move(sel);
  has_sel_ = true;
}

void TupleBatch::Compact() {
  if (!has_sel_) return;
  std::vector<Tuple> bases;
  bases.reserve(sel_.size());
  for (uint32_t r : sel_) bases.push_back(std::move(bases_[r]));
  bases_ = std::move(bases);
  for (auto& col : cols_) {
    if (col.layout == BatchColumn::Layout::kAtomic) {
      std::vector<xml::AtomicValue> atoms;
      atoms.reserve(sel_.size());
      for (uint32_t r : sel_) atoms.push_back(std::move(col.atoms[r]));
      col.atoms = std::move(atoms);
    } else if (col.layout == BatchColumn::Layout::kSeq) {
      std::vector<Sequence> seqs;
      seqs.reserve(sel_.size());
      for (uint32_t r : sel_) seqs.push_back(std::move(col.seqs[r]));
      col.seqs = std::move(seqs);
    }
  }
  num_rows_ = sel_.size();
  sel_.clear();
  has_sel_ = false;
}

Tuple TupleBatch::MaterializeRow(size_t i) const {
  size_t r = PhysicalIndex(i);
  Tuple t = bases_[r];
  for (const auto& col : cols_) {
    t = t.Bind(col.name, col.Value(r));
  }
  return t;
}

void TupleBatch::ReleaseRow(size_t i) {
  size_t r = PhysicalIndex(i);
  bases_[r] = Tuple();
  for (auto& col : cols_) {
    if (col.layout == BatchColumn::Layout::kAtomic) {
      col.atoms[r] = xml::AtomicValue();
    } else if (col.layout == BatchColumn::Layout::kSeq) {
      Sequence().swap(col.seqs[r]);
    }
  }
}

const BatchColumn* TupleBatch::FindColumn(const std::string& name) const {
  for (auto it = cols_.rbegin(); it != cols_.rend(); ++it) {
    if (it->name == name) return &*it;
  }
  return nullptr;
}

const Sequence* TupleBatch::LookupRow(size_t i, const std::string& name,
                                      Sequence* scratch) const {
  size_t r = PhysicalIndex(i);
  for (auto it = cols_.rbegin(); it != cols_.rend(); ++it) {
    if (it->name != name) continue;
    if (it->layout == BatchColumn::Layout::kAtomic) {
      *scratch = Sequence{Item(it->atoms[r])};
      return scratch;
    }
    return &it->seqs[r];
  }
  return bases_[r].Lookup(name);
}

// ----- Expression kernel -------------------------------------------------

bool KernelSupports(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return true;
    case ExprKind::kVarRef:
      return true;
    case ExprKind::kPathStep:
      return e.children.size() == 1 && e.children[0] != nullptr &&
             KernelSupports(*e.children[0]);
    default:
      return false;
  }
}

namespace {

Status KernelEvalVarRef(const Expr& e, const TupleBatch& batch,
                        std::vector<Sequence>* out) {
  size_t n = batch.size();
  // Resolve the name once per batch: innermost column wins, else the
  // row base chains (a shared-base binding resolves per row but the
  // Lookup is a short linear scan over the chain head).
  const BatchColumn* col = batch.FindColumn(e.var_name);
  if (col != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      (*out)[i] = col->Value(batch.PhysicalIndex(i));
    }
    return Status::OK();
  }
  for (size_t i = 0; i < n; ++i) {
    const Sequence* v = batch.RowBase(i).Lookup(e.var_name);
    if (v == nullptr) {
      return Status::RuntimeError("unbound variable $" + e.var_name);
    }
    (*out)[i] = *v;
  }
  return Status::OK();
}

// Mirrors the interpreter's EvalPathStep exactly, including the error on
// atomic input; `atomize` mirrors its EvalAtomized.
Status ApplyPathStep(const Expr& e, const Sequence& in, bool atomize,
                     Sequence* out) {
  out->clear();
  for (const auto& item : in) {
    if (item.is_atomic()) {
      return Status::RuntimeError("path step '" + e.step_name +
                                  "' applied to an atomic value");
    }
    const xml::NodePtr& node = item.node();
    if (e.is_attribute_step) {
      xml::NodePtr attr = node->AttributeNamed(e.step_name);
      if (attr == nullptr) continue;
      if (atomize) {
        out->emplace_back(attr->TypedValue());
      } else {
        out->emplace_back(attr);
      }
    } else if (atomize) {
      xml::AppendChildData(*node, e.step_name, out);
    } else {
      // Walk the child list directly instead of ChildrenNamed: the batch
      // kernel runs this once per row, and the intermediate vector the
      // convenience accessor returns is pure allocation overhead here.
      // A leaf's one child is text, so it is skipped unbuilt.
      if (node->leaf()) continue;
      for (const auto& child : node->children()) {
        if (child->kind() == xml::NodeKind::kElement &&
            xml::NameMatches(child->name(), e.step_name)) {
          out->emplace_back(child);
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace

Status KernelEvalRows(const Expr& e, const TupleBatch& batch,
                      std::vector<Sequence>* out, bool atomize,
                      const xquery::SlotValues* slots) {
  size_t n = batch.size();
  out->resize(n);
  switch (e.kind) {
    case ExprKind::kLiteral: {
      Sequence v{Item(xquery::LiteralValue(e, slots))};
      for (size_t i = 0; i < n; ++i) (*out)[i] = v;
      return Status::OK();
    }
    case ExprKind::kVarRef: {
      ALDSP_RETURN_NOT_OK(KernelEvalVarRef(e, batch, out));
      if (atomize) {
        for (Sequence& v : *out) {
          for (const Item& item : v) {
            if (item.is_atomic()) continue;
            v = xml::Atomize(v);
            break;
          }
        }
      }
      return Status::OK();
    }
    case ExprKind::kPathStep: {
      const Expr& source = *e.children[0];
      if (source.kind == ExprKind::kVarRef) {
        // Fused step-over-variable, the dominant kernel shape: read the
        // stored sequence by pointer and write children straight into the
        // (capacity-reusing) output slot — no per-row copy of the source.
        const BatchColumn* col = batch.FindColumn(source.var_name);
        if (col != nullptr && col->atomic()) {
          if (n == 0) return Status::OK();
          return Status::RuntimeError("path step '" + e.step_name +
                                      "' applied to an atomic value");
        }
        for (size_t i = 0; i < n; ++i) {
          const Sequence* src;
          if (col != nullptr) {
            src = &col->seqs[batch.PhysicalIndex(i)];
          } else {
            src = batch.RowBase(i).Lookup(source.var_name);
            if (src == nullptr) {
              return Status::RuntimeError("unbound variable $" +
                                          source.var_name);
            }
          }
          ALDSP_RETURN_NOT_OK(ApplyPathStep(e, *src, atomize, &(*out)[i]));
        }
        return Status::OK();
      }
      ALDSP_RETURN_NOT_OK(KernelEvalRows(source, batch, out, false, slots));
      Sequence stepped;
      for (size_t i = 0; i < n; ++i) {
        ALDSP_RETURN_NOT_OK(ApplyPathStep(e, (*out)[i], atomize, &stepped));
        (*out)[i] = std::move(stepped);
        stepped.clear();
      }
      return Status::OK();
    }
    default:
      return Status::RuntimeError("expression shape not kernel-evaluable");
  }
}

}  // namespace aldsp::runtime::physical
