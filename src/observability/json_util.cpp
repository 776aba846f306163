#include "observability/json_util.h"

#include <cstdio>

namespace aldsp::observability {

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

SnapshotDoc& SnapshotDoc::Add(std::string name, SnapshotDoc value) & {
  names_.push_back(std::move(name));
  values_.push_back(std::move(value));
  return *this;
}

SnapshotDoc& SnapshotDoc::Push(SnapshotDoc value) {
  return Add("", std::move(value)).values_.back();
}

const SnapshotDoc& SnapshotDoc::Member(std::string_view name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return values_[i];
  }
  static const SnapshotDoc kEmpty = List();
  return kEmpty;
}

void AppendJson(std::string* out, const SnapshotDoc& d) {
  using Kind = SnapshotDoc::Kind;
  switch (d.kind_) {
    case Kind::kInt:
      *out += std::to_string(d.int_);
      return;
    case Kind::kQuoted:
      out->push_back('"');
      *out += d.text_;
      out->push_back('"');
      return;
    case Kind::kReal: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.*f", static_cast<int>(d.int_),
                    d.real_);
      *out += buf;
      return;
    }
    case Kind::kBool:
      *out += d.int_ != 0 ? "true" : "false";
      return;
    case Kind::kString:
      AppendJsonString(out, d.text_);
      return;
    case Kind::kRawJson:
      *out += d.text_.empty() ? "null" : d.text_;
      return;
    case Kind::kObject:
    case Kind::kKeyed:
    case Kind::kList: {
      const bool list = d.kind_ == Kind::kList;
      out->push_back(list ? '[' : '{');
      for (size_t i = 0; i < d.values_.size(); ++i) {
        if (i != 0) out->push_back(',');
        if (!list) {
          AppendJsonString(out, d.names_[i]);
          out->push_back(':');
        }
        AppendJson(out, d.values_[i]);
      }
      out->push_back(list ? ']' : '}');
      return;
    }
  }
}

std::string RenderJson(const SnapshotDoc& doc) {
  std::string out;
  AppendJson(&out, doc);
  return out;
}

std::string RenderJsonLines(const SnapshotDoc& list) {
  std::string out;
  for (size_t i = 0; i < list.size(); ++i) {
    AppendJson(&out, list.value(i));
    out.push_back('\n');
  }
  return out;
}

namespace {

using Kind = SnapshotDoc::Kind;

bool IsBlock(const SnapshotDoc& v) {
  return (v.kind() == Kind::kString || v.kind() == Kind::kRawJson) &&
         v.text().find('\n') != std::string::npos;
}

/// One text line under construction: the `name=value` pairs of a node's
/// scalars, the multi-line values that print as blocks under it, and the
/// lists and keyed objects whose entries print as lines below those.
struct TextLine {
  std::string line;
  std::vector<std::pair<std::string, const SnapshotDoc*>> blocks;
  std::vector<const SnapshotDoc*> children;

  void AddScalar(const std::string& name, const SnapshotDoc& v) {
    if (IsBlock(v)) {
      blocks.emplace_back(name, &v);
      return;
    }
    if (!line.empty()) line.push_back(' ');
    if (!name.empty()) line += name + "=";
    AppendJson(&line, v);
  }

  void AddFields(const SnapshotDoc& object, const std::string& prefix) {
    for (size_t i = 0; i < object.size(); ++i) {
      const SnapshotDoc& v = object.value(i);
      const std::string name = prefix + object.name(i);
      if (v.kind() == Kind::kObject) {
        AddFields(v, name + ".");
      } else if (v.is_container()) {
        children.push_back(&v);
      } else {
        AddScalar(name, v);
      }
    }
  }
};

void AppendText(std::string head, const SnapshotDoc& node, int depth,
                std::string* out) {
  const std::string indent(2 * static_cast<size_t>(depth + 1), ' ');
  TextLine t;
  t.line = std::move(head);
  if (node.kind() == Kind::kObject) {
    t.AddFields(node, "");
  } else if (node.is_container()) {
    t.children.push_back(&node);
  } else {
    t.AddScalar("", node);
  }
  *out += t.line + "\n";
  for (const auto& [name, v] : t.blocks) {
    if (!name.empty()) *out += indent + name + ":\n";
    const std::string& s = v->text();
    size_t start = 0;
    while (start < s.size()) {
      size_t end = s.find('\n', start);
      if (end == std::string::npos) end = s.size();
      *out += indent;
      *out += "  ";
      out->append(s, start, end - start);
      out->push_back('\n');
      start = end + 1;
    }
  }
  for (const SnapshotDoc* c : t.children) {
    for (size_t i = 0; i < c->size(); ++i) {
      std::string head = indent;
      if (c->kind() == Kind::kList) {
        head += '[';
        head += std::to_string(i);
        head += ']';
      } else {
        head += c->name(i);
      }
      AppendText(std::move(head), c->value(i), depth + 1, out);
    }
  }
}

}  // namespace

std::string RenderText(const SnapshotDoc& doc) {
  std::string out;
  AppendText(doc.is_container() ? doc.text() : "", doc, 0, &out);
  return out;
}

}  // namespace aldsp::observability
