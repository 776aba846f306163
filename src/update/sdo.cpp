#include "update/sdo.h"

#include <cstdlib>

#include "common/string_util.h"

namespace aldsp::update {

using xml::AtomicValue;
using xml::NodePtr;
using xml::XNode;

Result<ObjectPath> ParseObjectPath(const std::string& path) {
  ObjectPath out;
  for (const std::string& raw : Split(path, '/')) {
    std::string seg = std::string(Trim(raw));
    if (seg.empty()) {
      return Status::InvalidArgument("empty path segment in: " + path);
    }
    PathSegment ps;
    size_t bracket = seg.find('[');
    if (bracket != std::string::npos) {
      if (seg.back() != ']') {
        return Status::InvalidArgument("malformed index in path: " + path);
      }
      ps.name = seg.substr(0, bracket);
      ps.index = std::atoi(seg.substr(bracket + 1,
                                      seg.size() - bracket - 2).c_str());
      ps.has_index = true;
      if (ps.index < 1) {
        return Status::InvalidArgument("path index must be >= 1: " + path);
      }
    } else {
      ps.name = seg;
    }
    out.push_back(std::move(ps));
  }
  if (out.empty()) return Status::InvalidArgument("empty path");
  return out;
}

std::string ObjectPathToString(const ObjectPath& path) {
  std::string out;
  for (size_t i = 0; i < path.size(); ++i) {
    if (i > 0) out += '/';
    out += path[i].name;
    if (path[i].has_index) {
      out += '[' + std::to_string(path[i].index) + ']';
    }
  }
  return out;
}

std::string StripIndexes(const ObjectPath& path) {
  std::string out;
  for (size_t i = 0; i < path.size(); ++i) {
    if (i > 0) out += '/';
    out += path[i].name;
  }
  return out;
}

Result<NodePtr> ResolvePath(const NodePtr& root, const ObjectPath& path) {
  NodePtr cur = root;
  for (const PathSegment& seg : path) {
    auto matches = cur->ChildrenNamed(seg.name);
    size_t idx = static_cast<size_t>(seg.index - 1);
    if (matches.empty() || idx >= matches.size()) {
      return Status::NotFound("no element at path segment " + seg.name +
                              (seg.has_index ? std::string("[")
                                                   .append(std::to_string(
                                                       seg.index))
                                                   .append("]")
                                             : std::string()) +
                              " under <" + cur->name() + ">");
    }
    cur = matches[idx];
  }
  return cur;
}

DataObject::DataObject(const NodePtr& root)
    : root_(root->Clone()), original_(root->Clone()) {}

Result<AtomicValue> DataObject::Get(const std::string& path) const {
  ALDSP_ASSIGN_OR_RETURN(ObjectPath p, ParseObjectPath(path));
  ALDSP_ASSIGN_OR_RETURN(NodePtr node, ResolvePath(root_, p));
  return node->TypedValue();
}

Status DataObject::Set(const std::string& path, AtomicValue value) {
  ALDSP_ASSIGN_OR_RETURN(ObjectPath p, ParseObjectPath(path));
  ALDSP_ASSIGN_OR_RETURN(NodePtr node, ResolvePath(root_, p));
  AtomicValue old = node->TypedValue();
  if (old == value) return Status::OK();
  node->SetChildren({XNode::Text(value)});
  ChangeEntry entry;
  entry.kind = ChangeEntry::Kind::kModify;
  entry.path = std::move(p);
  entry.old_value = std::move(old);
  entry.new_value = std::move(value);
  change_log_.push_back(std::move(entry));
  return Status::OK();
}

Status DataObject::DeleteElement(const std::string& path) {
  ALDSP_ASSIGN_OR_RETURN(ObjectPath p, ParseObjectPath(path));
  ALDSP_ASSIGN_OR_RETURN(NodePtr node, ResolvePath(root_, p));
  xml::XNode* parent = node->parent();
  if (parent == nullptr) {
    return Status::InvalidArgument("cannot delete the root element");
  }
  ChangeEntry entry;
  entry.kind = ChangeEntry::Kind::kDeleteRow;
  entry.path = std::move(p);
  entry.subtree = node->Clone();
  for (size_t i = 0; i < parent->children().size(); ++i) {
    if (parent->children()[i] == node) {
      parent->RemoveChildAt(i);
      break;
    }
  }
  change_log_.push_back(std::move(entry));
  return Status::OK();
}

Status DataObject::InsertElement(const std::string& parent_path,
                                 const NodePtr& element) {
  NodePtr parent = root_;
  ObjectPath prefix;
  if (!parent_path.empty()) {
    ALDSP_ASSIGN_OR_RETURN(prefix, ParseObjectPath(parent_path));
    ALDSP_ASSIGN_OR_RETURN(parent, ResolvePath(root_, prefix));
  }
  NodePtr copy = element->Clone();
  int position =
      static_cast<int>(parent->ChildrenNamed(copy->name()).size()) + 1;
  parent->AddChild(copy);
  ChangeEntry entry;
  entry.kind = ChangeEntry::Kind::kInsertRow;
  entry.path = prefix;
  PathSegment seg;
  seg.name = copy->name();
  seg.index = position;
  seg.has_index = true;
  entry.path.push_back(std::move(seg));
  entry.subtree = copy->Clone();
  change_log_.push_back(std::move(entry));
  return Status::OK();
}

}  // namespace aldsp::update
