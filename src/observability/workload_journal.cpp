#include "observability/workload_journal.h"

#include <chrono>
#include <cstdlib>

namespace aldsp::observability {

int64_t WorkloadJournal::Append(const QueryCompletion& completion) {
  WorkloadJournalEntry entry;
  entry.statement_fingerprint = completion.statement_fingerprint;
  entry.plan_fingerprint = completion.fingerprint;
  entry.text = completion.text;
  entry.principal = completion.principal;
  entry.outcome = completion.outcome;
  entry.wall_micros = completion.wall_micros;
  entry.rows = completion.rows_returned;
  entry.peak_bytes = completion.peak_bytes;
  return ring_.Append(std::move(entry), [this](WorkloadJournalEntry& e) {
    const int64_t now =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    if (epoch_micros_ < 0) epoch_micros_ = now;
    e.offset_micros = now - epoch_micros_;
  });
}

void WorkloadJournal::Clear() {
  ring_.Clear([this] { epoch_micros_ = -1; });
}

namespace {

/// Minimal parser for the flat JSON objects the JSONL export holds: string,
/// integer and quoted-integer values only, no nesting. Returns false on
/// malformed input; unknown keys are skipped so the format can grow.
class FlatJsonParser {
 public:
  explicit FlatJsonParser(std::string_view line) : s_(line) {}

  bool ParseObject(WorkloadJournalEntry* out) {
    SkipWs();
    if (!Consume('{')) return false;
    SkipWs();
    if (Consume('}')) return true;
    while (true) {
      std::string key, sval;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (!Consume(':')) return false;
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == '"') {
        if (!ParseString(&sval)) return false;
        if (!Assign(*out, key, sval, /*quoted=*/true)) return false;
      } else {
        size_t start = pos_;
        while (pos_ < s_.size() && s_[pos_] != ',' && s_[pos_] != '}') ++pos_;
        sval = std::string(s_.substr(start, pos_ - start));
        if (!Assign(*out, key, sval, /*quoted=*/false)) return false;
      }
      SkipWs();
      if (Consume(',')) {
        SkipWs();
        continue;
      }
      return Consume('}');
    }
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      char esc = s_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          // The escaper only emits \u00XX for control characters, so a
          // one-byte reconstruction round-trips our own exports.
          out->push_back(static_cast<char>(code & 0xff));
          break;
        }
        default:
          return false;
      }
    }
    return false;  // unterminated
  }

  // False when the value cannot be the key's: an outcome naming no
  // status code.
  static bool Assign(WorkloadJournalEntry& e, const std::string& key,
                     const std::string& val, bool quoted) {
    auto as_i64 = [&]() { return std::strtoll(val.c_str(), nullptr, 10); };
    auto as_u64 = [&]() { return std::strtoull(val.c_str(), nullptr, 10); };
    if (key == "seq") e.seq = as_i64();
    else if (key == "offset_micros") e.offset_micros = as_i64();
    else if (key == "statement_fingerprint") e.statement_fingerprint = as_u64();
    else if (key == "plan_fingerprint") e.plan_fingerprint = as_u64();
    else if (key == "text" && quoted) e.text = val;
    else if (key == "principal" && quoted) e.principal = val;
    else if (key == "outcome" && quoted) return ParseOutcome(val, &e.outcome);
    else if (key == "wall_micros") e.wall_micros = as_i64();
    else if (key == "rows") e.rows = as_i64();
    else if (key == "peak_bytes") e.peak_bytes = as_i64();
    // Unknown keys: skipped.
    return true;
  }

  // Maps an exported outcome name back to its status code.
  static bool ParseOutcome(std::string_view name, Outcome* out) {
    for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
      const Outcome candidate(static_cast<StatusCode>(c));
      if (candidate == name) {
        *out = candidate;
        return true;
      }
    }
    return false;
  }

  std::string_view s_;
  size_t pos_ = 0;
};

}  // namespace

Result<std::vector<WorkloadJournalEntry>> WorkloadJournal::ParseJsonl(
    const std::string& jsonl) {
  std::vector<WorkloadJournalEntry> out;
  size_t line_no = 0;
  size_t start = 0;
  while (start < jsonl.size()) {
    size_t end = jsonl.find('\n', start);
    if (end == std::string::npos) end = jsonl.size();
    std::string_view line(jsonl.data() + start, end - start);
    start = end + 1;
    ++line_no;
    // Skip blank lines so a trailing newline or hand-edited file imports.
    bool blank = true;
    for (char c : line) {
      if (c != ' ' && c != '\t' && c != '\r') blank = false;
    }
    if (blank) continue;
    WorkloadJournalEntry entry;
    FlatJsonParser parser(line);
    if (!parser.ParseObject(&entry)) {
      return Status::InvalidArgument("workload journal import: malformed line " +
                                     std::to_string(line_no));
    }
    if (entry.text.empty()) {
      return Status::InvalidArgument(
          "workload journal import: line " + std::to_string(line_no) +
          " has no statement text");
    }
    out.push_back(std::move(entry));
  }
  return out;
}

SnapshotDoc WorkloadJournal::Doc(
    const std::vector<WorkloadJournalEntry>& entries, int64_t total_appended,
    size_t capacity) {
  using D = SnapshotDoc;
  D list = D::List();
  for (const WorkloadJournalEntry& e : entries) {
    list.Push(D::Object())
        .Add("seq", D::Int(e.seq))
        .Add("offset_micros", D::Int(e.offset_micros))
        .Add("statement_fingerprint", D::Fingerprint(e.statement_fingerprint))
        .Add("plan_fingerprint", D::Fingerprint(e.plan_fingerprint))
        .Add("text", D::String(e.text))
        .Add("principal", D::String(e.principal.name()))
        .Add("outcome", D::String(e.outcome.name()))
        .Add("wall_micros", D::Int(e.wall_micros))
        .Add("rows", D::Int(e.rows))
        .Add("peak_bytes", D::Int(e.peak_bytes));
  }
  return D::Object("workload journal")
      .Add("total_appended", D::Int(total_appended))
      .Add("capacity", D::Int(static_cast<int64_t>(capacity)))
      .Add("retained", D::Int(static_cast<int64_t>(entries.size())))
      .Add("entries", std::move(list));
}

}  // namespace aldsp::observability
