#include "logstore/store.h"

#include <algorithm>

namespace gremlin::logstore {
namespace {

// Query with src/dst pre-resolved to symbols (a query whose names were never
// interned cannot match any record and short-circuits before this point).
bool record_matches(const LogRecord& r, const Query& q, Symbol src, Symbol dst,
                    const Glob& glob) {
  if (!q.src.empty() && r.src != src) return false;
  if (!q.dst.empty() && r.dst != dst) return false;
  if (!q.any_kind && r.kind != q.kind) return false;
  if (r.timestamp < q.min_time || r.timestamp > q.max_time) return false;
  if (!glob.match_all() && !glob.matches(r.request_id)) return false;
  return true;
}

void sort_by_time(RecordList* list) {
  std::stable_sort(list->begin(), list->end(),
                   [](const LogRecord& a, const LogRecord& b) {
                     return a.timestamp < b.timestamp;
                   });
}

}  // namespace

void LogStore::index_tail_locked(size_t first) {
  // Agent buffers arrive grouped: runs of records share an edge and flows
  // interleave over a handful of active IDs, so remembering the last bucket
  // hit turns most index updates into a pointer append instead of a tree
  // walk with string/pair comparisons. Span iteration keeps the walk inside
  // one slab at a time (no per-record slab resolution).
  std::pair<Symbol, Symbol> last_edge{Symbol(), Symbol()};
  std::vector<size_t>* edge_bucket = nullptr;
  const std::string* last_id = nullptr;
  std::vector<size_t>* id_bucket = nullptr;
  records_.spans(first, [&](const LogRecord* span, size_t count,
                            size_t first_pos) {
    for (size_t i = 0; i < count; ++i) {
      const LogRecord& r = span[i];
      const std::pair<Symbol, Symbol> edge{r.src, r.dst};
      if (edge_bucket == nullptr || edge != last_edge) {
        edge_bucket = &by_edge_[edge];
        last_edge = edge;
      }
      edge_bucket->push_back(first_pos + i);
      if (id_bucket == nullptr || r.request_id != *last_id) {
        id_bucket = &by_id_[r.request_id];
        last_id = &r.request_id;
      }
      id_bucket->push_back(first_pos + i);
    }
  });
}

void LogStore::append(const LogRecord& record) {
  std::lock_guard lock(mu_);
  records_.append_slot() = record;  // copy-assign: slot capacity reused
  index_tail_locked(records_.size() - 1);
}

void LogStore::append(LogRecord&& record) {
  std::lock_guard lock(mu_);
  records_.append_slot() = std::move(record);
  index_tail_locked(records_.size() - 1);
}

void LogStore::append_all(const RecordList& records) {
  std::lock_guard lock(mu_);
  const size_t first = records_.size();
  for (const LogRecord& r : records) records_.append_slot() = r;
  index_tail_locked(first);
}

void LogStore::append_all(RecordList&& records) {
  std::lock_guard lock(mu_);
  const size_t first = records_.size();
  for (LogRecord& r : records) records_.append_slot() = std::move(r);
  index_tail_locked(first);
}

void LogStore::clear() {
  std::lock_guard lock(mu_);
  records_.clear();  // size rewind; slabs and slot strings retained
  // Keep the index *nodes* and the position vectors' capacity: warm-world
  // runs replay the same bounded vocabulary of edges and request IDs
  // ("test-N"), so the next experiment re-fills these buckets without
  // re-allocating map nodes. An empty bucket yields zero candidates, which
  // is indistinguishable from an absent key for every query path.
  for (auto& [edge, positions] : by_edge_) positions.clear();
  for (auto& [id, positions] : by_id_) positions.clear();
}

size_t LogStore::size() const {
  std::lock_guard lock(mu_);
  return records_.size();
}

// Fills scratch_ with the positions of matching records, ordered by
// (timestamp, arrival). Returns a reference to scratch_ (valid under mu_).
const std::vector<size_t>& LogStore::collect_locked(const Query& q) const {
  scratch_.clear();
  const Glob glob(q.id_pattern.empty() ? "*" : q.id_pattern);

  // Resolve query names to symbols without interning; a name that was never
  // logged matches nothing. Shard-aware so a campaign worker's queries see
  // the ids its own records were written with.
  Symbol src, dst;
  if (!q.src.empty()) {
    const auto s = find_symbol(q.src);
    if (!s) return scratch_;
    src = *s;
  }
  if (!q.dst.empty()) {
    const auto s = find_symbol(q.dst);
    if (!s) return scratch_;
    dst = *s;
  }

  // Query planning: pick the most selective access path, then let
  // record_matches apply the remaining filters.
  //   1. exact request ID      -> by_id_ point lookup
  //   2. src & dst both fixed  -> by_edge_ point lookup
  //   3. literal-prefix glob   -> by_id_ ordered range scan
  //   4. anything else         -> full scan
  // Point lookups iterate the stored index span directly; only the range
  // scan needs to merge and re-sort candidate positions.
  bool positions_sorted = true;
  if (glob.is_literal()) {
    const auto it = by_id_.find(glob.pattern());
    if (it != by_id_.end()) {
      for (const size_t pos : it->second) {
        if (record_matches(records_[pos], q, src, dst, glob)) {
          scratch_.push_back(pos);
        }
      }
    }
  } else if (!q.src.empty() && !q.dst.empty()) {
    const auto it = by_edge_.find({src, dst});
    if (it != by_edge_.end()) {
      for (const size_t pos : it->second) {
        if (record_matches(records_[pos], q, src, dst, glob)) {
          scratch_.push_back(pos);
        }
      }
    }
  } else if (const auto prefix = glob.literal_prefix();
             prefix.has_value() && !prefix->empty()) {
    for (auto it = by_id_.lower_bound(*prefix);
         it != by_id_.end() &&
         std::string_view(it->first).substr(0, prefix->size()) == *prefix;
         ++it) {
      for (const size_t pos : it->second) {
        if (record_matches(records_[pos], q, src, dst, glob)) {
          scratch_.push_back(pos);
        }
      }
    }
    // Range scans visit IDs lexicographically; restore arrival order so the
    // time ordering below stays stable across access paths.
    positions_sorted = false;
  } else {
    for (size_t pos = 0; pos < records_.size(); ++pos) {
      if (record_matches(records_[pos], q, src, dst, glob)) {
        scratch_.push_back(pos);
      }
    }
  }
  if (!positions_sorted) std::sort(scratch_.begin(), scratch_.end());

  // Most access paths yield timestamps already nondecreasing (per-agent
  // buffers arrive time-ordered); detect that and skip the sort.
  bool time_sorted = true;
  for (size_t i = 1; i < scratch_.size(); ++i) {
    if (records_[scratch_[i]].timestamp < records_[scratch_[i - 1]].timestamp) {
      time_sorted = false;
      break;
    }
  }
  if (!time_sorted) {
    // (timestamp, position) is a total order, so plain sort is stable here.
    std::sort(scratch_.begin(), scratch_.end(),
              [this](size_t a, size_t b) {
                const TimePoint ta = records_[a].timestamp;
                const TimePoint tb = records_[b].timestamp;
                if (ta != tb) return ta < tb;
                return a < b;
              });
  }
  return scratch_;
}

size_t LogStore::for_each(const Query& q, const RecordVisitor& fn) const {
  std::lock_guard lock(mu_);
  return for_each_locked(q, fn);
}

size_t LogStore::for_each_locked(const Query& q,
                                 const RecordVisitor& fn) const {
  const std::vector<size_t>& positions = collect_locked(q);
  for (const size_t pos : positions) fn(records_[pos]);
  return positions.size();
}

RecordList LogStore::query(const Query& q) const {
  std::lock_guard lock(mu_);
  const std::vector<size_t>& positions = collect_locked(q);
  RecordList out;
  out.reserve(positions.size());
  for (const size_t pos : positions) out.push_back(records_[pos]);
  return out;
}

RecordList LogStore::get_requests(const std::string& src,
                                  const std::string& dst,
                                  const std::string& id_pattern) const {
  Query q;
  q.src = src;
  q.dst = dst;
  q.id_pattern = id_pattern;
  q.kind = MessageKind::kRequest;
  return query(q);
}

RecordList LogStore::get_replies(const std::string& src,
                                 const std::string& dst,
                                 const std::string& id_pattern) const {
  Query q;
  q.src = src;
  q.dst = dst;
  q.id_pattern = id_pattern;
  q.kind = MessageKind::kResponse;
  return query(q);
}

CallGraph LogStore::call_graph(const Query& q) const {
  std::lock_guard lock(mu_);
  const std::vector<size_t>& positions = collect_locked(q);

  // Group edges by request ID (symbol pairs while grouping — cheap integer
  // keys — stringified once per distinct edge at the end).
  std::map<std::string, std::set<std::pair<Symbol, Symbol>>, std::less<>>
      by_request;
  for (const size_t pos : positions) {
    const LogRecord& r = records_[pos];
    by_request[r.request_id].insert({r.src, r.dst});
  }

  CallGraph out;
  out.requests = by_request.size();
  std::set<CallGraph::EdgeSet> distinct;
  for (const auto& [id, edges] : by_request) {
    CallGraph::EdgeSet path;
    for (const auto& [src, dst] : edges) path.insert({src.str(), dst.str()});
    out.edges.insert(path.begin(), path.end());
    distinct.insert(std::move(path));
  }
  out.paths.assign(distinct.begin(), distinct.end());
  return out;
}

RecordList LogStore::all() const {
  std::lock_guard lock(mu_);
  RecordList out;
  out.reserve(records_.size());
  records_.spans(0, [&out](const LogRecord* span, size_t count, size_t) {
    out.insert(out.end(), span, span + count);
  });
  sort_by_time(&out);
  return out;
}

Json LogStore::to_json() const {
  std::lock_guard lock(mu_);
  Json arr = Json::array();
  records_.spans(0, [&arr](const LogRecord* span, size_t count, size_t) {
    for (size_t i = 0; i < count; ++i) arr.push_back(span[i].to_json());
  });
  return arr;
}

VoidResult LogStore::load_json(const Json& j) {
  if (!j.is_array()) return Error::parse("log dump must be an array");
  RecordList parsed;
  parsed.reserve(j.size());
  for (const Json& item : j.as_array()) {
    auto rec = LogRecord::from_json(item);
    if (!rec.ok()) return rec.error();
    parsed.push_back(std::move(rec.value()));
  }
  append_all(std::move(parsed));
  return VoidResult::success();
}

}  // namespace gremlin::logstore
