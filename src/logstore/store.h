// LogStore: the centralized event-log store the Assertion Checker queries.
//
// The paper ships agent logs through logstash into Elasticsearch and issues
// GetRequests/GetReplies as Elasticsearch queries (Section 6). We substitute
// an in-memory store with secondary indexes on (src,dst) and request ID,
// preserving the query semantics: filtered record lists sorted by time.
//
// Thread-safe: the real proxy appends from connection threads while the
// control plane queries concurrently.
//
// Storage is slab-backed: records live in store-owned fixed-size slabs that
// are retained across clear(), so a warm world's per-experiment reset is a
// size rewind (pointer bump) and steady-state appends reuse fully
// constructed LogRecord slots — including their request-ID string capacity
// — instead of reallocating a vector and its strings. Positions index into
// the slabs; bulk walks (indexing, full scans, serialization) iterate
// contiguous spans, one slab at a time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/glob.h"
#include "common/inline_function.h"
#include "logstore/record.h"

namespace gremlin::logstore {

using RecordList = std::vector<LogRecord>;

// Filter for queries. Empty string fields mean "any"; the id_pattern is a
// glob (Section 5 uses patterns like "test-*").
struct Query {
  std::string src;                      // logical caller name ("" = any)
  std::string dst;                      // logical callee name ("" = any)
  std::string id_pattern = "*";         // glob over request IDs
  MessageKind kind = MessageKind::kRequest;
  bool any_kind = false;                // true: ignore `kind`
  TimePoint min_time = TimePoint::min();
  TimePoint max_time = TimePoint::max();
};

// Visitor for the zero-copy query path. Invoked under the store lock, in
// (timestamp, arrival order); must not call back into the store.
using RecordVisitor = InlineFunction<void(const LogRecord&), 64>;

// The call graph a test run actually exercised, extracted from the agents'
// observation logs. Edges are logical (src, dst) service names; `paths` is
// the set of *distinct* per-request edge sets (two requests that traversed
// the same edges collapse into one signature). This is the evidence the
// fault-space pruner reasons over: a fault on an edge no request touched is
// a no-op, and two faults whose edges share no request path cannot
// interact (LDFI-style lineage pruning, docs/SEARCH.md).
struct CallGraph {
  using Edge = std::pair<std::string, std::string>;
  using EdgeSet = std::set<Edge>;

  EdgeSet edges;               // every observed (src, dst), lexicographic
  std::vector<EdgeSet> paths;  // distinct per-request signatures, sorted
  size_t requests = 0;         // distinct request IDs observed

  bool observed(const std::string& src, const std::string& dst) const {
    return edges.count({src, dst}) != 0;
  }
};

class LogStore {
 public:
  LogStore() = default;
  LogStore(const LogStore&) = delete;
  LogStore& operator=(const LogStore&) = delete;

  // The const& overload copy-assigns into a recycled slab slot, reusing the
  // slot's request-ID capacity (no string allocation once warm).
  void append(const LogRecord& record);
  void append(LogRecord&& record);
  void append_all(const RecordList& records);
  void append_all(RecordList&& records);

  // Removes all records (start of a new test run).
  void clear();

  size_t size() const;

  // Zero-copy query: visits matching records in (timestamp, arrival order)
  // without materializing a RecordList. Returns the number of records
  // visited. This is the assertion checker's hot path; `query` below is a
  // thin copying wrapper over it for external callers.
  size_t for_each(const Query& q, const RecordVisitor& fn) const;

  // Returns matching records sorted by (timestamp, arrival order).
  RecordList query(const Query& q) const;

  // Convenience wrappers mirroring Table 3's queries.
  RecordList get_requests(const std::string& src, const std::string& dst,
                          const std::string& id_pattern = "*") const;
  RecordList get_replies(const std::string& src, const std::string& dst,
                         const std::string& id_pattern = "*") const;

  // Snapshot of everything, time-sorted.
  RecordList all() const;

  // Extracts the observed call graph from the records matching `q` (default:
  // every request record). Deterministic: output ordering is lexicographic
  // on service names, never dependent on symbol-table interning order.
  CallGraph call_graph(const Query& q = {}) const;

  // Serialize the full store (for the proxy's /records endpoint).
  Json to_json() const;
  VoidResult load_json(const Json& j);

 private:
  // Slab-backed record storage. Slots are default-constructed once per slab
  // and then recycled by assignment: clear() rewinds the size but keeps
  // every slab and every slot's string capacity alive, so the next run's
  // appends are assignment-only. Records never move on growth (positions
  // and spans stay stable), unlike a reallocating vector.
  class RecordSlabs {
   public:
    size_t size() const { return size_; }
    LogRecord& operator[](size_t pos) {
      return slabs_[pos >> kSlabBits][pos & (kSlabSize - 1)];
    }
    const LogRecord& operator[](size_t pos) const {
      return slabs_[pos >> kSlabBits][pos & (kSlabSize - 1)];
    }

    // The next slot, ready to be assigned into (grows by one slab when
    // every retained slot is in use).
    LogRecord& append_slot() {
      if (size_ == slabs_.size() * kSlabSize) {
        slabs_.push_back(std::make_unique<LogRecord[]>(kSlabSize));
      }
      LogRecord& slot = (*this)[size_];
      ++size_;
      return slot;
    }

    // Reset = pointer bump: slabs and slot contents are retained for reuse.
    void clear() { size_ = 0; }

    // Visits records [first, size) as contiguous spans, one per slab:
    // fn(const LogRecord* span, size_t count, size_t first_pos).
    template <typename Fn>
    void spans(size_t first, Fn&& fn) const {
      size_t pos = first;
      while (pos < size_) {
        const size_t off = pos & (kSlabSize - 1);
        const size_t count = std::min(kSlabSize - off, size_ - pos);
        fn(&slabs_[pos >> kSlabBits][off], count, pos);
        pos += count;
      }
    }

   private:
    static constexpr size_t kSlabBits = 9;
    static constexpr size_t kSlabSize = size_t{1} << kSlabBits;

    std::vector<std::unique_ptr<LogRecord[]>> slabs_;
    size_t size_ = 0;
  };

  void index_tail_locked(size_t first);
  const std::vector<size_t>& collect_locked(const Query& q) const;
  size_t for_each_locked(const Query& q, const RecordVisitor& fn) const;

  mutable std::mutex mu_;
  RecordSlabs records_;                                // insertion order
  // Scratch buffer for candidate positions, reused across queries so the
  // indexed fast path allocates nothing once warm. Guarded by mu_.
  mutable std::vector<size_t> scratch_;
  // Secondary index: (src, dst) -> record positions, keyed by interned
  // symbols (id order, not lexicographic — lookups only). Keeps Fig. 7's
  // per-service assertion queries sublinear in total log volume.
  std::map<std::pair<Symbol, Symbol>, std::vector<size_t>> by_edge_;
  // Secondary index: request ID -> record positions. Answers exact-ID
  // lookups (request tracing) with a point query and literal-prefix
  // patterns ("test-*") with an ordered range scan — both without touching
  // records that belong to other flows.
  std::map<std::string, std::vector<size_t>, std::less<>> by_id_;
};

}  // namespace gremlin::logstore
