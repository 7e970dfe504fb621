// CatalogSnapshot — one immutable, shared-ownership version of the
// processor's catalog: the doc relation in every storage layout, the
// relational database (columns + statistics + indexes), and the
// native engines with their pattern indexes.
//
// The processor publishes exactly one current snapshot behind a swap;
// catalog mutations (LoadDocument, index create/drop) build a NEW
// snapshot and swap it in, sharing what they do not change: index DDL
// shares the doc-relation columns/statistics and every untouched index;
// a document load shares the other URIs' parsed native-store documents,
// while the merged doc relation (whose pre ranks span all documents) and
// the relational database derive lazily from the retained sources.
// Prepare pins the snapshot it compiled against inside the
// PreparedQuery, and every ResultCursor executes against its prepared
// snapshot, so a catalog mutation never blocks, races, or invalidates an
// in-flight execution: old executions drain on the old snapshot while
// new sessions see the new catalog.
//
// Per-object epochs give the plan cache (and the Execute-time staleness
// check) per-document invalidation granularity: a prepared artifact stays
// servable while every catalog object it touches is unchanged, even if
// the snapshot it pins is no longer current.
#ifndef XQJG_API_CATALOG_H_
#define XQJG_API_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/engine/database.h"
#include "src/native/store.h"
#include "src/native/xscan.h"
#include "src/xml/infoset.h"

namespace xqjg::api {

/// Epoch recorded for a document a query touches that was not loaded when
/// the query was prepared (loading it later is a visible change).
inline constexpr uint64_t kDocAbsent = ~uint64_t{0};

struct CatalogSnapshot {
  /// Monotonic catalog version; every mutation publishes generation + 1.
  uint64_t generation = 0;

  /// Per-document epoch, keyed by URI. 0 on first load; a reload of the
  /// same URI bumps it. Loading a NEW document leaves other URIs' epochs
  /// untouched — that is the invalidation granularity.
  std::map<std::string, uint64_t> doc_epochs;
  /// Bumped by relational index DDL (create/drop) only. Document loads
  /// reset the relational index set (historical contract) without bumping
  /// this: plans pinned to older snapshots keep their own indexes.
  uint64_t index_epoch = 0;
  /// Bumped by native XMLPATTERN index declarations.
  uint64_t pattern_epoch = 0;

  /// Definitions of the relational index set, keyed by index name
  /// (value: IndexDef::ToString()). Maintained by index DDL alongside
  /// index_epoch; a document load resets the index set (historical
  /// contract) and leaves this empty without bumping the epoch. The plan
  /// cache intersects a plan's *used* indexes against this map so that
  /// unrelated index DDL does not evict it (see ServableAgainst).
  std::map<std::string, std::string> index_defs;

  /// Source documents in load order (uri + shared XML text). What the
  /// lazy doc-relation build parses; text is shared across snapshots, so
  /// carrying it costs one shared_ptr per document per snapshot.
  struct DocSource {
    std::string uri;
    std::shared_ptr<const std::string> xml;
  };
  std::shared_ptr<const std::vector<DocSource>> sources =
      std::make_shared<std::vector<DocSource>>();

  /// Lazily built derived state. Loading N documents creates N snapshots
  /// but pays neither the merged pre/size/level table nor relational
  /// column/stats construction per load — the doc relation materializes
  /// once, on first relational (or serialization) use, and native-only
  /// workloads never build it at all. Each slot is a separate shared
  /// object so snapshot copies that do NOT change the underlying state
  /// (e.g. pattern-index DDL) share one build, while mutations that do
  /// change it install a fresh slot. Read through the accessors below,
  /// never the slots directly.
  struct TableSlot {
    std::mutex mu;
    std::shared_ptr<const xml::DocTable> table;
  };
  struct DatabaseSlot {
    std::mutex mu;
    std::shared_ptr<const engine::Database> db;
  };
  std::shared_ptr<TableSlot> doc_slot = std::make_shared<TableSlot>();
  std::shared_ptr<DatabaseSlot> db_slot = std::make_shared<DatabaseSlot>();

  /// Get-or-build the doc relation (every caller sees one instance).
  /// Thread-safe; sources were validated when loaded, so the build
  /// cannot fail on retained input.
  std::shared_ptr<const xml::DocTable> doc_table() const;

  /// Get-or-build the relational database over doc_table(). Thread-safe;
  /// every caller sees the same instance (plans compiled over it hold
  /// pointers into its indexes).
  std::shared_ptr<const engine::Database> relational_db() const;

  /// Approximate heap bytes of doc-relation STORAGE retained by this
  /// snapshot across every lane: the shared column block (payloads +
  /// dictionaries, each distinct ValueColumn/StringDict charged once, by
  /// pointer — the relational database and the columnar batches view the
  /// same objects) plus the native stores' materialized DOM trees.
  /// Excludes retained source text (the load input, not a storage copy),
  /// column statistics, and indexes. Never forces a lazy build: state
  /// that was not materialized costs nothing.
  int64_t RetainedStorageBytes() const;

  /// Native storage layouts.
  std::shared_ptr<const native::DocumentStore> whole_store;
  std::shared_ptr<const native::DocumentStore> segmented_store;
  /// Native engines over the two stores (null until a document is loaded).
  std::shared_ptr<const native::NativeEngine> whole_engine;
  std::shared_ptr<const native::NativeEngine> segmented_engine;

  /// Current epoch of `uri`, or kDocAbsent when not loaded.
  uint64_t DocEpoch(const std::string& uri) const {
    auto it = doc_epochs.find(uri);
    return it == doc_epochs.end() ? kDocAbsent : it->second;
  }
};

}  // namespace xqjg::api

#endif  // XQJG_API_CATALOG_H_
