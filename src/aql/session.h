#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "aql/parser.h"
#include "cluster/distributed_array.h"
#include "common/result.h"
#include "maintenance/maintainer.h"
#include "serve/epoch_manager.h"
#include "serve/snapshot_query.h"
#include "view/materialized_view.h"
#include "view/view_set.h"

namespace avm::aql {

/// A statement-level front end over the library: parse and execute the AQL
/// subset the paper writes its views in, against a bound catalog + cluster.
///
///   avm::aql::AqlSession session(&catalog, &cluster);
///   session.Execute("CREATE ARRAY A <r:int, s:int> [i=1,6,2; j=1,8,2]");
///   session.Execute(
///       "CREATE ARRAY VIEW V AS SELECT COUNT(*) AS cnt "
///       "FROM A A1 SIMILARITY JOIN A A2 ON (A1.i = A2.i) AND (A1.j = A2.j) "
///       "WITH SHAPE L1(1) GROUP BY A1.i, A1.j");
///   session.InsertCells("A", tonight);            // incremental maintenance
///
/// The session owns the arrays and views it creates. Identity self-join
/// views over one base array are grouped into one ViewSet maintained by a
/// shared delta pass (one scan, one probe per chunk pair, folded into all K
/// views); other views keep a ViewMaintainer of their own (a one-member
/// set). A view's operands must be base arrays: a view over a session view
/// is rejected with Unimplemented, since nothing would maintain it.
class AqlSession {
 public:
  /// `placement_factory` decides the static chunking strategy of every
  /// array/view the session creates (default: round-robin).
  AqlSession(Catalog* catalog, Cluster* cluster,
             std::function<std::unique_ptr<ChunkPlacement>()>
                 placement_factory = nullptr,
             MaintenanceMethod method = MaintenanceMethod::kReassign);

  /// Parses and executes one statement; returns a one-line human-readable
  /// summary of what happened.
  Result<std::string> Execute(std::string_view statement);

  /// Inserts a batch of cells into `array_name` and incrementally maintains
  /// every view defined over it, then publishes ONE epoch carrying every
  /// session view — maintained and untouched alike — so the whole view set
  /// becomes visible to readers atomically (a snapshot can never pair view
  /// A at epoch n+1 with view B at epoch n). Returns one report per
  /// maintenance pass: a view set's shared pass yields a single report
  /// covering all its members (see MaintenanceReport::per_view_breakdown);
  /// each individually maintained view yields its own.
  Result<std::vector<MaintenanceReport>> InsertCells(
      const std::string& array_name, const SparseArray& cells);

  /// Serving path. OpenSnapshot pins the current epoch (every view the
  /// session had published at that point) and is safe to call from any
  /// reader thread concurrently with Execute/InsertCells running on the
  /// session's control thread; Query evaluates a similarity-join/aggregate
  /// read purely against the snapshot's pinned handles — never against the
  /// epoch maintenance is rewriting in the stores.
  ReadSnapshot OpenSnapshot() const { return epochs_.OpenSnapshot(); }
  Result<SnapshotQueryResult> Query(const ReadSnapshot& snapshot,
                                    const SnapshotQuery& query) const {
    return EvaluateSnapshotQuery(snapshot, query);
  }
  /// Convenience: one-shot query against a freshly opened snapshot.
  Result<SnapshotQueryResult> Query(const SnapshotQuery& query) const {
    return EvaluateSnapshotQuery(OpenSnapshot(), query);
  }
  const EpochManager& epoch_manager() const { return epochs_; }

  /// Lookup of session-created objects (nullptr when absent).
  DistributedArray* GetArray(const std::string& name);
  MaterializedView* GetView(const std::string& name);

  size_t num_arrays() const { return arrays_.size(); }
  size_t num_views() const { return views_.size(); }

 private:
  struct ViewEntry {
    std::unique_ptr<MaterializedView> view;
    /// Maintainer of an individually maintained (two-array or non-identity)
    /// view; nullptr when the view belongs to its base's SetEntry.
    std::unique_ptr<ViewMaintainer> maintainer;
  };
  /// All identity self-join views over one base array, maintained together
  /// by the shared delta pass. Held by unique_ptr so the ViewSet address
  /// the maintainer points at stays stable across map rehashes.
  struct SetEntry {
    ViewSet set;
    std::unique_ptr<ViewMaintainer> maintainer;
  };

  Result<std::string> ExecuteCreateArray(const CreateArrayStatement& stmt);
  Result<std::string> ExecuteCreateView(const CreateViewStatement& stmt);

  /// Resolves a parsed shape expression against a base schema.
  Result<Shape> ResolveShape(const ShapeExpr& expr,
                             const ArraySchema& schema) const;

  /// Pins every session view and swaps them in as one epoch. Control thread
  /// only (reads catalog + stores); called at every view-set change point
  /// (view creation, batch commit).
  uint64_t PublishAllViews();

  Catalog* catalog_;
  Cluster* cluster_;
  std::function<std::unique_ptr<ChunkPlacement>()> placement_factory_;
  MaintenanceMethod method_;
  std::map<std::string, std::unique_ptr<DistributedArray>> arrays_;
  std::map<std::string, ViewEntry> views_;
  /// Keyed by base array name.
  std::map<std::string, std::unique_ptr<SetEntry>> sets_;
  EpochManager epochs_;
};

}  // namespace avm::aql

