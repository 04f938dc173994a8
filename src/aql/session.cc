#include "aql/session.h"

#include <sstream>
#include <utility>
#include <vector>

#include "storage/chunk_store.h"

namespace avm::aql {

AqlSession::AqlSession(
    Catalog* catalog, Cluster* cluster,
    std::function<std::unique_ptr<ChunkPlacement>()> placement_factory,
    MaintenanceMethod method)
    : catalog_(catalog),
      cluster_(cluster),
      placement_factory_(placement_factory != nullptr
                             ? std::move(placement_factory)
                             : [] { return MakeRoundRobinPlacement(); }),
      method_(method) {}

Result<std::string> AqlSession::Execute(std::string_view statement) {
  AVM_ASSIGN_OR_RETURN(Statement parsed, ParseStatement(statement));
  if (std::holds_alternative<CreateArrayStatement>(parsed)) {
    return ExecuteCreateArray(std::get<CreateArrayStatement>(parsed));
  }
  return ExecuteCreateView(std::get<CreateViewStatement>(parsed));
}

Result<std::string> AqlSession::ExecuteCreateArray(
    const CreateArrayStatement& stmt) {
  AVM_ASSIGN_OR_RETURN(ArraySchema schema,
                       ArraySchema::Create(stmt.name, stmt.dims, stmt.attrs));
  AVM_ASSIGN_OR_RETURN(
      DistributedArray array,
      DistributedArray::Create(std::move(schema), placement_factory_(),
                               catalog_, cluster_));
  arrays_.emplace(stmt.name,
                  std::make_unique<DistributedArray>(std::move(array)));
  std::ostringstream out;
  out << "created array " << stmt.name << " with " << stmt.dims.size()
      << " dimensions and " << stmt.attrs.size() << " attributes";
  return out.str();
}

Result<Shape> AqlSession::ResolveShape(const ShapeExpr& expr,
                                       const ArraySchema& schema) const {
  switch (expr.kind) {
    case ShapeExpr::Kind::kProduct: {
      AVM_ASSIGN_OR_RETURN(Shape lhs, ResolveShape(*expr.lhs, schema));
      AVM_ASSIGN_OR_RETURN(Shape rhs, ResolveShape(*expr.rhs, schema));
      return Shape::MinkowskiSum(lhs, rhs);
    }
    case ShapeExpr::Kind::kWindow: {
      AVM_ASSIGN_OR_RETURN(size_t dim,
                           schema.DimensionIndex(expr.window_dim));
      if (expr.window_lo > expr.window_hi) {
        return Status::InvalidArgument("window start exceeds window end");
      }
      return Shape::Window(schema.num_dims(), dim, expr.window_lo,
                           expr.window_hi);
    }
    case ShapeExpr::Kind::kBall: {
      std::vector<size_t> dims;
      for (const std::string& name : expr.dims) {
        AVM_ASSIGN_OR_RETURN(size_t dim, schema.DimensionIndex(name));
        dims.push_back(dim);
      }
      const size_t selected =
          dims.empty() ? schema.num_dims() : dims.size();
      const std::vector<double> weights(selected, 1.0);
      return Shape::WeightedBall(schema.num_dims(), expr.norm, expr.radius,
                                 weights, dims);
    }
  }
  return Status::Internal("bad shape expression");
}

Result<std::string> AqlSession::ExecuteCreateView(
    const CreateViewStatement& stmt) {
  // A view over a view would never be maintained: InsertCells maintains
  // only the views defined over the array it writes, so the upper view
  // would silently go stale while still being published.
  for (const std::string& operand : {stmt.left_array, stmt.right_array}) {
    if (views_.count(operand) > 0) {
      return Status::Unimplemented(
          "view '" + operand +
          "' cannot be an operand of another view: views over views are "
          "not maintained");
    }
  }
  AVM_ASSIGN_OR_RETURN(ArrayId left_id,
                       catalog_->ArrayIdByName(stmt.left_array));
  AVM_ASSIGN_OR_RETURN(ArrayId right_id,
                       catalog_->ArrayIdByName(stmt.right_array));
  const ArraySchema& left_schema = catalog_->SchemaOf(left_id);
  const ArraySchema& right_schema = catalog_->SchemaOf(right_id);

  // The ON clause must describe the identity mapping: each pair names the
  // same dimension on both sides, and together they cover a prefix
  // assignment right_dim <- left_dim.
  ViewDefinition def;
  def.view_name = stmt.name;
  def.left_array = stmt.left_array;
  def.right_array = stmt.right_array;
  if (stmt.on_pairs.empty()) {
    if (!left_schema.StructurallyEquals(right_schema) &&
        left_schema.num_dims() != right_schema.num_dims()) {
      return Status::InvalidArgument(
          "ON clause required when operand dimensionalities differ");
    }
    def.mapping = DimMapping::Identity(left_schema.num_dims());
  } else {
    std::vector<DimMapping::Term> terms(right_schema.num_dims());
    std::vector<bool> seen(right_schema.num_dims(), false);
    for (const auto& [left_name, right_name] : stmt.on_pairs) {
      AVM_ASSIGN_OR_RETURN(size_t left_dim,
                           left_schema.DimensionIndex(left_name));
      AVM_ASSIGN_OR_RETURN(size_t right_dim,
                           right_schema.DimensionIndex(right_name));
      if (seen[right_dim]) {
        return Status::InvalidArgument("dimension '" + right_name +
                                       "' constrained twice in ON clause");
      }
      seen[right_dim] = true;
      terms[right_dim] = DimMapping::Term{left_dim, 0};
    }
    for (size_t d = 0; d < seen.size(); ++d) {
      if (!seen[d]) {
        return Status::InvalidArgument(
            "ON clause must constrain every dimension of the right "
            "operand; missing '" +
            right_schema.dims()[d].name + "'");
      }
    }
    AVM_ASSIGN_OR_RETURN(
        def.mapping, DimMapping::Create(left_schema.num_dims(), terms));
  }

  AVM_ASSIGN_OR_RETURN(Shape shape, ResolveShape(*stmt.shape, right_schema));
  def.shape = std::move(shape);

  for (const AggExpr& agg : stmt.aggs) {
    AggregateSpec spec;
    spec.fn = agg.fn;
    spec.output_name = agg.alias;
    if (agg.fn != AggregateFunction::kCount) {
      AVM_ASSIGN_OR_RETURN(spec.attr_index,
                           right_schema.AttributeIndex(agg.attr));
    }
    def.aggregates.push_back(std::move(spec));
  }

  for (const std::string& dim : stmt.group_by) {
    AVM_ASSIGN_OR_RETURN(size_t index, left_schema.DimensionIndex(dim));
    def.group_dims.push_back(index);
  }

  // Several maintained views may share one base array only through a view
  // set's shared delta pass: each maintainer folds the delta into the base
  // when it finishes, so a second *independent* maintainer over the same
  // base would see the batch as already-applied overwrites. Identity
  // self-joins pool into their base's set; anything else keeps the
  // one-view-per-base rule.
  const bool poolable = def.IsSelfJoin() && def.mapping.IsIdentity();
  for (const auto& [name, entry] : views_) {
    const ViewDefinition& other = entry.view->definition();
    const bool overlaps = other.left_array == stmt.left_array ||
                          other.right_array == stmt.left_array ||
                          other.left_array == stmt.right_array ||
                          other.right_array == stmt.right_array;
    if (!overlaps) continue;
    if (!poolable || entry.maintainer != nullptr) {
      return Status::Unimplemented(
          "array '" + stmt.left_array + "' already backs view '" + name +
          "'; views share a base array only as identity self-joins pooled "
          "into one view set");
    }
  }

  AVM_ASSIGN_OR_RETURN(
      MaterializedView view,
      CreateMaterializedView(std::move(def), placement_factory_(), catalog_,
                             cluster_));
  ViewEntry entry;
  entry.view = std::make_unique<MaterializedView>(std::move(view));
  if (poolable) {
    auto& set_entry = sets_[stmt.left_array];
    if (set_entry == nullptr) set_entry = std::make_unique<SetEntry>();
    const Status added = set_entry->set.AddView(entry.view.get());
    if (!added.ok()) {
      // Undo the initial cook: the rejected view never becomes visible.
      const ArrayId vid = entry.view->array().id();
      for (NodeId n = 0; n < cluster_->num_workers(); ++n) {
        cluster_->store(n).EraseArray(vid);
      }
      cluster_->store(kCoordinatorNode).EraseArray(vid);
      catalog_->UnregisterArray(vid);
      if (set_entry->set.empty()) sets_.erase(stmt.left_array);
      return added;
    }
    if (set_entry->maintainer == nullptr) {
      set_entry->maintainer =
          std::make_unique<ViewMaintainer>(&set_entry->set, method_);
    }
  } else {
    entry.maintainer = std::make_unique<ViewMaintainer>(entry.view.get(),
                                                        method_);
  }
  const uint64_t cells = entry.view->array().NumCells();
  views_.emplace(stmt.name, std::move(entry));
  PublishAllViews();

  std::ostringstream out;
  out << "materialized view " << stmt.name << " over " << stmt.left_array
      << (stmt.left_array == stmt.right_array
              ? " (self-join)"
              : " and " + stmt.right_array)
      << " with " << cells << " cells";
  return out.str();
}

Result<std::vector<MaintenanceReport>> AqlSession::InsertCells(
    const std::string& array_name, const SparseArray& cells) {
  auto it = arrays_.find(array_name);
  if (it == arrays_.end()) {
    return Status::NotFound("array '" + array_name +
                            "' was not created by this session");
  }
  std::vector<MaintenanceReport> reports;
  bool maintained = false;
  // All pooled views over this base maintain through ONE shared delta pass.
  auto set_it = sets_.find(array_name);
  if (set_it != sets_.end()) {
    maintained = true;
    AVM_ASSIGN_OR_RETURN(MaintenanceReport report,
                         set_it->second->maintainer->ApplyBatch(cells));
    reports.push_back(report);
  }
  for (auto& [name, entry] : views_) {
    if (entry.maintainer == nullptr) continue;  // set-maintained above
    const ViewDefinition& def = entry.view->definition();
    if (def.left_array != array_name && def.right_array != array_name) {
      continue;
    }
    maintained = true;
    if (def.IsSelfJoin() || def.left_array == array_name) {
      AVM_ASSIGN_OR_RETURN(MaintenanceReport report,
                           entry.maintainer->ApplyBatch(cells));
      reports.push_back(report);
    } else {
      // Right-side-only delta of a two-array view.
      SparseArray empty_left(entry.view->left_base().schema());
      AVM_ASSIGN_OR_RETURN(MaintenanceReport report,
                           entry.maintainer->ApplyBatch(empty_left, &cells));
      reports.push_back(report);
    }
  }
  if (!maintained) {
    // No view over this array: plain ingest.
    AVM_RETURN_IF_ERROR(it->second->Ingest(cells));
    return reports;
  }
  // One publish for the whole statement, after every affected view's
  // maintenance: the new epoch re-pins untouched views too, so a snapshot
  // always sees a mutually consistent view set.
  const uint64_t epoch = PublishAllViews();
  for (MaintenanceReport& report : reports) report.published_epoch = epoch;
  return reports;
}

uint64_t AqlSession::PublishAllViews() {
  std::vector<ViewPin> pins;
  pins.reserve(views_.size());
  for (const auto& [name, entry] : views_) {
    pins.push_back(EpochManager::PinView(*entry.view));
  }
  return epochs_.Publish(std::move(pins));
}

DistributedArray* AqlSession::GetArray(const std::string& name) {
  auto it = arrays_.find(name);
  return it == arrays_.end() ? nullptr : it->second.get();
}

MaterializedView* AqlSession::GetView(const std::string& name) {
  auto it = views_.find(name);
  return it == views_.end() ? nullptr : it->second.view.get();
}

}  // namespace avm::aql
