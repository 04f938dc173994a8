#include "view/view_set.h"

#include "common/check.h"

namespace avm {

namespace {

bool SameMapping(const DimMapping& a, const DimMapping& b) {
  if (a.num_left_dims() != b.num_left_dims()) return false;
  if (a.terms().size() != b.terms().size()) return false;
  for (size_t d = 0; d < a.terms().size(); ++d) {
    if (a.terms()[d].source_dim != b.terms()[d].source_dim ||
        a.terms()[d].offset != b.terms()[d].offset) {
      return false;
    }
  }
  return true;
}

}  // namespace

ViewSet::ViewSet(MaterializedView* view) {
  AVM_CHECK(view != nullptr);
  views_.push_back(view);
}

Status ViewSet::AddView(MaterializedView* view) {
  if (view == nullptr) return Status::InvalidArgument("null view");
  if (views_.size() >= kMaxViews) {
    return Status::InvalidArgument(
        "view set is full (acceptance masks carry at most 64 views)");
  }
  if (views_.empty()) {
    views_.push_back(view);
    return Status::OK();
  }
  const ViewDefinition& def = view->definition();
  const MaterializedView& head = *views_.front();
  const ViewDefinition& head_def = head.definition();
  if (view->left_base().id() != head.left_base().id()) {
    return Status::InvalidArgument(
        "view set members must share one left base array");
  }
  if (view->right_base().id() != head.right_base().id()) {
    return Status::InvalidArgument(
        "view set members must share one right base array");
  }
  if (!SameMapping(def.mapping, head_def.mapping)) {
    return Status::InvalidArgument(
        "view set members must share the join mapping");
  }
  if (def.group_dims != head_def.group_dims) {
    return Status::InvalidArgument(
        "view set members must share the group dimensions");
  }
  if (view->array().grid().extents() != head.array().grid().extents()) {
    return Status::InvalidArgument(
        "view set members must share the view chunk grid");
  }
  if (def.shape.num_dims() != head_def.shape.num_dims()) {
    return Status::InvalidArgument(
        "view set members must share the shape dimensionality");
  }
  for (const MaterializedView* existing : views_) {
    if (existing == view ||
        existing->definition().view_name == def.view_name) {
      return Status::InvalidArgument("view is already a set member");
    }
  }
  AVM_ASSIGN_OR_RETURN(Shape u, Shape::Union(union_shape(), def.shape));
  union_ = std::move(u);
  views_.push_back(view);
  return Status::OK();
}

std::vector<const Shape*> ViewSet::shapes() const {
  std::vector<const Shape*> out;
  out.reserve(views_.size());
  for (const MaterializedView* member : views_) {
    out.push_back(&member->definition().shape);
  }
  return out;
}

}  // namespace avm
