#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/result.h"
#include "shape/shape.h"
#include "view/materialized_view.h"

namespace avm {

/// A registry of K similarity-join views — distinct shapes, radii, and
/// aggregates — over ONE (left base, right base) pair, maintained together
/// by one ViewMaintainer: each delta chunk is scanned once and each (delta,
/// base-chunk) pair probed once with the *union* shape, with matches
/// demultiplexed into per-view fragment builders. A single view is the K=1
/// set; at K=1 the union is the member's own shape and every stage does
/// exactly the single-view work.
///
/// Membership contract (checked by AddView): every view joins the same left
/// and right base arrays under the same mapping, keyed on the same group
/// dimensions with the same view chunk grid. That makes one plan valid for
/// all K members — a (p, q) pair's view targets and the view_home
/// relocation map apply to every member's view array chunk-for-chunk —
/// while shapes and aggregate layouts stay free per view. At most kMaxViews
/// views fit one set (per-offset acceptance masks are one 64-bit word).
///
/// The set borrows the views; their owner (AqlSession or a test fixture)
/// keeps them alive for the set's lifetime. Not thread-safe: built and used
/// by the control thread.
class ViewSet {
 public:
  /// Per-offset acceptance masks are a single uint64_t.
  static constexpr size_t kMaxViews = 64;

  ViewSet() = default;
  /// The one-member set of `view` (non-null).
  explicit ViewSet(MaterializedView* view);

  /// Adds a view, validating compatibility with the current members.
  /// The first view added becomes the primary (the one plans are keyed on).
  Status AddView(MaterializedView* view);

  size_t size() const { return views_.size(); }
  bool empty() const { return views_.empty(); }

  MaterializedView* view(size_t k) const { return views_[k]; }
  const std::vector<MaterializedView*>& views() const { return views_; }

  /// The first member: supplies the base arrays, mapping, group dims, and
  /// view grid that every plan is expressed against.
  MaterializedView* primary() const { return views_.front(); }

  /// Every member's shape, in member order.
  std::vector<const Shape*> shapes() const;

  /// Union of every member's shape — the shape the shared pass probes with.
  /// At K=1 this is the primary's own shape (no copy), which is what makes
  /// single-view behavior reproduce bit-for-bit. Requires a non-empty set.
  const Shape& union_shape() const {
    return union_.has_value() ? *union_ : primary()->definition().shape;
  }

 private:
  std::vector<MaterializedView*> views_;
  /// The members' union, kept from the second member on.
  std::optional<Shape> union_;
};

}  // namespace avm
