#ifndef MOBIEYES_GEO_QUERY_REGION_H_
#define MOBIEYES_GEO_QUERY_REGION_H_

#include <algorithm>
#include <cmath>

#include "mobieyes/geo/circle.h"
#include "mobieyes/geo/point.h"
#include "mobieyes/geo/rect.h"

namespace mobieyes::geo {

// The spatial region of a moving query (paper §2.3): a closed shape with a
// cheap point-containment test, bound to the focal object through a binding
// point. Circles bind at their center; rectangles at their center point.
// The paper develops the protocol for circles "without loss of generality";
// this type carries the generalization through the whole stack.
struct QueryRegion {
  enum class Shape { kCircle, kRectangle };

  Shape shape = Shape::kCircle;
  Miles radius = 0.0;  // circle
  Miles half_w = 0.0;  // rectangle half extents
  Miles half_h = 0.0;

  static QueryRegion MakeCircle(Miles radius) {
    QueryRegion region;
    region.shape = Shape::kCircle;
    region.radius = radius;
    return region;
  }

  static QueryRegion MakeRectangle(Miles width, Miles height) {
    QueryRegion region;
    region.shape = Shape::kRectangle;
    region.half_w = width / 2.0;
    region.half_h = height / 2.0;
    return region;
  }

  bool valid() const {
    return shape == Shape::kCircle ? radius > 0.0
                                   : half_w > 0.0 && half_h > 0.0;
  }

  // Containment of p when the region is bound at `center`.
  bool Contains(const Point& center, const Point& p) const {
    if (shape == Shape::kCircle) {
      return Circle{center, radius}.Contains(p);
    }
    return std::abs(p.x - center.x) <= half_w &&
           std::abs(p.y - center.y) <= half_h;
  }

  // Per-axis reach from the binding point: how far the region extends in x
  // and in y. Drives the query bounding box / monitoring region (§2.3).
  Miles ReachX() const {
    return shape == Shape::kCircle ? radius : half_w;
  }
  Miles ReachY() const {
    return shape == Shape::kCircle ? radius : half_h;
  }

  // Circumscribing radius: no point of the region is further than this from
  // the binding point. Upper-bounds the safe-period distance (§4.2) and
  // orders groupable queries for short-circuit evaluation (§4.1).
  Miles MaxReach() const {
    return shape == Shape::kCircle ? radius : std::hypot(half_w, half_h);
  }

  // Square of the circumscribing radius, in the containment lanes' own
  // arithmetic (geo/batch_kernels.h): a point whose squared distance from
  // the binding point exceeds it is outside the region by the lanes' test
  // too, so a squared-distance early-out never disagrees with them.
  double MaxReachSquared() const {
    return shape == Shape::kCircle ? radius * radius
                                   : half_w * half_w + half_h * half_h;
  }

  friend bool operator==(const QueryRegion&, const QueryRegion&) = default;
};

}  // namespace mobieyes::geo

#endif  // MOBIEYES_GEO_QUERY_REGION_H_
