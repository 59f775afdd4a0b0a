//! Route polylines: the assigned trajectory a bubble is anchored to.

use imufit_math::Vec3;

/// The assigned route of a mission as a 3-D polyline (home → waypoints, all
/// at their assigned altitudes). Deviation from this polyline is what the
/// bubble violation check measures.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    points: Vec<Vec3>,
}

impl Route {
    /// Creates a route from an ordered list of points.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two points are given.
    pub fn new(points: Vec<Vec3>) -> Self {
        assert!(points.len() >= 2, "a route needs at least two points");
        Route { points }
    }

    /// The route points.
    pub fn points(&self) -> &[Vec3] {
        &self.points
    }

    /// The minimum distance from `p` to the polyline.
    pub fn distance_to(&self, p: Vec3) -> f64 {
        self.points
            .windows(2)
            .map(|seg| point_segment_distance(p, seg[0], seg[1]))
            .fold(f64::INFINITY, f64::min)
    }

    /// Total polyline length.
    pub fn length(&self) -> f64 {
        self.points
            .windows(2)
            .map(|seg| seg[1].distance(seg[0]))
            .sum()
    }
}

/// Distance from point `p` to segment `a`–`b`.
fn point_segment_distance(p: Vec3, a: Vec3, b: Vec3) -> f64 {
    let ab = b - a;
    let len2 = ab.norm_squared();
    if len2 < 1e-18 {
        return p.distance(a);
    }
    let t = ((p - a).dot(ab) / len2).clamp(0.0, 1.0);
    p.distance(a + ab * t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> Route {
        Route::new(vec![
            Vec3::ZERO,
            Vec3::new(10.0, 0.0, 0.0),
            Vec3::new(10.0, 10.0, 0.0),
        ])
    }

    #[test]
    fn on_route_distance_is_zero() {
        let r = simple();
        assert!(r.distance_to(Vec3::new(5.0, 0.0, 0.0)) < 1e-12);
        assert!(r.distance_to(Vec3::new(10.0, 5.0, 0.0)) < 1e-12);
    }

    #[test]
    fn perpendicular_offset() {
        let r = simple();
        assert!((r.distance_to(Vec3::new(5.0, 3.0, 0.0)) - 3.0).abs() < 1e-12);
        // Vertical offsets count too (3-D distance).
        assert!((r.distance_to(Vec3::new(5.0, 0.0, -4.0)) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn beyond_endpoints_measures_to_endpoint() {
        let r = simple();
        assert!((r.distance_to(Vec3::new(-3.0, 0.0, 0.0)) - 3.0).abs() < 1e-12);
        assert!((r.distance_to(Vec3::new(10.0, 14.0, 0.0)) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn corner_uses_nearest_segment() {
        let r = simple();
        // Point near the corner (10, 0): equidistant logic picks the min.
        let d = r.distance_to(Vec3::new(11.0, -1.0, 0.0));
        assert!((d - 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn length_sums_segments() {
        assert!((simple().length() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_segment_is_safe() {
        let r = Route::new(vec![Vec3::ZERO, Vec3::ZERO]);
        assert!((r.distance_to(Vec3::new(3.0, 4.0, 0.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn single_point_route_panics() {
        let _ = Route::new(vec![Vec3::ZERO]);
    }
}
