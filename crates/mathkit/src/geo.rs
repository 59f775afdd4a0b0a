//! WGS-84 geodesy: geodetic coordinates and local tangent-plane frames.
//!
//! Missions are authored in geodetic coordinates (like real U-space flight
//! plans) and simulated in a local **north-east-down** (NED) frame anchored at
//! a [`LocalFrame`] origin. For the small areas involved (the study zone is
//! 25 km²) a curvature-correct equirectangular projection is accurate to
//! centimetres, matching what PX4 itself uses for local position.

use crate::vec3::Vec3;

/// WGS-84 semi-major axis in meters.
pub const WGS84_A: f64 = 6_378_137.0;
/// WGS-84 first eccentricity squared.
pub const WGS84_E2: f64 = 6.694_379_990_141_316e-3;

/// A geodetic position: latitude/longitude in degrees, altitude in meters
/// above the ellipsoid.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GeoPoint {
    /// Latitude in degrees, positive north.
    pub lat_deg: f64,
    /// Longitude in degrees, positive east.
    pub lon_deg: f64,
    /// Altitude in meters (positive up).
    pub alt_m: f64,
}

impl GeoPoint {
    /// Creates a geodetic point.
    pub const fn new(lat_deg: f64, lon_deg: f64, alt_m: f64) -> Self {
        GeoPoint {
            lat_deg,
            lon_deg,
            alt_m,
        }
    }
}

/// A local NED tangent frame anchored at a geodetic origin.
///
/// # Example
///
/// ```
/// use imufit_math::{GeoPoint, LocalFrame};
///
/// let origin = GeoPoint::new(39.47, -0.38, 0.0); // Valencia
/// let frame = LocalFrame::new(origin);
/// let p = GeoPoint::new(39.471, -0.38, 10.0);
/// let ned = frame.to_ned(p);
/// assert!(ned.x > 100.0 && ned.x < 120.0); // ~111 m north
/// assert!((ned.z + 10.0).abs() < 1e-9);    // 10 m up = -10 m down
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalFrame {
    origin: GeoPoint,
    /// Meridional radius of curvature at the origin (meters per radian).
    r_north: f64,
    /// Prime-vertical radius of curvature scaled by cos(lat) (meters per
    /// radian of longitude).
    r_east: f64,
}

impl LocalFrame {
    /// Creates a local frame anchored at `origin`.
    ///
    /// # Panics
    ///
    /// Panics if the origin latitude is outside `[-90, 90]` degrees.
    pub fn new(origin: GeoPoint) -> Self {
        assert!(
            origin.lat_deg.abs() <= 90.0,
            "origin latitude out of range: {}",
            origin.lat_deg
        );
        let lat = origin.lat_deg.to_radians();
        let sin_lat = lat.sin();
        let denom = 1.0 - WGS84_E2 * sin_lat * sin_lat;
        let r_meridian = WGS84_A * (1.0 - WGS84_E2) / denom.powf(1.5);
        let r_prime_vertical = WGS84_A / denom.sqrt();
        LocalFrame {
            origin,
            r_north: r_meridian,
            r_east: r_prime_vertical * lat.cos(),
        }
    }

    /// The frame origin.
    pub fn origin(&self) -> GeoPoint {
        self.origin
    }

    /// Converts a geodetic point to local NED coordinates (meters).
    pub fn to_ned(&self, p: GeoPoint) -> Vec3 {
        let dlat = (p.lat_deg - self.origin.lat_deg).to_radians();
        let dlon = (p.lon_deg - self.origin.lon_deg).to_radians();
        Vec3::new(
            dlat * self.r_north,
            dlon * self.r_east,
            -(p.alt_m - self.origin.alt_m),
        )
    }

    /// Converts local NED coordinates (meters) back to a geodetic point.
    pub fn to_geo(&self, ned: Vec3) -> GeoPoint {
        GeoPoint {
            lat_deg: self.origin.lat_deg + (ned.x / self.r_north).to_degrees(),
            lon_deg: self.origin.lon_deg + (ned.y / self.r_east).to_degrees(),
            alt_m: self.origin.alt_m - ned.z,
        }
    }

    /// Great-circle-free straight-line distance between two geodetic points
    /// expressed through this frame (valid for small separations).
    pub fn distance(&self, a: GeoPoint, b: GeoPoint) -> f64 {
        self.to_ned(a).distance(self.to_ned(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VALENCIA: GeoPoint = GeoPoint::new(39.4699, -0.3763, 0.0);

    #[test]
    fn origin_maps_to_zero() {
        let f = LocalFrame::new(VALENCIA);
        assert!(f.to_ned(VALENCIA).norm() < 1e-12);
    }

    #[test]
    fn round_trip_within_study_area() {
        let f = LocalFrame::new(VALENCIA);
        // Corners of a 5 km x 5 km area at up to 60 ft altitude.
        for &(n, e, d) in &[
            (2500.0, 2500.0, -18.0),
            (-2500.0, 2500.0, -5.0),
            (2500.0, -2500.0, 0.0),
            (-2500.0, -2500.0, -18.0),
        ] {
            let ned = Vec3::new(n, e, d);
            let back = f.to_ned(f.to_geo(ned));
            assert!((back - ned).norm() < 1e-6, "{ned}");
        }
    }

    #[test]
    fn one_degree_latitude_is_about_111_km() {
        let f = LocalFrame::new(VALENCIA);
        let p = GeoPoint::new(VALENCIA.lat_deg + 1.0, VALENCIA.lon_deg, 0.0);
        let d = f.to_ned(p).x;
        assert!((d - 111_000.0).abs() < 500.0, "got {d}");
    }

    #[test]
    fn longitude_shrinks_with_latitude() {
        let at_equator = LocalFrame::new(GeoPoint::new(0.0, 0.0, 0.0));
        let at_60 = LocalFrame::new(GeoPoint::new(60.0, 0.0, 0.0));
        let p_eq = GeoPoint::new(0.0, 1.0, 0.0);
        let p_60 = GeoPoint::new(60.0, 1.0, 0.0);
        let d_eq = at_equator.to_ned(p_eq).y;
        let d_60 = at_60.to_ned(p_60).y;
        assert!(d_60 < 0.55 * d_eq, "cos(60) ~ 0.5: {d_60} vs {d_eq}");
    }

    #[test]
    fn altitude_is_negative_down() {
        let f = LocalFrame::new(VALENCIA);
        let up = GeoPoint::new(VALENCIA.lat_deg, VALENCIA.lon_deg, 18.0);
        assert!((f.to_ned(up).z + 18.0).abs() < 1e-12);
    }

    #[test]
    fn distance_helper() {
        let f = LocalFrame::new(VALENCIA);
        let a = f.to_geo(Vec3::new(0.0, 0.0, 0.0));
        let b = f.to_geo(Vec3::new(300.0, 400.0, 0.0));
        assert!((f.distance(a, b) - 500.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "latitude out of range")]
    fn bad_latitude_panics() {
        let _ = LocalFrame::new(GeoPoint::new(95.0, 0.0, 0.0));
    }
}
