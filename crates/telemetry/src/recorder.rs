//! The in-memory track recorder: one [`TrackPoint`] per tracking interval.
//! Flight transitions live in the black box (`imufit-trace`), not here.

use imufit_math::Vec3;

/// One recorded sample of a flight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackPoint {
    /// Flight time, seconds.
    pub time: f64,
    /// Ground-truth NED position, meters.
    pub true_position: Vec3,
    /// EKF-estimated NED position, meters.
    pub est_position: Vec3,
    /// Ground-truth NED velocity, m/s.
    pub true_velocity: Vec3,
    /// Airspeed (here: ground-truth speed magnitude), m/s — the bubble
    /// formulas' `S_a` input.
    pub airspeed: f64,
    /// True if a fault window was active at this instant.
    pub fault_active: bool,
    /// True if failsafe had latched by this instant.
    pub failsafe: bool,
}

/// Records [`TrackPoint`]s at a fixed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecorder {
    interval: f64,
    next_time: f64,
    points: Vec<TrackPoint>,
}

impl FlightRecorder {
    /// Creates a recorder sampling every `interval` seconds (the paper's
    /// tracking cadence is 1 Hz).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is not positive.
    pub fn new(interval: f64) -> Self {
        assert!(interval > 0.0, "interval must be positive");
        FlightRecorder {
            interval,
            next_time: 0.0,
            points: Vec::new(),
        }
    }

    /// Offers a sample; it is stored only when the sampling interval has
    /// elapsed since the previous stored point.
    pub fn offer(&mut self, point: TrackPoint) -> bool {
        if point.time + 1e-9 >= self.next_time {
            self.next_time = point.time + self.interval;
            self.points.push(point);
            true
        } else {
            false
        }
    }

    /// The recorded points.
    pub fn points(&self) -> &[TrackPoint] {
        &self.points
    }

    /// Number of recorded points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Serializes the track as CSV (header + one row per point) for the
    /// figure-regeneration tooling.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "time,true_n,true_e,true_d,est_n,est_e,est_d,vel_n,vel_e,vel_d,airspeed,fault,failsafe\n",
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{},{}\n",
                p.time,
                p.true_position.x,
                p.true_position.y,
                p.true_position.z,
                p.est_position.x,
                p.est_position.y,
                p.est_position.z,
                p.true_velocity.x,
                p.true_velocity.y,
                p.true_velocity.z,
                p.airspeed,
                p.fault_active as u8,
                p.failsafe as u8
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(time: f64) -> TrackPoint {
        TrackPoint {
            time,
            true_position: Vec3::new(time, 0.0, -18.0),
            est_position: Vec3::new(time + 0.1, 0.0, -18.0),
            true_velocity: Vec3::new(1.0, 0.0, 0.0),
            airspeed: 1.0,
            fault_active: false,
            failsafe: false,
        }
    }

    #[test]
    fn samples_at_interval() {
        let mut rec = FlightRecorder::new(1.0);
        for i in 0..1000 {
            rec.offer(pt(i as f64 * 0.004));
        }
        // 4 s of flight at 1 Hz: points at t=0,1,2,3 (within tick rounding).
        assert_eq!(rec.len(), 4);
        assert!(rec.points()[1].time >= 1.0);

        // 4 s at 0.5 Hz: points at t=0 and t=2.
        let mut rec = FlightRecorder::new(2.0);
        for i in 0..1000 {
            rec.offer(pt(i as f64 * 0.004));
        }
        assert_eq!(rec.len(), 2);
    }

    #[test]
    fn first_sample_always_recorded() {
        let mut rec = FlightRecorder::new(5.0);
        assert!(rec.offer(pt(0.0)));
        assert!(!rec.offer(pt(0.1)));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut rec = FlightRecorder::new(1.0);
        rec.offer(pt(0.0));
        rec.offer(pt(1.0));
        let csv = rec.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("time,true_n"));
        assert!(lines[1].starts_with("0.000,0.000"));
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_panics() {
        let _ = FlightRecorder::new(0.0);
    }

    #[test]
    fn empty_recorder() {
        let rec = FlightRecorder::new(1.0);
        assert!(rec.is_empty());
        assert_eq!(rec.to_csv().lines().count(), 1);
    }
}
