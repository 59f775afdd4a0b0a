//! Ground contact: a penalty-based spring–damper model with horizontal
//! friction.
//!
//! The world ground plane is at `z = 0` (NED, z down). When the vehicle
//! penetrates the plane, a normal force pushes it back and friction opposes
//! horizontal sliding. The model is deliberately stiff so that landings
//! settle quickly; crash *classification* (impact speed, attitude at impact)
//! is done by the `imufit-uav` crate on top of this.

use imufit_math::Vec3;

/// Ground contact parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroundModel {
    /// Normal spring stiffness, N/m of penetration.
    pub stiffness: f64,
    /// Normal damping, N·s/m.
    pub damping: f64,
    /// Coulomb friction coefficient for horizontal motion.
    pub friction: f64,
}

impl Default for GroundModel {
    fn default() -> Self {
        GroundModel {
            stiffness: 4000.0,
            damping: 300.0,
            friction: 0.8,
        }
    }
}

impl GroundModel {
    /// Computes the world-frame contact force for a body of mass `mass` at
    /// `position` with `velocity`. Returns [`Vec3::ZERO`] when airborne.
    pub fn contact_force(&self, position: Vec3, velocity: Vec3, mass: f64) -> Vec3 {
        let penetration = position.z; // positive when below ground
        if penetration <= 0.0 {
            return Vec3::ZERO;
        }
        // Normal force along -z (up); damping only resists downward motion to
        // avoid the spring "sticking" to the vehicle on rebound.
        let damping_term = if velocity.z > 0.0 {
            self.damping * velocity.z
        } else {
            0.0
        };
        let normal = self.stiffness * penetration + damping_term;

        // Coulomb friction opposing horizontal velocity, regularized near
        // zero speed to avoid chatter.
        let v_h = Vec3::new(velocity.x, velocity.y, 0.0);
        let speed = v_h.norm();
        let friction = if speed > 1e-3 {
            -v_h * (self.friction * normal / speed)
        } else {
            -v_h * (self.friction * normal / 1e-3)
        };

        // Cap friction so it cannot exceed a force that would reverse motion
        // within one typical step (stability guard).
        let max_friction = self.friction * normal + mass * 50.0;
        Vec3::new(friction.x, friction.y, -normal).clamp_norm(max_friction + normal)
    }

    /// True if the given position is touching or below the ground plane.
    pub fn in_contact(&self, position: Vec3) -> bool {
        position.z >= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn airborne_has_no_force() {
        let g = GroundModel::default();
        let f = g.contact_force(Vec3::new(0.0, 0.0, -5.0), Vec3::ZERO, 1.5);
        assert_eq!(f, Vec3::ZERO);
        assert!(!g.in_contact(Vec3::new(0.0, 0.0, -0.1)));
    }

    #[test]
    fn penetration_pushes_up() {
        let g = GroundModel::default();
        let f = g.contact_force(Vec3::new(0.0, 0.0, 0.01), Vec3::ZERO, 1.5);
        assert!(f.z < 0.0, "normal force must point up (negative z)");
        assert!((f.z + g.stiffness * 0.01).abs() < 1e-9);
    }

    #[test]
    fn downward_motion_is_damped() {
        let g = GroundModel::default();
        let still = g.contact_force(Vec3::new(0.0, 0.0, 0.01), Vec3::ZERO, 1.5);
        let falling = g.contact_force(Vec3::new(0.0, 0.0, 0.01), Vec3::new(0.0, 0.0, 2.0), 1.5);
        assert!(falling.z < still.z, "damping should increase upward force");
    }

    #[test]
    fn rebound_is_not_damped() {
        let g = GroundModel::default();
        let rising = g.contact_force(Vec3::new(0.0, 0.0, 0.01), Vec3::new(0.0, 0.0, -2.0), 1.5);
        let still = g.contact_force(Vec3::new(0.0, 0.0, 0.01), Vec3::ZERO, 1.5);
        assert!((rising.z - still.z).abs() < 1e-9);
    }

    #[test]
    fn friction_opposes_sliding() {
        let g = GroundModel::default();
        let f = g.contact_force(Vec3::new(0.0, 0.0, 0.005), Vec3::new(3.0, -4.0, 0.0), 1.5);
        assert!(f.x < 0.0 && f.y > 0.0, "friction must oppose velocity: {f}");
    }

    #[test]
    fn contact_detection() {
        let g = GroundModel::default();
        assert!(g.in_contact(Vec3::ZERO));
        assert!(g.in_contact(Vec3::new(0.0, 0.0, 0.2)));
        assert!(!g.in_contact(Vec3::new(0.0, 0.0, -0.2)));
    }

    #[test]
    fn settles_a_dropped_mass() {
        // Integrate a 1.5 kg point mass dropped from 0.5 m; it must come to
        // rest near the surface instead of oscillating forever.
        let g = GroundModel::default();
        let mass = 1.5;
        let mut pos = Vec3::new(0.0, 0.0, -0.5);
        let mut vel = Vec3::ZERO;
        let dt = 0.001;
        for _ in 0..20_000 {
            let f =
                g.contact_force(pos, vel, mass) + Vec3::new(0.0, 0.0, mass * imufit_math::GRAVITY);
            vel += f * (dt / mass);
            pos += vel * dt;
        }
        assert!(vel.norm() < 0.05, "should settle, vel = {vel}");
        // Static penetration equals mg/k.
        let expected = mass * imufit_math::GRAVITY / g.stiffness;
        assert!((pos.z - expected).abs() < 0.01, "pos.z = {}", pos.z);
    }
}
