//! The U-space tracker: consumes position messages from the core broker and
//! maintains one track per drone.

use std::collections::HashMap;

use imufit_math::Vec3;

use crate::broker::{Broker, Subscription};
use crate::wire::{decode, Message};

/// One tracked position fix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fix {
    /// Report time, seconds.
    pub time: f64,
    /// Reported NED position, meters.
    pub position: Vec3,
    /// Reported NED velocity, m/s.
    pub velocity: Vec3,
}

/// The track of a single drone.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Track {
    fixes: Vec<Fix>,
}

impl Track {
    /// The fixes in arrival order.
    pub fn fixes(&self) -> &[Fix] {
        &self.fixes
    }

    /// Number of fixes.
    pub fn len(&self) -> usize {
        self.fixes.len()
    }

    /// True if the track is empty.
    pub fn is_empty(&self) -> bool {
        self.fixes.is_empty()
    }

    /// The most recent fix.
    pub fn latest(&self) -> Option<&Fix> {
        self.fixes.last()
    }
}

/// Subscribes to the position topic and maintains per-drone tracks.
#[derive(Debug)]
pub struct Tracker {
    subscription: Subscription,
    tracks: HashMap<u32, Track>,
    decode_errors: usize,
}

/// The topic drones publish position reports on.
pub const POSITION_TOPIC: &str = "uspace/positions";

impl Tracker {
    /// Attaches a tracker to the core broker.
    pub fn attach(core: &Broker) -> Self {
        Tracker {
            subscription: core.subscribe(POSITION_TOPIC),
            tracks: HashMap::new(),
            decode_errors: 0,
        }
    }

    /// Processes all queued messages; returns how many fixes were ingested.
    pub fn pump(&mut self) -> usize {
        let mut ingested = 0;
        for raw in self.subscription.drain() {
            match decode(raw) {
                Ok(Message::Position {
                    drone_id,
                    time,
                    position,
                    velocity,
                }) => {
                    self.tracks.entry(drone_id).or_default().fixes.push(Fix {
                        time,
                        position,
                        velocity,
                    });
                    ingested += 1;
                }
                Ok(Message::Status { .. }) => {}
                Err(_) => self.decode_errors += 1,
            }
        }
        ingested
    }

    /// The track of a drone, if it has reported.
    pub fn track(&self, drone_id: u32) -> Option<&Track> {
        self.tracks.get(&drone_id)
    }

    /// Count of undecodable messages received.
    pub fn decode_errors(&self) -> usize {
        self.decode_errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode;
    use bytes::Bytes;

    fn publish_fix(broker: &Broker, id: u32, t: f64, n: f64) {
        let msg = Message::Position {
            drone_id: id,
            time: t,
            position: Vec3::new(n, 0.0, -18.0),
            velocity: Vec3::new(1.0, 0.0, 0.0),
        };
        broker.publish(POSITION_TOPIC, encode(&msg));
    }

    #[test]
    fn ingests_fixes_per_drone() {
        let core = Broker::new();
        let mut tracker = Tracker::attach(&core);
        publish_fix(&core, 1, 0.0, 0.0);
        publish_fix(&core, 1, 1.0, 3.0);
        publish_fix(&core, 2, 0.5, 10.0);
        assert_eq!(tracker.pump(), 3);
        assert_eq!(tracker.track(1).unwrap().len(), 2);
        assert_eq!(tracker.track(2).unwrap().latest().unwrap().position.x, 10.0);
        assert!(tracker.track(3).is_none());
    }

    #[test]
    fn status_messages_are_ignored() {
        let core = Broker::new();
        let mut tracker = Tracker::attach(&core);
        let msg = Message::Status {
            drone_id: 1,
            time: 0.0,
            mode: 1,
            failsafe: false,
        };
        core.publish(POSITION_TOPIC, encode(&msg));
        assert_eq!(tracker.pump(), 0);
        assert!(tracker.track(1).is_none());
    }

    #[test]
    fn garbage_counts_as_decode_error() {
        let core = Broker::new();
        let mut tracker = Tracker::attach(&core);
        core.publish(POSITION_TOPIC, Bytes::from_static(b"not a frame"));
        tracker.pump();
        assert_eq!(tracker.decode_errors(), 1);
    }

    #[test]
    fn end_to_end_through_edge_broker() {
        let edge = Broker::new();
        let core = Broker::new();
        let bridge = edge.bridge(&core, POSITION_TOPIC);
        let mut tracker = Tracker::attach(&core);

        publish_fix(&edge, 9, 2.0, 42.0);
        bridge.pump();
        assert_eq!(tracker.pump(), 1);
        assert_eq!(tracker.track(9).unwrap().latest().unwrap().time, 2.0);
    }
}
