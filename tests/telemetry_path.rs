//! Integration test of the tracking substrate: a real flight's recorded
//! track, replayed through the edge broker → core broker → tracker chain,
//! arrives whole. The simulator itself no longer publishes to a tracker;
//! the chain stays for the benchmark's tick replica.

use bytes::Bytes;

use imufit::prelude::*;
use imufit::telemetry::{encode, Broker, Message, Tracker};
use imufit_math::Vec3;
use imufit_missions::DroneSpec;

#[test]
fn flight_track_flows_through_brokers() {
    // Reconstruct the broker topology externally and replay a mission's
    // recorded track through it.
    let mission = Mission {
        drone: DroneSpec {
            id: 3,
            name: "telemetry-it".into(),
            cruise_speed_kmh: 14.0,
            payload_kg: 0.2,
            dimension_m: 0.6,
            safety_distance_m: 2.0,
        },
        home: Vec3::ZERO,
        waypoints: vec![Vec3::new(150.0, 0.0, -18.0)],
        direction: "S-N".into(),
    };
    let result =
        FlightSimulator::new(&mission, Vec::new(), SimConfig::default_for(&mission, 5)).run();
    assert!(result.outcome.is_completed());

    let edge = Broker::new();
    let core = Broker::new();
    let bridge = edge.bridge(&core, imufit::telemetry::tracker::POSITION_TOPIC);
    let mut tracker = Tracker::attach(&core);

    for p in result.recorder.points() {
        let msg = Message::Position {
            drone_id: mission.drone.id,
            time: p.time,
            position: p.est_position,
            velocity: p.true_velocity,
        };
        edge.publish(imufit::telemetry::tracker::POSITION_TOPIC, encode(&msg));
    }
    bridge.pump();
    let ingested = tracker.pump();
    assert_eq!(ingested, result.recorder.len());

    let track = tracker.track(mission.drone.id).expect("track exists");
    assert_eq!(track.len(), result.recorder.len());
    // Monotone timestamps at ~1 Hz.
    for pair in track.fixes().windows(2) {
        let dt = pair[1].time - pair[0].time;
        assert!(dt > 0.5 && dt < 2.0, "tracking cadence broken: {dt}");
    }
    assert_eq!(tracker.decode_errors(), 0);

    // Corrupt frames are counted, not crashed on.
    core.publish(
        imufit::telemetry::tracker::POSITION_TOPIC,
        Bytes::from_static(b"garbage"),
    );
    tracker.pump();
    assert_eq!(tracker.decode_errors(), 1);
}
