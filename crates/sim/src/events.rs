//! Event records emitted by the simulation engines.

use serde::{Deserialize, Serialize};

/// One activation of the continuous-time process.
///
/// Balls are exchangeable, so since the engines moved to load-indexed
/// exchangeable-ball sampling an event no longer carries a ball identity as
/// a public field: the superposition engine samples *a bin with probability
/// `load/m`* directly and has no identity to report.  The literal per-ball
/// [`ClockEngine`](crate::clock::ClockEngine) still tracks identities and
/// exposes them through the [`ball`](Event::ball) compat accessor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Simulation time at which the ball's clock rang.
    pub time: f64,
    /// Bin the ball occupied when activated.
    pub source: usize,
    /// Destination bin it sampled.
    pub dest: usize,
    /// Whether the protocol performed the migration.
    pub moved: bool,
    /// Running count of activations so far (1-based, including this one).
    pub activations: u64,
    /// Identity of the activated ball, when the emitting engine tracks one.
    ball: Option<u64>,
}

impl Event {
    /// An activation of an anonymous (exchangeable) ball — what the
    /// superposition engine emits.
    pub fn activation(
        time: f64,
        source: usize,
        dest: usize,
        moved: bool,
        activations: u64,
    ) -> Self {
        Self {
            time,
            source,
            dest,
            moved,
            activations,
            ball: None,
        }
    }

    /// Attach a concrete ball identity (used by the per-ball clock engine).
    pub fn with_ball(mut self, ball: u64) -> Self {
        self.ball = Some(ball);
        self
    }

    /// Compat accessor for the historical per-ball `ball` field: the activated
    /// ball's identity if the emitting engine tracks identities (`None`
    /// from the exchangeable-ball engines).
    pub fn ball(&self) -> Option<u64> {
        self.ball
    }

    /// Whether the sampled destination equals the source bin.
    pub fn is_self_sample(&self) -> bool {
        self.source == self.dest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_sample_detection() {
        let mut e = Event::activation(1.0, 3, 3, false, 1);
        assert!(e.is_self_sample());
        e.dest = 4;
        assert!(!e.is_self_sample());
    }

    #[test]
    fn ball_identity_is_optional() {
        let anonymous = Event::activation(1.0, 0, 1, true, 1);
        assert_eq!(anonymous.ball(), None);
        let identified = anonymous.with_ball(17);
        assert_eq!(identified.ball(), Some(17));
    }

    #[test]
    fn serde_round_trip_preserves_the_identity() {
        let e = Event::activation(0.5, 2, 4, true, 9).with_ball(3);
        let json = serde_json::to_string(&e).unwrap();
        let back: Event = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }
}
