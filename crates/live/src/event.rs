//! Events emitted by the live engine.
//!
//! Unlike the static engine's [`rls_sim::Event`] (one ball activation), a
//! live event can also be an arrival epoch (one or more balls injected) or
//! a departure.  Events are serializable so a run can be *recorded* and
//! later *replayed* bit-identically (see [`mod@crate::replay`]): the
//! record carries every resolved random choice — which bins, whether the
//! RLS rule permitted the migration — so replay needs no random numbers.

use std::fmt;
use std::ops::Deref;

use serde::{Deserialize, Serialize, Value};

/// Bins an [`ArrivalBins`] holds without a heap allocation: every unit
/// arrival (the Poisson and hotspot laws, and every served request) fits.
const INLINE_BINS: usize = 4;

/// The destination bins of one arrival epoch, in draw order.
///
/// Up to four bins are stored inline, so an arrival event allocates
/// nothing; a larger burst spills to a `Vec`.  Either way it reads as a
/// `[u32]` slice and serializes as the same JSON array a `Vec<u32>`
/// would, so event logs and snapshots do not depend on where the bins
/// live.
#[derive(Clone)]
pub struct ArrivalBins(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, bins: [u32; INLINE_BINS] },
    Spilled(Vec<u32>),
}

impl ArrivalBins {
    /// No bins yet.
    pub const fn new() -> Self {
        ArrivalBins(Repr::Inline {
            len: 0,
            bins: [0; INLINE_BINS],
        })
    }

    /// Append one bin, spilling to the heap past the inline capacity.
    pub fn push(&mut self, bin: u32) {
        match &mut self.0 {
            Repr::Inline { len, bins } if usize::from(*len) < INLINE_BINS => {
                bins[usize::from(*len)] = bin;
                *len += 1;
            }
            Repr::Inline { bins, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE_BINS);
                spilled.extend_from_slice(bins);
                spilled.push(bin);
                self.0 = Repr::Spilled(spilled);
            }
            Repr::Spilled(bins) => bins.push(bin),
        }
    }
}

impl Default for ArrivalBins {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for ArrivalBins {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        match &self.0 {
            Repr::Inline { len, bins } => &bins[..usize::from(*len)],
            Repr::Spilled(bins) => bins,
        }
    }
}

impl<'a> IntoIterator for &'a ArrivalBins {
    type Item = &'a u32;
    type IntoIter = std::slice::Iter<'a, u32>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromIterator<u32> for ArrivalBins {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut bins = Self::new();
        for bin in iter {
            bins.push(bin);
        }
        bins
    }
}

impl From<Vec<u32>> for ArrivalBins {
    fn from(bins: Vec<u32>) -> Self {
        if bins.len() <= INLINE_BINS {
            bins.into_iter().collect()
        } else {
            ArrivalBins(Repr::Spilled(bins))
        }
    }
}

impl fmt::Debug for ArrivalBins {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for ArrivalBins {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for ArrivalBins {}

impl<const N: usize> PartialEq<[u32; N]> for ArrivalBins {
    fn eq(&self, other: &[u32; N]) -> bool {
        **self == *other
    }
}

impl Serialize for ArrivalBins {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl Deserialize for ArrivalBins {
    fn from_value(v: &Value) -> Result<Self, serde::de::Error> {
        Vec::<u32>::from_value(v).map(Self::from)
    }
}

/// One bin joining the live set, with every resolved random choice the
/// warm start made (each entry of `warm_from` donated exactly one ball to
/// the newcomer, in draw order) — so replay needs no random numbers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JoinRecord {
    /// The freshly allocated bin id.
    pub bin: u32,
    /// Source bins that each gave one ball to the new bin (empty for a
    /// cold join).
    pub warm_from: Vec<u32>,
}

/// One bin leaving the live set: every resident ball was relocated to a
/// surviving live bin (`moved_to`, in draw order) before the slot retired.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DrainRecord {
    /// The retiring bin id (the slot survives at load zero, never reused).
    pub bin: u32,
    /// Destination of each relocated ball, in draw order.
    pub moved_to: Vec<u32>,
}

/// What happened at one event of the live process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LiveEventKind {
    /// An arrival epoch: each entry is the bin one new ball landed in
    /// (bursty processes inject several balls per epoch).
    Arrival {
        /// Destination bin of each injected ball.
        bins: ArrivalBins,
    },
    /// One ball departed from this bin.
    Departure {
        /// The bin the ball left.
        bin: u32,
    },
    /// An RLS clock ring: the activated ball in `source` sampled `dest`;
    /// `moved` records the rule's (already resolved) decision.
    Ring {
        /// Bin hosting the activated ball.
        source: u32,
        /// Sampled destination bin.
        dest: u32,
        /// Whether the migration was performed.
        moved: bool,
    },
    /// A scale-out event: one or more bins joined the live set (flash
    /// churn admits several per event).  Ball count is conserved — warm
    /// joins *move* balls into the newcomer.
    BinsJoined {
        /// Every join of this event, in order.
        joins: Vec<JoinRecord>,
    },
    /// A scale-in event: one or more live bins drained and retired.  Ball
    /// count is conserved — residents are relocated, never dropped.
    BinsDrained {
        /// Every drain of this event, in order.
        drains: Vec<DrainRecord>,
    },
}

/// Converts an in-memory bin index to the compact `u32` form events
/// carry on the wire, panicking if the bin count ever exceeds `u32`
/// range (a configuration the engine rejects long before this point).
///
/// Events deliberately store `u32` bins to halve record size; this is
/// the single sanctioned narrowing point, so a silent truncation can
/// never corrupt a recorded trajectory.
pub fn bin_u32(index: usize) -> u32 {
    index.try_into().expect("bin index exceeds u32 range")
}

/// One event of the live process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LiveEvent {
    /// 1-based sequence number.
    pub seq: u64,
    /// Simulation time of the event.
    // detlint: allow(D004) carried verbatim and replayed as opaque payload
    pub time: f64,
    /// What happened.
    pub kind: LiveEventKind,
}

impl LiveEvent {
    /// Number of balls this event added to the system (arrivals only).
    pub fn balls_added(&self) -> u64 {
        match &self.kind {
            LiveEventKind::Arrival { bins } => bins.len() as u64,
            _ => 0,
        }
    }

    /// Number of balls this event removed from the system.
    pub fn balls_removed(&self) -> u64 {
        matches!(self.kind, LiveEventKind::Departure { .. }) as u64
    }

    /// Whether this event changed the live bin set (a scale event).
    pub fn is_scale_event(&self) -> bool {
        matches!(
            self.kind,
            LiveEventKind::BinsJoined { .. } | LiveEventKind::BinsDrained { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ball_deltas() {
        let arrival = LiveEvent {
            seq: 1,
            time: 0.5,
            kind: LiveEventKind::Arrival {
                bins: vec![0, 3].into(),
            },
        };
        assert_eq!(arrival.balls_added(), 2);
        assert_eq!(arrival.balls_removed(), 0);
        let departure = LiveEvent {
            seq: 2,
            time: 0.7,
            kind: LiveEventKind::Departure { bin: 1 },
        };
        assert_eq!(departure.balls_added(), 0);
        assert_eq!(departure.balls_removed(), 1);
    }

    #[test]
    fn arrival_bins_read_and_encode_like_a_vec_inline_or_spilled() {
        for len in [0usize, 1, INLINE_BINS, INLINE_BINS + 1, 3 * INLINE_BINS] {
            let plain: Vec<u32> = (1..).step_by(7).take(len).collect();
            let mut pushed = ArrivalBins::new();
            for &bin in &plain {
                pushed.push(bin);
            }
            let converted = ArrivalBins::from(plain.clone());
            assert_eq!(&*pushed, plain.as_slice());
            assert_eq!(pushed, converted);
            assert_eq!(format!("{pushed:?}"), format!("{plain:?}"));
            let json = serde_json::to_string(&pushed).unwrap();
            assert_eq!(json, serde_json::to_string(&plain).unwrap());
            assert_eq!(
                serde_json::to_string_pretty(&pushed).unwrap(),
                serde_json::to_string_pretty(&plain).unwrap()
            );
            let back: ArrivalBins = serde_json::from_str(&json).unwrap();
            assert_eq!(back, pushed);
            let inline = matches!(pushed.0, Repr::Inline { .. });
            assert_eq!(inline, len <= INLINE_BINS, "len {len}");
        }
    }

    #[test]
    fn serde_round_trip_is_exact() {
        let events = vec![
            LiveEvent {
                seq: 1,
                time: 0.123_456_789_123_456_78,
                kind: LiveEventKind::Arrival {
                    bins: vec![7].into(),
                },
            },
            LiveEvent {
                seq: 2,
                time: 1.0 / 3.0,
                kind: LiveEventKind::Ring {
                    source: 3,
                    dest: 0,
                    moved: true,
                },
            },
        ];
        let json = serde_json::to_string(&events).unwrap();
        let back: Vec<LiveEvent> = serde_json::from_str(&json).unwrap();
        assert_eq!(events, back);
        // Times must round-trip bit-exactly (replay depends on it).
        assert_eq!(back[1].time.to_bits(), (1.0f64 / 3.0).to_bits());
    }

    #[test]
    fn scale_events_conserve_balls_and_round_trip() {
        let join = LiveEvent {
            seq: 3,
            time: 2.25,
            kind: LiveEventKind::BinsJoined {
                joins: vec![JoinRecord {
                    bin: 8,
                    warm_from: vec![0, 3, 3],
                }],
            },
        };
        let drain = LiveEvent {
            seq: 4,
            time: 2.5,
            kind: LiveEventKind::BinsDrained {
                drains: vec![DrainRecord {
                    bin: 1,
                    moved_to: vec![2, 8],
                }],
            },
        };
        for event in [&join, &drain] {
            assert_eq!(event.balls_added(), 0, "scale events conserve balls");
            assert_eq!(event.balls_removed(), 0);
            assert!(event.is_scale_event());
            let json = serde_json::to_string(event).unwrap();
            let back: LiveEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(event, &back);
        }
        let ring = LiveEvent {
            seq: 5,
            time: 3.0,
            kind: LiveEventKind::Ring {
                source: 0,
                dest: 1,
                moved: false,
            },
        };
        assert!(!ring.is_scale_event());
    }
}
