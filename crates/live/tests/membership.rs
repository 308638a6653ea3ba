//! A dense membership (no per-bin arrays until the first scale event)
//! against an eager reference that keeps the three arrays from boot.
//!
//! Random join/retire sequences run from a dense boot.  After every
//! operation the membership must answer every query like the reference:
//! counts, liveness of every id, the id at every position, iteration and
//! sorted order, the epoch, and the replay of its log.  Destination draws
//! (`ElasticDest::sample`, static and elastic complete modes) and arrival
//! placement must equal the reference's `live_ids[k]` draws, draw for
//! draw.

use proptest::prelude::*;
use rls_core::Membership;
use rls_graph::{ElasticDest, Topology};
use rls_rng::{rng_from_seed, RngExt};
use rls_workloads::ArrivalProcess;

/// The eager model: liveness flags, positional ids and their inverse,
/// filled at boot and swap-removed on retire.
struct Eager {
    live: Vec<bool>,
    live_ids: Vec<u32>,
    pos: Vec<u32>,
}

impl Eager {
    fn new(n: usize) -> Self {
        let n32 = u32::try_from(n).unwrap();
        Self {
            live: vec![true; n],
            live_ids: (0..n32).collect(),
            pos: (0..n32).collect(),
        }
    }

    fn join(&mut self) -> usize {
        let id = self.live.len();
        self.live.push(true);
        self.pos.push(u32::try_from(self.live_ids.len()).unwrap());
        self.live_ids.push(u32::try_from(id).unwrap());
        id
    }

    fn retire(&mut self, bin: usize) {
        self.live[bin] = false;
        let p = self.pos[bin] as usize;
        self.live_ids.swap_remove(p);
        if p < self.live_ids.len() {
            let moved = self.live_ids[p] as usize;
            self.pos[moved] = u32::try_from(p).unwrap();
        }
    }
}

/// Every query of `m` answers like `eager`, and so does the replay of
/// its log.  A dense membership lends its id slice only when `lend` is
/// set, so both ways into the first scale event (with and without a lent
/// identity list) are covered.
fn assert_same(m: &Membership, eager: &Eager, epoch: u64, lend: bool) {
    assert_eq!(m.live_count(), eager.live_ids.len());
    assert_eq!(m.capacity(), eager.live.len());
    assert_eq!(m.epoch(), epoch);
    assert_eq!(m.is_elastic(), epoch > 0);
    for bin in 0..eager.live.len() + 3 {
        assert_eq!(
            m.is_live(bin),
            eager.live.get(bin) == Some(&true),
            "bin {bin}"
        );
    }
    for (k, &id) in eager.live_ids.iter().enumerate() {
        assert_eq!(m.live_at(k), id as usize, "position {k}");
    }
    assert!(m.iter().eq(eager.live_ids.iter().map(|&b| b as usize)));
    assert_eq!(m.iter().len(), eager.live_ids.len());
    if lend || epoch > 0 {
        assert_eq!(m.live_ids(), &eager.live_ids[..]);
    }
    let mut sorted = eager.live_ids.clone();
    sorted.sort_unstable();
    assert_eq!(m.sorted_live_ids(), sorted);
    let replayed = m.snapshot().replay().unwrap();
    assert_eq!(&replayed, m);
    assert!(replayed.iter().eq(m.iter()));
    assert_eq!(replayed.capacity(), m.capacity());
}

/// Destination draws and arrival placements over `m` equal the draws
/// the reference makes from its id array, on one seed for each side.
fn assert_same_draws(dest: &ElasticDest, m: &Membership, eager: &Eager, seed: u64) {
    let ids = &eager.live_ids;
    let (mut ours, mut theirs) = (rng_from_seed(seed), rng_from_seed(seed));
    for source in ids.iter().map(|&b| b as usize).cycle().take(32) {
        let drawn = dest.sample(source, m, &mut ours);
        let reference = ids[theirs.next_index(ids.len())] as usize;
        assert_eq!(drawn, Some(reference), "ring in {source}");
    }
    for arrivals in [
        ArrivalProcess::Poisson { rate_per_bin: 1.0 },
        ArrivalProcess::Hotspot {
            rate_per_bin: 1.0,
            bias: 0.3,
        },
    ] {
        for _ in 0..32 {
            assert_eq!(
                arrivals.place_live(m, &mut ours),
                arrivals.place_among(ids, &mut theirs)
            );
        }
    }
}

proptest! {
    #[test]
    fn a_dense_membership_answers_like_the_eager_arrays(
        n in 1usize..=20,
        ops in prop::collection::vec((0u8..3, 0usize..64), 0..40),
        seed in 0u64..1000,
    ) {
        let mut m = Membership::new(n);
        let mut eager = Eager::new(n);
        let mut dest = ElasticDest::build(Topology::Complete, n, seed).unwrap();
        let (mut epoch, lend) = (0, seed % 2 == 0);
        assert_same(&m, &eager, epoch, lend);
        assert_same_draws(&dest, &m, &eager, seed);
        for (i, (kind, pick)) in ops.into_iter().enumerate() {
            if kind == 0 {
                prop_assert_eq!(m.join(), eager.join());
            } else if m.live_count() > 1 {
                let victim = eager.live_ids[pick % eager.live_ids.len()] as usize;
                m.retire(victim);
                eager.retire(victim);
            } else {
                continue;
            }
            epoch += 1;
            dest.apply(*m.log().last().unwrap(), &m);
            assert_same(&m, &eager, epoch, lend);
            assert_same_draws(&dest, &m, &eager, seed ^ i as u64);
        }
    }
}

#[test]
fn a_dense_membership_lends_its_identity_list_until_the_first_scale_event() {
    let mut m = Membership::new(5);
    assert_eq!(m.live_ids(), &[0, 1, 2, 3, 4]);
    assert_eq!(m.clone(), m, "the lent list is not part of equality");
    assert_eq!(m.clone().live_ids(), &[0, 1, 2, 3, 4]);
    m.retire(0);
    assert_eq!(m.live_ids(), &[4, 1, 2, 3]);
    assert_eq!(m.join(), 5);
    assert_eq!(m.live_ids(), &[4, 1, 2, 3, 5]);
}
