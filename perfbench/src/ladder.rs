//! The per-layer ladder: each rung times calls into one crate's public
//! functions, replayed in batches against a workload's own state, so a
//! 20–100 ns call is not drowned by the clock read around it.

use std::cell::Cell;
use std::hint::black_box;
use std::time::{Duration, Instant};

use rls_core::{Config, LoadIndex, LoadTracker, RebalancePolicy, RingContext};
use rls_live::{LiveCommand, LiveEngine};
use rls_obs::{Histogram, Registry};
use rls_rng::dist::{Distribution, Exponential};
use rls_rng::{rng_from_seed, RngExt};
use rls_serve::http::{append_request, append_response, parse_frame};
use rls_serve::{ArriveRequest, DepartRequest, Frontend, ServeCore};
use rls_workloads::ArrivalProcess;

use crate::report::{median, time_rung, Latencies, Record};
use crate::serving::{window_quantile, Session};

/// Wall time spent on each rung.
const BUDGET: Duration = Duration::from_millis(150);
/// Replayed inputs per batch.
const BATCH: usize = 4096;

/// The state the core rungs replay against.
pub struct Subject<'a> {
    pub loads: &'a [u64],
    pub policy: RebalancePolicy,
    /// The live engine whose destination sampler and membership decide
    /// rings; `None` for the closed simulation, which draws destinations
    /// uniformly over all bins.
    pub engine: Option<&'a LiveEngine>,
    /// Rate of the holding-time law the engine samples.
    pub exp_rate: f64,
}

/// RNG, Fenwick index, tracker, policy and arrival-placement rungs.
pub fn core_rungs(s: &Subject<'_>, seed: u64, record: &mut Record) {
    let mut rng = rng_from_seed(seed);
    let n = s.loads.len();
    let index = LoadIndex::from_loads(s.loads);
    let total = index.total();

    let ns = time_rung(BUDGET, BATCH, |_| {
        black_box(rng.next_below(black_box(total)));
    });
    record.put("rng.next_below_ns", ns, "ns", 1);
    let exp = Exponential::new(s.exp_rate).expect("positive rate");
    let ns = time_rung(BUDGET, BATCH, |_| {
        black_box(exp.sample(&mut rng));
    });
    record.put("rng.exp_sample_ns", ns, "ns", 1);

    let ranks: Vec<u64> = (0..BATCH).map(|_| rng.next_below(total)).collect();
    let ns = time_rung(BUDGET, BATCH, |i| {
        black_box(index.bin_at(black_box(ranks[i])));
    });
    record.put("index.bin_at_ns", ns, "ns", 1);
    let depth: u64 = ranks
        .iter()
        .map(|&r| u64::from(index.bin_at_depth(r).1))
        .sum();
    record.put(
        "index.descent_depth",
        depth as f64 / BATCH as f64,
        "count",
        BATCH as u64,
    );

    // A valid move sequence from these loads; replayed forward, then
    // backward (the reverse of a valid sequence is valid), so every batch
    // starts from the workload's own state.
    let mut scratch = LoadIndex::from_loads(s.loads);
    let mut loads = s.loads.to_vec();
    let moves: Vec<(usize, usize, u64, u64)> = (0..BATCH)
        .map(|_| {
            let from = scratch.bin_at(rng.next_below(total));
            let mut to = rng.next_index(n);
            if to == from {
                to = (to + 1) % n;
            }
            let step = (from, to, loads[from], loads[to]);
            scratch.record_move(from, to);
            loads[from] -= 1;
            loads[to] += 1;
            step
        })
        .collect();
    let mut moving = LoadIndex::from_loads(s.loads);
    let mut calls = 0usize;
    let ns = time_rung(BUDGET, BATCH, |i| {
        let backward = (calls / BATCH) % 2 == 1;
        calls += 1;
        if backward {
            let (from, to, _, _) = moves[BATCH - 1 - i];
            moving.record_move(to, from);
        } else {
            let (from, to, _, _) = moves[i];
            moving.record_move(from, to);
        }
    });
    record.put("index.record_move_ns", ns, "ns", 1);
    let mut tracker = LoadTracker::new(&Config::from_loads(s.loads.to_vec()).expect("valid loads"));
    let mut calls = 0usize;
    let ns = time_rung(BUDGET, BATCH, |i| {
        let backward = (calls / BATCH) % 2 == 1;
        calls += 1;
        if backward {
            let (_, _, lf, lt) = moves[BATCH - 1 - i];
            tracker.record_move(lt + 1, lf - 1);
        } else {
            let (_, _, lf, lt) = moves[i];
            tracker.record_move(lf, lt);
        }
    });
    record.put("tracker.record_move_ns", ns, "ns", 1);

    // One ring decision per replayed source, through the engine's own
    // sampler; probes are the candidate draws it makes.
    let sources: Vec<usize> = ranks.iter().map(|&r| index.bin_at(r)).collect();
    let probes = Cell::new(0u64);
    let mut decisions = 0u64;
    let ns = match s.engine {
        Some(engine) => {
            let (dest, membership, cfg) =
                (engine.elastic_dest(), engine.membership(), engine.config());
            let ctx = RingContext {
                n: membership.live_count(),
                m: cfg.m(),
            };
            time_rung(BUDGET, BATCH, |i| {
                let source = sources[i];
                decisions += 1;
                black_box(s.policy.decide(
                    ctx,
                    source,
                    cfg.load(source),
                    || {
                        probes.set(probes.get() + 1);
                        dest.sample(source, membership, &mut rng)
                    },
                    |b| cfg.load(b),
                ));
            })
        }
        None => {
            let ctx = RingContext { n, m: total };
            time_rung(BUDGET, BATCH, |i| {
                let source = sources[i];
                decisions += 1;
                black_box(s.policy.decide(
                    ctx,
                    source,
                    s.loads[source],
                    || {
                        probes.set(probes.get() + 1);
                        Some(rng.next_index(n))
                    },
                    |b| s.loads[b],
                ));
            })
        }
    };
    record.put("policy.decide_ns", ns, "ns", 1);
    record.put(
        "policy.probes_per_ring",
        probes.get() as f64 / decisions as f64,
        "count",
        decisions,
    );

    let all: Vec<u32>;
    let ids = match s.engine {
        Some(engine) => engine.membership().live_ids(),
        None => {
            all = (0..n as u32).collect();
            &all[..]
        }
    };
    let arrivals = ArrivalProcess::Poisson { rate_per_bin: 1.0 };
    let ns = time_rung(BUDGET, BATCH, |_| {
        black_box(arrivals.place_among(ids, &mut rng));
    });
    record.put("arrivals.place_ns", ns, "ns", 1);
}

/// `LiveEngine::step` (unless the workload timed it in place) and
/// `LiveEngine::apply_batch` on serve-shaped runs of 8 rings.
pub fn engine_rungs(engine: &mut LiveEngine, seed: u64, with_step: bool, record: &mut Record) {
    let mut rng = rng_from_seed(seed);
    if with_step {
        let before = engine.counters();
        let ns = time_rung(BUDGET, BATCH, |_| {
            black_box(engine.step(&mut rng));
        });
        let after = engine.counters();
        let rings = after.rings - before.rings;
        record.put("live.step_ns", ns, "ns", 1);
        record.put(
            "live.ring_accept_share",
            (after.migrations - before.migrations) as f64 / rings as f64,
            "share",
            rings,
        );
    }
    const RUN: usize = 8;
    let rings = vec![
        LiveCommand::Ring {
            source: None,
            dest: None,
        };
        RUN
    ];
    let ns = time_rung(BUDGET, 64, |_| {
        black_box(engine.apply_batch(&rings, &mut rng, &mut ()));
    });
    record.put("live.apply_batch_ns_per_ring", ns / RUN as f64, "ns", 1);
}

/// In-process cost of one request, rung by rung (ns).
pub struct RequestBudget {
    pub rows: Vec<(&'static str, f64)>,
}

impl RequestBudget {
    pub fn total_ns(&self) -> f64 {
        self.rows.iter().map(|(_, ns)| ns).sum()
    }
}

/// HTTP framing, serving core, reply encoding and telemetry rungs, on a
/// copy of the workload's serving core.  `burst` is how many requests
/// share one socket write (the pipeline depth).
pub fn serve_rungs(core: &ServeCore, burst: usize, record: &mut Record) -> RequestBudget {
    let mut core = core.clone();
    let arrive = ArriveRequest::default();
    let refill = ArriveRequest {
        rings: Some(0),
        ..ArriveRequest::default()
    };
    let depart = DepartRequest::default();
    // Each timed batch is undone untimed, so the population stays at the
    // workload's own level however many batches fit in the budget.
    let mut paired = |time_arrivals: bool| -> f64 {
        let start = Instant::now();
        let mut per_call = Vec::new();
        while per_call.len() < 5 || start.elapsed() < BUDGET {
            let t0 = Instant::now();
            for _ in 0..64 {
                if time_arrivals {
                    black_box(core.arrive(&arrive).expect("arrivals are accepted"));
                } else {
                    black_box(core.depart(&depart).expect("the system holds balls"));
                }
            }
            per_call.push(t0.elapsed().as_nanos() as f64 / 64.0);
            for _ in 0..64 {
                if time_arrivals {
                    core.depart(&depart).expect("the system holds balls");
                } else {
                    core.arrive(&refill).expect("arrivals are accepted");
                }
            }
        }
        median(&mut per_call)
    };
    let arrive_ns = paired(true);
    let depart_ns = paired(false);
    record.put("serve_core.arrive_ns", arrive_ns, "ns", 1);
    record.put("serve_core.depart_ns", depart_ns, "ns", 1);

    let reply = core.arrive(&arrive).expect("arrivals are accepted");
    let to_json_ns = time_rung(BUDGET, BATCH, |_| {
        black_box(serde_json::to_string(black_box(&reply)).expect("replies encode"));
    });
    record.put("reply.to_json_ns", to_json_ns, "ns", 1);
    let body = serde_json::to_string(&reply).expect("replies encode");

    // The generator's exact bytes: a pipelined burst of the 50/50 mix.
    let mut wire = Vec::new();
    for i in 0..16 {
        let path = if i % 2 == 0 {
            "/v1/arrive"
        } else {
            "/v1/depart"
        };
        append_request(&mut wire, "POST", path, b"");
    }
    let mut offset = 0;
    let parse_ns = time_rung(BUDGET, 16, |_| {
        let (frame, used) = parse_frame(&wire[offset..])
            .expect("well-formed request")
            .expect("complete request");
        black_box(frame);
        offset = (offset + used) % wire.len();
    });
    record.put("http.parse_frame_ns", parse_ns, "ns", 1);
    let mut out = Vec::with_capacity(16 * 256);
    let append_ns = time_rung(BUDGET, 16, |i| {
        if i == 0 {
            out.clear();
        }
        append_response(&mut out, 200, body.as_bytes(), true);
        black_box(&out);
    });
    record.put("http.append_response_ns", append_ns, "ns", 1);

    let histogram = Histogram::new();
    let mut rng = rng_from_seed(0x0B5);
    let values: Vec<u64> = (0..BATCH).map(|_| 100 + rng.next_below(100_000)).collect();
    let record_ns = time_rung(BUDGET, BATCH, |i| histogram.record(values[i]));
    record.put("obs.histogram_record_ns", record_ns, "ns", 1);
    let counter = Registry::new().counter("perfbench_calls_total", "Calls timed by the ladder");
    let inc_ns = time_rung(BUDGET, BATCH, |_| counter.inc());
    record.put("obs.counter_inc_ns", inc_ns, "ns", 1);

    // Per request: the parse, queue and apply stages each record once, the
    // write stage once per burst; one endpoint counter per request and one
    // byte counter per burst.
    let per_burst = 1.0 / burst as f64;
    RequestBudget {
        rows: vec![
            ("http.parse_frame", parse_ns),
            (
                "serve_core.arrive|depart (mean)",
                (arrive_ns + depart_ns) / 2.0,
            ),
            ("reply.to_json", to_json_ns),
            ("http.append_response", append_ns),
            ("obs.histogram_record", record_ns * (3.0 + per_burst)),
            ("obs.counter_inc", inc_ns * (1.0 + per_burst)),
        ],
    }
}

/// The server's stages with their per-layer metric names.
const STAGES: [(&str, &str, &str); 4] = [
    ("parse", "stage.parse_p50_ns", "stage.parse_p99_ns"),
    ("queue", "stage.queue_p50_ns", "stage.queue_p99_ns"),
    ("apply", "stage.apply_p50_ns", "stage.apply_p99_ns"),
    ("write", "stage.write_p50_ns", "stage.write_p99_ns"),
];

/// Rungs read from a served session: the server's own stage histograms and
/// engine counters over the measured window, the generator's clock, and
/// the request budget against `requests_per_s` of an untraced pass.
pub fn session_rungs(
    s: &Session,
    budget: &RequestBudget,
    requests_per_s: f64,
    record: &mut Record,
) {
    let (before, after) = (&s.scrape_before, &s.scrape_after);
    let mut stage_p50 = 0.0;
    for (stage, p50_name, p99_name) in STAGES {
        let labels = format!("stage=\"{stage}\"");
        let at =
            |q| window_quantile(before, after, "rls_serve_stage_ns", &labels, q).unwrap_or(0.0);
        let p50 = at(0.50);
        stage_p50 += p50;
        record.put(p50_name, p50, "ns", 1);
        record.put(p99_name, at(0.99), "ns", 1);
    }
    let delta = |name: &str| after.sum(name) - before.sum(name);
    let rings = delta("rls_engine_rings_total");
    record.put(
        "scrape.probes_per_ring",
        delta("rls_engine_probes_total") / rings,
        "count",
        rings as u64,
    );
    let accepted = delta("rls_engine_moves_accepted_total");
    let decided = accepted + delta("rls_engine_moves_rejected_total");
    record.put(
        "scrape.move_accept_share",
        accepted / decided,
        "share",
        decided as u64,
    );
    let descents = delta("rls_engine_descent_depth_count");
    record.put(
        "scrape.descent_depth_mean",
        delta("rls_engine_descent_depth_sum") / descents,
        "count",
        descents as u64,
    );

    let request_ns = 1e9 / requests_per_s;
    let unattributed = 1.0 - budget.total_ns() / request_ns;
    record.put("serve.unattributed_share", unattributed, "share", 1);
    println!("request budget at {requests_per_s:.0} req/s ({request_ns:.0} ns per request):");
    for (rung, ns) in &budget.rows {
        println!(
            "  {rung:<34} {ns:>10.1} ns  {:>6.1}%",
            100.0 * ns / request_ns
        );
    }
    println!(
        "  {:<34} {:>10.1} ns  {:>6.1}%",
        "unattributed (sockets, wake-ups)",
        unattributed * request_ns,
        100.0 * unattributed
    );
    println!("  server stage p50 sum {stage_p50:.0} ns (parse + queue + apply + write)");
    if Frontend::default() == Frontend::EventLoop {
        println!("  stage.queue: not measured (the event loop records a constant 0)");
    }
}

/// The open-loop generator's own clock: send skew against the schedule
/// and round-trip time from the actual send.
pub fn loadgen_rungs(s: &mut Session, record: &mut Record) {
    let phase = &mut s.phase;
    let samples = phase.skew.count();
    let mut put = |name, sample: &mut Latencies, q| {
        let us = sample.quantile(q).unwrap_or(0.0) / 1e3;
        record.put(name, us, "us", samples);
    };
    put("loadgen.send_skew_p50_us", &mut phase.skew, 0.50);
    put("loadgen.send_skew_p99_us", &mut phase.skew, 0.99);
    put("loadgen.rtt_p50_us", &mut phase.rtt, 0.50);
    put("loadgen.rtt_p99_us", &mut phase.rtt, 0.99);
}

/// `sim.step_ns` and `sim.migration_share` on workloads that do not run
/// the closed simulation: a fixed number of steps from all balls in one
/// bin, timed in batches.
pub fn sim_rungs(seed: u64, record: &mut Record) {
    let mut sim = crate::balance::new_sim();
    let mut rng = rng_from_seed(seed);
    let mut per_step = Vec::new();
    for _ in 0..512 {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            black_box(sim.step(&mut rng));
        }
        per_step.push(t0.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    let steps = sim.activations();
    record.put(
        "sim.step_ns",
        median(&mut per_step),
        "ns",
        per_step.len() as u64,
    );
    record.put(
        "sim.migration_share",
        sim.migrations() as f64 / steps as f64,
        "share",
        steps,
    );
}
