//! Per-layer probes on a workload's end state: the learned-state
//! operations of `megh-core` and the daemon's wire format, each timed
//! through its public API.

use std::hint::black_box;
use std::time::{Duration, Instant};

use megh_core::{from_versioned_json, to_versioned_json, BoltzmannPolicy, MeghAgent};
use megh_serve::{Request, Response};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::Metrics;
use crate::stats::median;

/// Calls per timed operation: enough for a stable median on the fast
/// ones, few enough that the O(d) ones stay under a second.
const FAST_CALLS: usize = 201;
const SLOW_CALLS: usize = 7;

fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let out = black_box(f());
    (out, started.elapsed())
}

fn median_of(samples: &[Duration], scale: f64) -> f64 {
    let v: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * scale).collect();
    median(&v)
}

/// Times `sample`, `update`, construction, clone, freeze and the
/// checkpoint round trip on `agent`'s learned state, and counts that
/// state. Returns how many checks failed (the checkpoint must load
/// back with the same state).
pub fn core_layers(agent: &MeghAgent, seed: u64, metrics: &mut Metrics) -> u64 {
    let lspi = agent.lspi();
    let policy = BoltzmannPolicy::with_temperature(agent.temperature(), agent.config().epsilon);
    let mut rng = StdRng::seed_from_u64(seed);

    let sample: Vec<Duration> = (0..FAST_CALLS)
        .map(|_| time(|| policy.sample(lspi, &mut rng)).1)
        .collect();
    metrics.push("core.sample_us", median_of(&sample, 1e6), "us");

    // Updates mutate the state, so they run on a clone.
    let mut learner = lspi.clone();
    let update: Vec<Duration> = (0..FAST_CALLS)
        .map(|_| {
            let a_prev = policy.sample(&learner, &mut rng).unwrap_or(0);
            let a_next = policy.greedy(&learner, &mut rng);
            let cost = rng.gen_range(0.0..1.0);
            time(|| learner.update(a_prev, a_next, cost)).1
        })
        .collect();
    metrics.push("core.update_us", median_of(&update, 1e6), "us");

    let new: Vec<Duration> = (0..SLOW_CALLS)
        .map(|_| time(|| MeghAgent::new(agent.config().clone())).1)
        .collect();
    metrics.push("core.new_ms", median_of(&new, 1e3), "ms");
    let clone: Vec<Duration> = (0..SLOW_CALLS).map(|_| time(|| lspi.clone()).1).collect();
    metrics.push("core.clone_ms", median_of(&clone, 1e3), "ms");
    let freeze: Vec<Duration> = (0..SLOW_CALLS)
        .map(|_| {
            let mut frozen = lspi.clone();
            time(|| frozen.freeze()).1
        })
        .collect();
    metrics.push("core.freeze_ms", median_of(&freeze, 1e3), "ms");

    let checkpoint = agent.checkpoint();
    let mut failed = 0;
    let mut json = String::new();
    let mut save = Vec::new();
    let mut load = Vec::new();
    for _ in 0..SLOW_CALLS {
        let (saved, took) = time(|| to_versioned_json(&checkpoint));
        save.push(took);
        let Ok(saved) = saved else {
            failed += 1;
            continue;
        };
        let (loaded, took) = time(|| from_versioned_json(&saved));
        load.push(took);
        match loaded {
            Ok(cp)
                if cp.lspi.explicit_nnz() == lspi.explicit_nnz() && cp.steps == agent.steps() => {}
            _ => failed += 1,
        }
        json = saved;
    }
    metrics.push("core.checkpoint.save_ms", median_of(&save, 1e3), "ms");
    metrics.push("core.checkpoint.load_ms", median_of(&load, 1e3), "ms");
    metrics.push("core.checkpoint.bytes", json.len() as f64, "bytes");

    metrics.push("core.qtable_nnz", agent.qtable_nnz() as f64, "count");
    metrics.push("core.theta_nnz", agent.theta_nnz() as f64, "count");
    metrics.push("core.explored", lspi.explored_count() as f64, "count");
    failed
}

/// Wire values replayed per timing pass.
const WIRE_PASSES: usize = 20;

/// Times the serde round trip of a run's requests and responses: mean
/// ns to encode one value and to decode it back. Returns how many
/// values failed to round-trip unchanged.
pub fn wire(requests: &[Request], responses: &[Response], metrics: &mut Metrics) -> u64 {
    let values = requests.len() + responses.len();
    let mut failed = 0;
    let mut encode = Vec::with_capacity(WIRE_PASSES);
    let mut decode = Vec::with_capacity(WIRE_PASSES);
    for _ in 0..WIRE_PASSES {
        let (lines, took) = time(|| {
            let req: Vec<String> = requests
                .iter()
                .map(|r| serde_json::to_string(r).unwrap_or_default())
                .collect();
            let resp: Vec<String> = responses
                .iter()
                .map(|r| serde_json::to_string(r).unwrap_or_default())
                .collect();
            (req, resp)
        });
        encode.push(took);
        let ((req_back, resp_back), took) = time(|| {
            let req: Vec<Option<Request>> = lines
                .0
                .iter()
                .map(|l| serde_json::from_str(l).ok())
                .collect();
            let resp: Vec<Option<Response>> = lines
                .1
                .iter()
                .map(|l| serde_json::from_str(l).ok())
                .collect();
            (req, resp)
        });
        decode.push(took);
        failed = requests
            .iter()
            .zip(&req_back)
            .filter(|(a, b)| b.as_ref() != Some(*a))
            .count() as u64
            + responses
                .iter()
                .zip(&resp_back)
                .filter(|(a, b)| b.as_ref() != Some(*a))
                .count() as u64;
    }
    let per_value = 1e9 / values.max(1) as f64;
    metrics.push("serve.wire.encode_ns", median_of(&encode, per_value), "ns");
    metrics.push("serve.wire.decode_ns", median_of(&decode, per_value), "ns");
    failed
}
