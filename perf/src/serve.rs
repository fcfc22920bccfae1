//! Closed-loop load on the real `megh serve` binary, run as a child
//! process on a unix socket.
//!
//! One episode starts a daemon over a copy of a start checkpoint and
//! drives it from one connection, waiting for each reply (closed loop),
//! as the daemon's callers — control loops — do. The episode replays a
//! fixed, seeded script: observes with a `sync` barrier every
//! `sync_every` of them, a `checkpoint` barrier every
//! `checkpoint_every`, and after each `sync` a burst of seeded decides
//! against the snapshot that `sync` published.
//!
//! Every episode of a start state does the same work in the same
//! order: the n-th request of one episode meets the same learned state
//! as the n-th of any other, and the n-th decide must return the same
//! decision. One connection keeps at most two threads busy — this one
//! and the daemon's handler or writer — so on a two-core host the times
//! measure the daemon rather than the scheduler sharing cores among
//! more threads than there are.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use megh_core::{BoltzmannPolicy, MeghAgent};
use megh_serve::{Client, Listen, Request, Response, ServeError};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{peak_rss_mb, Tally};
use crate::spans::Spans;

/// How much work one episode does.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    pub observes: usize,
    pub sync_every: usize,
    pub checkpoint_every: usize,
    /// Decides after each `sync`.
    pub decides_per_sync: usize,
}

/// The seeded requests of an episode, identical in every episode.
pub struct Script {
    actions: Vec<usize>,
    costs: Vec<f64>,
    decide_seed: u64,
}

impl Script {
    /// Observed actions are what the agent's own policy samples on its
    /// learned state, so they revisit learned actions and explore as a
    /// real control loop would; costs cycle through realistic per-step
    /// costs.
    pub fn new(agent: &MeghAgent, costs: &[f64], observes: usize, seed: u64) -> Self {
        let policy = BoltzmannPolicy::with_temperature(agent.temperature(), agent.config().epsilon);
        let mut rng = StdRng::seed_from_u64(seed);
        let actions = (0..observes)
            .map(|_| policy.sample(agent.lspi(), &mut rng).unwrap_or(0))
            .collect();
        assert!(!costs.is_empty(), "a script needs at least one cost");
        Self {
            actions,
            costs: costs.to_vec(),
            decide_seed: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        }
    }
}

/// A directory removed, with everything in it, on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn create(path: PathBuf) -> Result<Self, String> {
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(Self(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A running daemon. Dropping it kills and reaps the child, then
/// removes its directory with the socket and checkpoint, so no exit
/// path — a failed check included — leaves either behind.
struct Daemon {
    child: Child,
    listen: Listen,
    _dir: ScratchDir,
}

const CONNECT_ATTEMPTS: u32 = 5_000;
const CONNECT_DELAY: Duration = Duration::from_millis(2);
const IO_TIMEOUT: Duration = Duration::from_secs(60);

impl Daemon {
    fn spawn(
        bin: &Path,
        dir: ScratchDir,
        checkpoint: &Path,
        dims: (usize, usize),
    ) -> Result<Self, String> {
        let state = dir.0.join("checkpoint.json");
        fs::copy(checkpoint, &state).map_err(|e| format!("copy checkpoint: {e}"))?;
        let socket = dir.0.join("megh.sock");
        let child = Command::new(bin)
            .arg("serve")
            .arg("--listen")
            .arg(format!("unix:{}", socket.display()))
            .arg("--checkpoint")
            .arg(&state)
            .args(["--vms", &dims.0.to_string(), "--hosts", &dims.1.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        Ok(Self {
            child,
            listen: Listen::Unix(socket),
            _dir: dir,
        })
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect_retry_timeout(
            &self.listen,
            CONNECT_ATTEMPTS,
            CONNECT_DELAY,
            Some(IO_TIMEOUT),
        )
        .map_err(|e| format!("connect to daemon: {e}"))
    }

    /// Asks the daemon to shut down and waits for it to exit.
    fn shutdown(mut self, client: &mut Client) -> Result<(), String> {
        match client.shutdown().map_err(err)? {
            Response::Bye => {}
            other => return Err(format!("shutdown answered {other:?}")),
        }
        let deadline = Instant::now() + IO_TIMEOUT;
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) => thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("wait for daemon: {e}")),
            }
        }
        Err("daemon did not exit after shutdown".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn err(e: ServeError) -> String {
    format!("daemon request failed: {e}")
}

/// What one episode measured. Each list holds one time per request of
/// its kind, in script order, so lists of episodes of one start state
/// line up request by request.
#[derive(Debug, Default)]
pub struct Episode {
    /// Daemon spawn until the first answered `stats`: checkpoint load
    /// and the first freeze.
    pub setup: Duration,
    pub decide_ns: Vec<u64>,
    pub observe_ns: Vec<u64>,
    pub sync_ns: Vec<u64>,
    pub checkpoint_ns: Vec<u64>,
    pub observes: usize,
    /// Every decision, in script order.
    pub decisions: Vec<Response>,
    /// Largest queue depth an observe was acknowledged with.
    pub queue_max: usize,
    /// Snapshots the daemon published during the load.
    pub published: u64,
    pub rss_mb: f64,
    pub tally: Tally,
    /// The first requests and responses, as wire-format samples.
    pub requests: Vec<Request>,
    pub responses: Vec<Response>,
}

/// Requests (with their responses) kept per episode.
const KEEP_VALUES: usize = 1024;

/// Times `f` and, when tracing, records it as a span named `name`.
fn timed<T>(spans: &mut Option<Spans>, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
    let span = spans.as_mut().map(|s| s.open(name, None));
    let started = Instant::now();
    let out = f();
    let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    if let (Some(s), Some(id)) = (spans.as_mut(), span) {
        s.close(id);
    }
    (out, ns)
}

fn stats(client: &mut Client) -> Result<(usize, u64), String> {
    match client.request(&Request::Stats).map_err(err)? {
        Response::Stats {
            steps, published, ..
        } => Ok((steps, published)),
        other => Err(format!("stats answered {other:?}")),
    }
}

/// Runs one episode. `warm_steps` is the start checkpoint's step count;
/// with `trace`, every request becomes a span under one
/// `serve.episode` span in `trace`.
#[allow(clippy::too_many_arguments)]
pub fn run_episode(
    bin: &Path,
    dir: ScratchDir,
    checkpoint: &Path,
    dims: (usize, usize),
    warm_steps: usize,
    script: &Script,
    load: Load,
    trace: Option<&mut Spans>,
) -> Result<Episode, String> {
    let mut ep = Episode::default();
    let started = Instant::now();
    let daemon = Daemon::spawn(bin, dir, checkpoint, dims)?;
    let mut client = daemon.connect()?;
    let (steps0, published0) = stats(&mut client)?;
    ep.setup = started.elapsed();
    ep.tally.add(1, u64::from(steps0 != warm_steps));

    let mut spans = trace.as_ref().map(|t| Spans::new(t.origin()));
    let mut seed = script.decide_seed;
    for (i, &action) in script.actions.iter().take(load.observes).enumerate() {
        let cost = script.costs[i % script.costs.len()];
        let (resp, ns) = timed(&mut spans, "serve.observe", || client.observe(action, cost));
        let resp = resp.map_err(err)?;
        ep.observe_ns.push(ns);
        ep.tally.add(1, 0);
        match resp {
            Response::Queued { depth } => ep.queue_max = ep.queue_max.max(depth),
            _ => ep.tally.failed += 1,
        }
        ep.keep(Request::Observe { action, cost }, resp);

        let sent = i + 1;
        ep.observes = sent;
        let expect = warm_steps + sent;
        if sent % load.sync_every != 0 && sent != load.observes {
            continue;
        }
        let (resp, ns) = timed(&mut spans, "serve.sync", || client.sync());
        ep.sync_ns.push(ns);
        ep.tally.add(
            1,
            u64::from(resp.map_err(err)? != Response::Synced { steps: expect }),
        );
        if sent % load.checkpoint_every == 0 {
            let (resp, ns) = timed(&mut spans, "serve.checkpoint", || client.checkpoint());
            ep.checkpoint_ns.push(ns);
            let ok = resp.map_err(err)? == Response::Checkpointed { steps: expect };
            ep.tally.add(1, u64::from(!ok));
        }
        for _ in 0..load.decides_per_sync {
            seed = seed.wrapping_add(1);
            let (resp, ns) = timed(&mut spans, "serve.decide", || client.decide(seed));
            let resp = resp.map_err(err)?;
            ep.decide_ns.push(ns);
            let ok = matches!(resp, Response::Decision { action, vm, target, steps, .. }
                if action < dims.0 * dims.1 && action == vm * dims.1 + target && steps == expect);
            ep.tally.add(1, u64::from(!ok));
            ep.decisions.push(resp.clone());
            ep.keep(Request::Decide { seed }, resp);
        }
    }

    let (steps1, published1) = stats(&mut client)?;
    ep.published = published1.saturating_sub(published0);
    ep.tally
        .add(1, u64::from(steps1 != warm_steps + load.observes));
    ep.rss_mb = peak_rss_mb(&daemon.child.id().to_string()).unwrap_or(f64::NAN);
    daemon.shutdown(&mut client)?;

    if let (Some(trace), Some(spans)) = (trace, spans) {
        let root = trace.open_at("serve.episode", None, started);
        trace.close(root);
        trace.absorb(spans, Some(root));
    }
    Ok(ep)
}

impl Episode {
    fn keep(&mut self, request: Request, response: Response) {
        if self.requests.len() < KEEP_VALUES {
            self.requests.push(request);
            self.responses.push(response);
        }
    }

    /// Time spent learning: every observe, sync and checkpoint.
    pub fn learner_ns(&self) -> u64 {
        [&self.observe_ns, &self.sync_ns, &self.checkpoint_ns]
            .iter()
            .flat_map(|v| v.iter())
            .sum()
    }
}
