//! Closed-loop clients over loopback: one thread and one connection per
//! caller, each waiting for a free pipeline slot rather than following a
//! schedule (the protocol answers requests beyond `max_pipeline` BUSY).

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use pufferfish_net::{Frame, NetClient};

use crate::gate::{query_digest, refine_digest, ReleaseBlocks};
use crate::inputs::{counter_base, Inputs, Workload, CONNECTIONS, PIPELINE, TENANT};
use crate::stats::{cpu_ticks, host_probe_ns, peak_rss_mb, since, Reservoir};

/// When a connection stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this long.
    For(Duration),
    /// After this many requests.
    Requests(u64),
}

/// Request outcomes of one kind; the failures are
/// BUSY, BUDGET, ERROR, and wrong or unexpected responses.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Requests sent.
    pub attempted: u64,
    /// Answered successfully.
    pub ok: u64,
    /// Answered BUSY.
    pub busy: u64,
    /// Answered BUDGET.
    pub budget: u64,
    /// Answered ERROR, or lost with the connection.
    pub error: u64,
    /// Answered with a frame of the wrong kind, or failed the gate.
    pub wrong: u64,
}

impl Counts {
    /// Every failure kind summed.
    pub fn failed(&self) -> u64 {
        self.busy + self.budget + self.error + self.wrong
    }

    /// Adds `other`'s counts.
    pub fn add(&mut self, other: &Counts) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.busy += other.busy;
        self.budget += other.budget;
        self.error += other.error;
        self.wrong += other.wrong;
    }

    fn refused(&mut self, frame: &Frame) {
        match frame {
            Frame::Busy { .. } => self.busy += 1,
            Frame::BudgetExhausted { .. } => self.budget += 1,
            Frame::Error { .. } => self.error += 1,
            _ => self.wrong += 1,
        }
    }
}

/// Outcomes and latencies of one request kind.
#[derive(Debug, Clone)]
pub struct KindResult {
    /// Outcome counts.
    pub counts: Counts,
    /// Send → final matching response, in nanoseconds.
    pub latency: Reservoir,
    /// Send → first response frame (differs from `latency` only for
    /// PROGRESSIVE, whose first REFINE_OK precedes the final one).
    pub first: Reservoir,
}

impl KindResult {
    fn new(seed: u64) -> Self {
        KindResult {
            counts: Counts::default(),
            latency: Reservoir::new(seed),
            first: Reservoir::new(seed ^ 1),
        }
    }

    /// Adds `other`'s counts and latency samples.
    pub fn merge(&mut self, other: &KindResult) {
        self.counts.add(&other.counts);
        self.latency.merge(&other.latency);
        self.first.merge(&other.first);
    }
}

/// What one connection saw: per-kind results plus what the gate needs to
/// re-derive every acknowledged answer.
pub struct ConnOutcome {
    /// RELEASE results.
    pub release: KindResult,
    /// QUERY results.
    pub query: KindResult,
    /// PROGRESSIVE results.
    pub progressive: KindResult,
    /// The connection's first request counter.
    pub first_counter: u64,
    /// Digests of acknowledged releases, by counter block.
    pub blocks: Option<ReleaseBlocks>,
    /// Counters whose release was not acknowledged.
    pub unacked: Vec<u64>,
    /// First counter past the last request sent.
    pub next_counter: u64,
    /// `(counter, digest)` of each acknowledged QUERY.
    pub queries: Vec<(u64, u64)>,
    /// `(counter, digest)` of each final PROGRESSIVE refinement.
    pub refinements: Vec<(u64, u64)>,
    /// When the last response arrived.
    pub finished: Instant,
    /// Peak resident set (MiB) read when the connection's acknowledged
    /// releases reached the checkpoint, if they did.
    pub rss_mb: Option<f64>,
}

impl ConnOutcome {
    fn new(seed: u64, first_counter: u64) -> Self {
        ConnOutcome {
            release: KindResult::new(seed),
            query: KindResult::new(seed ^ 2),
            progressive: KindResult::new(seed ^ 4),
            first_counter,
            blocks: None,
            unacked: Vec::new(),
            next_counter: first_counter,
            queries: Vec::new(),
            refinements: Vec::new(),
            finished: Instant::now(),
            rss_mb: None,
        }
    }
}

fn connect(addr: SocketAddr) -> NetClient {
    NetClient::connect(addr, TENANT).expect("the loopback server accepts the connection")
}

fn more(stop: Stop, sent: u64, deadline: Instant) -> bool {
    match stop {
        Stop::For(_) => Instant::now() < deadline,
        Stop::Requests(n) => sent < n,
    }
}

fn deadline(stop: Stop) -> Instant {
    match stop {
        Stop::For(d) => Instant::now() + d,
        Stop::Requests(_) => Instant::now(),
    }
}

/// Where a run stands on its way to reading its peak resident set after a
/// fixed number of acknowledged requests per connection. The server keeps
/// per-user state for every identity it has charged, so reading the peak
/// after a fixed amount of work keeps the memory figure independent of the
/// request rate.
#[derive(Debug, Clone, Copy)]
pub struct RssCheckpoint {
    remaining: [u64; CONNECTIONS],
    /// The peak resident set (MiB) once a connection reached the checkpoint.
    pub reading: Option<f64>,
}

impl RssCheckpoint {
    /// Reads the peak after `requests` acknowledged requests on a
    /// connection.
    pub fn after(requests: u64) -> Self {
        RssCheckpoint {
            remaining: [requests; CONNECTIONS],
            reading: None,
        }
    }
}

/// One RELEASE connection keeping `depth` requests in flight; reads the
/// peak resident set after `rss_at` acknowledged releases, if given.
pub fn drive_release(
    mut client: NetClient,
    inputs: &Inputs,
    first_counter: u64,
    depth: usize,
    stop: Stop,
    rss_at: Option<u64>,
    start: &Barrier,
) -> ConnOutcome {
    let mut out = ConnOutcome::new(inputs.seed ^ first_counter, first_counter);
    let mut blocks = ReleaseBlocks::new(first_counter);
    let mut inflight: HashMap<u64, (Instant, u64)> = HashMap::with_capacity(depth * 2);
    let mut counter = first_counter;
    let mut sent = 0u64;
    start.wait();
    let deadline = deadline(stop);
    let counts = &mut out.release.counts;
    loop {
        while inflight.len() < depth && more(stop, sent, deadline) {
            let frame = inputs.release_frame(counter);
            let Ok(seq) = client.send(frame) else { break };
            inflight.insert(seq, (Instant::now(), counter));
            counter += 1;
            sent += 1;
        }
        if inflight.is_empty() {
            break;
        }
        let Ok(envelope) = client.recv() else {
            // The connection is gone: every outstanding request is lost.
            counts.error += inflight.len() as u64;
            out.unacked.extend(inflight.values().map(|&(_, c)| c));
            inflight.clear();
            break;
        };
        let Some((sent_at, c)) = inflight.remove(&envelope.seq) else {
            counts.wrong += 1;
            continue;
        };
        match envelope.frame {
            Frame::ReleaseOk { scale, values } => {
                out.release.latency.record(since(sent_at));
                counts.ok += 1;
                blocks.record(c, scale, &values);
                if Some(counts.ok) == rss_at {
                    out.rss_mb = Some(peak_rss_mb());
                }
            }
            other => {
                counts.refused(&other);
                out.unacked.push(c);
            }
        }
    }
    out.finished = Instant::now();
    counts.attempted = sent;
    out.next_counter = counter;
    out.blocks = Some(blocks);
    let _ = client.goodbye();
    out
}

/// One QUERY connection at depth 1; reads the peak resident set after
/// `rss_at` acknowledged queries, if given.
pub fn drive_queries(
    mut client: NetClient,
    inputs: &Inputs,
    first_counter: u64,
    stop: Stop,
    rss_at: Option<u64>,
    start: &Barrier,
) -> ConnOutcome {
    let mut out = ConnOutcome::new(inputs.seed ^ first_counter, first_counter);
    let mut counter = first_counter;
    start.wait();
    let deadline = deadline(stop);
    while more(stop, counter - first_counter, deadline) {
        let sent_at = Instant::now();
        let counts = &mut out.query.counts;
        counts.attempted += 1;
        let Ok(seq) = client.send(inputs.query_frame(counter)) else {
            counts.error += 1;
            break;
        };
        counter += 1;
        let Ok(envelope) = client.recv() else {
            counts.error += 1;
            break;
        };
        match envelope.frame {
            Frame::QueryOk(result) if envelope.seq == seq => {
                out.query.latency.record(since(sent_at));
                counts.ok += 1;
                if Some(counts.ok) == rss_at {
                    out.rss_mb = Some(peak_rss_mb());
                }
                out.queries.push((counter - 1, query_digest(&result)));
            }
            other => counts.refused(&other),
        }
    }
    out.finished = Instant::now();
    out.next_counter = counter;
    let _ = client.goodbye();
    out
}

/// One PROGRESSIVE connection at depth 1, running the ladder `steps`;
/// reads the peak resident set after `rss_at` completed requests, if given.
pub fn drive_progressive(
    mut client: NetClient,
    inputs: &Inputs,
    first_counter: u64,
    steps: &[(usize, f64, f64)],
    stop: Stop,
    rss_at: Option<u64>,
    start: &Barrier,
) -> ConnOutcome {
    let mut out = ConnOutcome::new(inputs.seed ^ first_counter, first_counter);
    let mut counter = first_counter;
    start.wait();
    let deadline = deadline(stop);
    'requests: while more(stop, counter - first_counter, deadline) {
        let sent_at = Instant::now();
        out.progressive.counts.attempted += 1;
        let Ok(seq) = client.send(inputs.progressive_frame(counter, steps)) else {
            out.progressive.counts.error += 1;
            break;
        };
        counter += 1;
        loop {
            let Ok(envelope) = client.recv() else {
                out.progressive.counts.error += 1;
                break 'requests;
            };
            match envelope.frame {
                Frame::RefineOk {
                    step,
                    total_steps,
                    scale,
                    values,
                    ..
                } if envelope.seq == seq => {
                    if step == 1 {
                        out.progressive.first.record(since(sent_at));
                    }
                    if step == total_steps {
                        out.progressive.latency.record(since(sent_at));
                        out.progressive.counts.ok += 1;
                        if Some(out.progressive.counts.ok) == rss_at {
                            out.rss_mb = Some(peak_rss_mb());
                        }
                        out.refinements
                            .push((counter - 1, refine_digest(scale, &values)));
                        break;
                    }
                }
                other => {
                    out.progressive.counts.refused(&other);
                    break;
                }
            }
        }
    }
    out.finished = Instant::now();
    out.next_counter = counter;
    let _ = client.goodbye();
    out
}

/// The merged result of one closed-loop phase over every connection.
pub struct Phase {
    /// Per-connection outcomes, connection 0 first.
    pub connections: Vec<ConnOutcome>,
    /// Seconds from the common start to the last response.
    pub seconds: f64,
    /// Share of the host's CPU time stolen by the hypervisor during the
    /// phase.
    pub steal: f64,
    /// [`host_probe_ns`] just before the phase.
    pub probe_ns: u64,
}

impl Phase {
    /// RELEASE, QUERY and PROGRESSIVE results merged over connections.
    pub fn kinds(&self) -> [KindResult; 3] {
        let mut merged = [KindResult::new(0), KindResult::new(0), KindResult::new(0)];
        for conn in &self.connections {
            merged[0].merge(&conn.release);
            merged[1].merge(&conn.query);
            merged[2].merge(&conn.progressive);
        }
        merged
    }

    /// Requests answered successfully, every kind.
    pub fn ok(&self) -> u64 {
        self.kinds().iter().map(|k| k.counts.ok).sum()
    }

    /// Successful requests per second.
    pub fn rps(&self) -> f64 {
        self.ok() as f64 / self.seconds
    }

    /// Advances `checkpoint` past this phase's acknowledged requests,
    /// keeping the first reading taken.
    pub fn advance(&self, checkpoint: &mut RssCheckpoint) {
        if checkpoint.reading.is_none() {
            checkpoint.reading = self
                .connections
                .iter()
                .filter_map(|c| c.rss_mb)
                .reduce(f64::max);
        }
        for (remaining, conn) in checkpoint.remaining.iter_mut().zip(&self.connections) {
            let ok = conn.release.counts.ok + conn.query.counts.ok + conn.progressive.counts.ok;
            *remaining = remaining.saturating_sub(ok);
        }
    }
}

/// Runs `workload`'s traffic against `addr` until `stop`, continuing from
/// `counters` (one per connection, advanced past the requests sent).
/// `steps` is the progressive ladder (analyst workload only).
pub fn run_phase(
    addr: SocketAddr,
    workload: Workload,
    inputs: &Inputs,
    steps: &[(usize, f64, f64)],
    counters: &mut [u64; CONNECTIONS],
    stop: Stop,
    checkpoint: Option<&RssCheckpoint>,
) -> Phase {
    let start = Barrier::new(CONNECTIONS + 1);
    let probe_ns = host_probe_ns();
    let (steal_before, total_before) = cpu_ticks();
    let (connections, started) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let start = &start;
                let first = counters[conn];
                let rss_at = checkpoint
                    .filter(|c| c.reading.is_none() && c.remaining[conn] > 0)
                    .map(|c| c.remaining[conn]);
                scope.spawn(move || {
                    let client = connect(addr);
                    match (workload, conn) {
                        (Workload::AnalystMix, 0) => {
                            drive_queries(client, inputs, first, stop, rss_at, start)
                        }
                        (Workload::AnalystMix, _) => {
                            drive_progressive(client, inputs, first, steps, stop, rss_at, start)
                        }
                        _ => drive_release(client, inputs, first, PIPELINE, stop, rss_at, start),
                    }
                })
            })
            .collect();
        start.wait();
        let started = Instant::now();
        let connections: Vec<ConnOutcome> = handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect();
        (connections, started)
    });
    for (conn, outcome) in connections.iter().enumerate() {
        counters[conn] = outcome.next_counter;
    }
    let finished = connections
        .iter()
        .map(|c| c.finished)
        .max()
        .unwrap_or(started);
    let (steal_after, total_after) = cpu_ticks();
    Phase {
        seconds: finished.duration_since(started).as_secs_f64().max(1e-9),
        connections,
        steal: (steal_after - steal_before) as f64 / (total_after - total_before).max(1) as f64,
        probe_ns,
    }
}

/// The starting counters of a workload's connections.
pub fn initial_counters() -> [u64; CONNECTIONS] {
    std::array::from_fn(counter_base)
}

/// One RELEASE connection at `depth` for `stop`, for the ladder's
/// single-connection wire rows. Returns the outcome and its seconds.
pub fn single_release(
    addr: SocketAddr,
    inputs: &Inputs,
    first_counter: u64,
    depth: usize,
    stop: Stop,
) -> (ConnOutcome, f64) {
    let start = Barrier::new(1);
    let client = connect(addr);
    let began = Instant::now();
    let outcome = drive_release(client, inputs, first_counter, depth, stop, None, &start);
    let seconds = outcome.finished.duration_since(began).as_secs_f64();
    (outcome, seconds)
}
