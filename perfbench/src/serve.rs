//! The `serve_mixed` workload: a loopback daemon driven by closed-loop
//! clients.
//!
//! Each client owns one connection and sends its next request only after
//! the previous reply is decoded. Four in five requests replay a hot set
//! that set-up warmed; the rest carry matrices never sent before. Half
//! the requests are exact (the `exp_serve` clustered mix), half are
//! decomposed (48-taxon HMDNA samples).
//!
//! A run is split into epochs. Each epoch starts a daemon process of its
//! own (this binary with `--serve-daemon`), so that its result cache
//! starts empty, and replays the same request stream: the `k`-th request
//! of a client is the same in every epoch and meets the same cache state.
//! Latency quantiles count each request at its fastest epoch, which
//! leaves out most of the slowing that load outside the benchmark causes.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mutree_core::{
    plan_solver, solve_plan, CacheOutcome, CancelToken, EnvOverrides, GroupCache, MatrixSource,
    SearchStats, SolvePlan, SolveReport, SolveRequest,
};
use mutree_distmat::DistanceMatrix;
use mutree_engine::wire::{ERROR_HEADER, REPORT_HEADER};
use mutree_engine::ServeError;
use mutree_graph::CompactSets;
use mutree_serve::{read_frame, write_frame, Client, ServeConfig, Server};
use mutree_tree::compare::robinson_foulds;
use mutree_tree::{cluster, Linkage};

use crate::inproc::{DECOMPOSE_BUDGET, MIN_SAMPLES};
use crate::stats::Sample;
use crate::trace::{self, Recorder};
use crate::workload::{self, draw, Stream};
use crate::{check_tree, peak_rss_mib, Metrics, RunResult};

/// Epochs per run, each with a daemon process and a set-up of its own.
const EPOCHS: usize = 5;
/// Closed-loop clients, one connection each.
const CLIENTS: u64 = 2;
/// Hot requests of each kind.
const HOT: u64 = 256;
/// Window length of the closed-loop summary.
const WINDOW_S: f64 = 1.0;
/// Share of requests that replay the hot set, in 1/65536.
const REPLAY_SHARE: u64 = 52_429; // 0.8
/// Share of requests that are exact, in 1/65536.
const EXACT_SHARE: u64 = 32_768; // 0.5
/// Cache hits sent one at a time to profile a warm hit.
const IDLE_HITS: usize = 400;
/// Fresh connections opened to measure the first-request delay.
const FIRST_REQUEST_PROBES: usize = 8;

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        threads: 2,
        ..ServeConfig::default()
    }
}

/// The configuration text whose hash the provenance line records.
pub fn config() -> String {
    let c = serve_config();
    format!(
        "serve_mixed clients={CLIENTS} hot={HOT}+{HOT} replay={REPLAY_SHARE}/65536 \
         exact={EXACT_SHARE}/65536 decompose_taxa={} max_branches={DECOMPOSE_BUDGET} \
         queue_depth={} workers={} threads={} cache_default={} env=none",
        workload::SERVE_DECOMPOSE_TAXA,
        c.queue_depth,
        c.workers,
        c.threads,
        c.cache_default,
    )
}

fn exact_request(m: DistanceMatrix) -> SolveRequest {
    SolveRequest::exact(m)
}

fn decompose_request(m: DistanceMatrix) -> SolveRequest {
    let mut r = SolveRequest::decompose(m);
    r.max_branches = DECOMPOSE_BUDGET;
    r
}

fn matrix(req: &SolveRequest) -> &DistanceMatrix {
    match &req.source {
        MatrixSource::Inline(m) => m,
        MatrixSource::PhylipPath(_) => unreachable!("the benchmark sends inline matrices"),
    }
}

fn is_exact(req: &SolveRequest) -> bool {
    req.kind == mutree_core::SolveKind::Exact
}

struct Hot {
    req: SolveRequest,
    /// The warm-up reply.
    report: SolveReport,
    /// Warm-up round trip: the daemon's cold solve.
    cold: Duration,
}

/// The daemon process of one epoch. Dropping it stops the process and
/// waits for it, on every path out of a run.
struct DaemonProcess {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl DaemonProcess {
    fn spawn() -> Result<(DaemonProcess, SocketAddr), String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg(DAEMON_FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("daemon process: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut p = DaemonProcess {
            child,
            stdin,
            stdout,
        };
        let addr = p
            .read_line("listening")?
            .parse()
            .map_err(|_| "daemon printed a bad address".to_string())?;
        Ok((p, addr))
    }

    /// The rest of the daemon's next line, which must start with `word`.
    fn read_line(&mut self, word: &str) -> Result<String, String> {
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| format!("daemon output: {e}"))?;
        line.trim_end()
            .strip_prefix(word)
            .map(|rest| rest.trim().to_string())
            .ok_or_else(|| format!("daemon printed {line:?}, expected {word}"))
    }

    /// The daemon's executor queue peak depth and peak RSS in MiB.
    fn stats(&mut self) -> Result<(u64, f64), String> {
        let stdin = self.stdin.as_mut().ok_or("daemon input closed")?;
        writeln!(stdin, "stats")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("daemon input: {e}"))?;
        let line = self.read_line("stats")?;
        let mut fields = line.split_whitespace().map(str::parse::<f64>);
        match (fields.next(), fields.next()) {
            (Some(Ok(depth)), Some(Ok(rss))) => Ok((depth as u64, rss)),
            _ => Err(format!("daemon printed bad statistics {line:?}")),
        }
    }
}

impl Drop for DaemonProcess {
    fn drop(&mut self) {
        // A closed input tells the daemon to exit; kill it if it has not
        // within a grace period, then wait for it in either case.
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(2);
        while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The argument that runs this binary as an epoch's daemon process.
pub const DAEMON_FLAG: &str = "--serve-daemon";

/// An epoch's daemon process: binds the loopback daemon and prints its
/// address, answers each `stats` line on standard input with the queue
/// peak depth and peak RSS, and exits when its input closes.
pub fn daemon_main() -> ExitCode {
    let server = match Server::bind("127.0.0.1:0", serve_config()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: daemon bind: {e}");
            return ExitCode::from(3);
        }
    };
    println!("listening {}", server.local_addr());
    for line in std::io::stdin().lock().lines() {
        match line.as_deref().map(str::trim) {
            Ok("stats") => println!(
                "stats {} {}",
                server.executor_stats().peak_depth,
                peak_rss_mib()
            ),
            Ok(_) => {}
            Err(_) => break,
        }
    }
    // The parent has drained the daemon, or is gone; either way nothing
    // more will be served.
    ExitCode::SUCCESS
}

struct Daemon {
    process: DaemonProcess,
    addr: SocketAddr,
    clients: Vec<Client>,
    hot: Vec<Hot>,
}

/// What a daemon reported when its epoch ended.
struct Finish {
    summary: mutree_serve::ServeSummary,
    queue_peak: u64,
    rss_mib: f64,
}

impl Daemon {
    fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Reads the daemon's statistics, closes the clients, drains the
    /// daemon and waits for its process to end.
    fn shut_down(mut self) -> Result<Finish, String> {
        let (queue_peak, rss_mib) = self.process.stats()?;
        drop(std::mem::take(&mut self.clients));
        let summary = Client::connect(self.addr)
            .map_err(|e| e.to_string())?
            .drain()
            .map_err(|e| e.to_string())?;
        drop(self.process);
        Ok(Finish {
            summary,
            queue_peak,
            rss_mib,
        })
    }
}

/// Generates the inputs, starts a daemon process, connects the clients
/// and warms the hot set. Every epoch's daemon gets the same hot set.
fn setup(seed: u64) -> Result<Daemon, String> {
    let reqs: Vec<SolveRequest> = (0..HOT)
        .flat_map(|i| {
            [
                exact_request(workload::serve_exact(seed, i)),
                decompose_request(workload::serve_decompose(seed, i)),
            ]
        })
        .collect();
    let (process, addr) = DaemonProcess::spawn()?;
    let mut clients = (0..CLIENTS)
        .map(|_| Client::connect(addr).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut hot = Vec::with_capacity(reqs.len());
    for req in reqs {
        let t = Instant::now();
        let report = clients[0]
            .solve(&req)
            .map_err(|e| format!("warm-up: {e}"))?;
        hot.push(Hot {
            cold: t.elapsed(),
            req,
            report,
        });
    }
    Ok(Daemon {
        process,
        addr,
        clients,
        hot,
    })
}

/// Compares every warm-up reply with an in-process solve of the same
/// request (cache off, so the answer is computed afresh). Returns the
/// failures, `Σ weight / Σ UPGMM weight` over the hot set, and the mean
/// of (daemon cold round trip − in-process solve time) in ms.
fn verify_hot(hot: &[Hot]) -> (u64, f64, f64) {
    let mut failed = 0;
    let (mut sum_w, mut sum_u, mut extra) = (0.0, 0.0, 0.0);
    for (i, h) in hot.iter().enumerate() {
        let plan = SolvePlan::resolve(h.req.clone().cache(false), &EnvOverrides::none());
        let t = Instant::now();
        let local = solve_plan(&plan);
        let took = t.elapsed();
        let m = matrix(&h.req);
        let same = local.as_ref().is_ok_and(|l| {
            l.weight.to_bits() == h.report.weight.to_bits()
                && robinson_foulds(&l.tree, &h.report.tree) == Ok(0)
        });
        if !same || !check_tree(&h.report.tree, m) {
            eprintln!("hot request {i}: daemon reply differs from the in-process solve");
            failed += 1;
        }
        sum_w += h.report.weight;
        sum_u += cluster(m, Linkage::Maximum).weight();
        extra += (h.cold.as_secs_f64() - took.as_secs_f64()) * 1e3;
    }
    (failed, sum_w / sum_u, extra / hot.len() as f64)
}

/// One request a client is about to send.
struct Pick<'a> {
    req: std::borrow::Cow<'a, SolveRequest>,
    /// The hot entry a replay repeats.
    hot: Option<&'a Hot>,
}

fn pick<'a>(d: &'a Daemon, seed: u64, client: u64, k: u64) -> Pick<'a> {
    let x = draw(seed, Stream::Client, (client << 40) | k);
    let exact = x & 0xffff < EXACT_SHARE;
    let replay = (x >> 16) & 0xffff < REPLAY_SHARE;
    if replay {
        // Hot entries alternate exact, decompose.
        let i = 2 * ((x >> 32) % HOT) as usize + usize::from(!exact);
        let h = &d.hot[i];
        return Pick {
            req: std::borrow::Cow::Borrowed(&h.req),
            hot: Some(h),
        };
    }
    let key = (1 << 48) | (client << 40) | k;
    let req = if exact {
        exact_request(workload::serve_exact(seed, key))
    } else {
        decompose_request(workload::serve_decompose(seed, key))
    };
    Pick {
        req: std::borrow::Cow::Owned(req),
        hot: None,
    }
}

/// Whether a reply is right: a replay must repeat the warm-up answer bit
/// for bit; a fresh reply must be feasible, and exact ones optimal within
/// the UPGMM bound.
fn reply_ok(p: &Pick<'_>, report: &SolveReport) -> bool {
    match p.hot {
        Some(h) => report.weight.to_bits() == h.report.weight.to_bits(),
        None => {
            let m = matrix(&p.req);
            let mut ok = check_tree(&report.tree, m);
            if is_exact(&p.req) {
                ok &= report.is_complete()
                    && report.weight <= cluster(m, Linkage::Maximum).weight() * (1.0 + 1e-12);
            }
            ok
        }
    }
}

/// Per-client tallies of one timed phase.
#[derive(Default)]
struct Tally {
    /// One sample per request, keyed by its position in the client's
    /// stream.
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    replays: [u64; 2],
    hits: [u64; 2],
    stats: SearchStats,
    budget_stops: u64,
    /// Traced only: what the spans do not hold.
    layers: Layers,
}

/// Traced-request sums that come from replies rather than spans.
#[derive(Default, Clone)]
struct Layers {
    /// The daemon's reported solve seconds (top-level stage timings).
    server_solve: f64,
    request_bytes: u64,
    report_bytes: u64,
    requests: u64,
    compact_sets: u64,
    groups: u64,
    /// Requests by class: exact replays answered from the daemon's
    /// cache, fresh exact requests, decomposed requests.
    classes: [Class; 3],
}

/// Request ids of one class and the daemon's reported solve seconds over
/// them.
#[derive(Default, Clone)]
struct Class {
    ids: Vec<u64>,
    solve: f64,
}

const HIT: usize = 0;
const FRESH_EXACT: usize = 1;
const DECOMPOSED: usize = 2;

impl Layers {
    fn add(&mut self, o: &Layers) {
        self.server_solve += o.server_solve;
        self.request_bytes += o.request_bytes;
        self.report_bytes += o.report_bytes;
        self.requests += o.requests;
        self.compact_sets += o.compact_sets;
        self.groups += o.groups;
        for (c, oc) in self.classes.iter_mut().zip(&o.classes) {
            c.ids.extend_from_slice(&oc.ids);
            c.solve += oc.solve;
        }
    }
}

impl Tally {
    fn record(
        &mut self,
        p: &Pick<'_>,
        key: u64,
        at: f64,
        took: Duration,
        outcome: Result<SolveReport, String>,
    ) {
        self.attempted += 1;
        self.samples.push((at, took.as_secs_f64() * 1e3, key));
        let kind = usize::from(!is_exact(&p.req));
        match outcome {
            Ok(report) => {
                if p.hot.is_some() {
                    self.replays[kind] += 1;
                    self.hits[kind] += u64::from(report.stats.cache_hits >= 1);
                }
                self.stats.merge(&report.stats);
                self.budget_stops += u64::from(!report.is_complete());
                if !reply_ok(p, &report) {
                    eprintln!("serve reply failed its check (weight {})", report.weight);
                    self.failed += 1;
                }
            }
            Err(e) => {
                eprintln!("serve request failed: {e}");
                self.failed += 1;
            }
        }
    }
}

/// One client's connections: the public client, and in traced runs a
/// raw connection whose codec steps can be timed.
struct Conn {
    client: Client,
    raw: Option<RawConn>,
}

/// Runs the closed loop of epoch `epoch` on every client for at least
/// `seconds`. With several `modes`, 1 s windows alternate between them,
/// so that a drift in the host's speed touches every mode alike; each
/// client sends at least its share of [`MIN_SAMPLES`] requests in every
/// mode. `send` performs one request in one mode. Returns, per mode, the
/// clients' tallies and the seconds of the windows given to the mode.
fn closed_loop(
    d: &Daemon,
    seed: u64,
    epoch: u64,
    seconds: f64,
    modes: usize,
    conns: Vec<Conn>,
    send: impl Fn(&mut Conn, &Pick<'_>, u64, usize, &mut Layers) -> (Result<SolveReport, String>, Duration)
        + Sync,
) -> Vec<(Vec<Tally>, f64)> {
    let start = Instant::now();
    let per_client = MIN_SAMPLES.div_ceil(conns.len());
    let per_client_tallies = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                let send = &send;
                s.spawn(move || {
                    let mut t: Vec<Tally> = (0..modes).map(|_| Tally::default()).collect();
                    let mut k = 0u64;
                    while start.elapsed().as_secs_f64() < seconds
                        || t.iter().any(|t| t.samples.len() < per_client)
                    {
                        let mode = (start.elapsed().as_secs_f64() / WINDOW_S) as usize % modes;
                        let p = pick(d, seed, c as u64, k);
                        let key = ((c as u64) << 40) | k;
                        let req_id = (epoch << 48) | key;
                        let tally = &mut t[mode];
                        let (outcome, took) = send(&mut conn, &p, req_id, mode, &mut tally.layers);
                        let broken = outcome.is_err();
                        tally.record(&p, key, start.elapsed().as_secs_f64(), took, outcome);
                        k += 1;
                        if broken {
                            break;
                        }
                    }
                    t
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<Vec<Tally>>>()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut by_mode: Vec<(Vec<Tally>, f64)> = (0..modes).map(|_| (Vec::new(), 0.0)).collect();
    for client in per_client_tallies {
        for (mode, t) in client.into_iter().enumerate() {
            by_mode[mode].0.push(t);
        }
    }
    let mut w = 0;
    while (w as f64) * WINDOW_S < wall {
        let end = (((w + 1) as f64) * WINDOW_S).min(wall);
        by_mode[w % modes].1 += end - w as f64 * WINDOW_S;
        w += 1;
    }
    by_mode
}

/// One request through the public client, timed.
fn untraced_request(conn: &mut Conn, p: &Pick<'_>) -> (Result<SolveReport, String>, Duration) {
    let t = Instant::now();
    let r = conn.client.solve(&p.req).map_err(|e| e.to_string());
    (r, t.elapsed())
}

/// A raw connection for the traced phase: the same frames `Client::solve`
/// exchanges, with the codec calls split out so they can be timed.
struct RawConn {
    stream: TcpStream,
    tag: u32,
    cache: GroupCache,
    sig: u64,
}

impl RawConn {
    /// Connects, and files the hot set's exact answers in the private
    /// cache so that its probes find what the daemon's cache finds.
    fn connect(d: &Daemon, sig: u64) -> std::io::Result<RawConn> {
        let cache = GroupCache::new();
        for h in d.hot.iter().filter(|h| is_exact(&h.req)) {
            if let CacheOutcome::Miss(q) = cache.probe(matrix(&h.req), sig).outcome {
                cache.insert(q, &h.report.tree, h.report.weight);
            }
        }
        RawConn::open(d.addr(), cache, sig)
    }

    fn open(addr: SocketAddr, cache: GroupCache, sig: u64) -> std::io::Result<RawConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(RawConn {
            stream,
            tag: 1,
            cache,
            sig,
        })
    }

    /// Sends an encoded request and returns the response text.
    fn exchange(&mut self, text: &str) -> Result<String, String> {
        let tag = self.tag;
        self.tag = self.tag.wrapping_add(1);
        write_frame(&mut self.stream, tag, text.as_bytes()).map_err(|e| e.to_string())?;
        self.stream.flush().map_err(|e| e.to_string())?;
        let (got, bytes) = read_frame(&mut self.stream)
            .map_err(|e| e.to_string())?
            .ok_or("daemon closed the connection")?;
        if got != tag {
            return Err(format!("response tag {got} for request tag {tag}"));
        }
        String::from_utf8(bytes).map_err(|_| "response is not UTF-8".to_string())
    }
}

fn decode_response(text: &str) -> Result<SolveReport, String> {
    let header = text.lines().next().unwrap_or("").trim_end();
    if header == REPORT_HEADER {
        SolveReport::decode(text).map_err(|e| e.to_string())
    } else if header == ERROR_HEADER {
        Err(ServeError::decode(text).map_or_else(|e| e.to_string(), |e| e.to_string()))
    } else {
        Err(format!("unexpected response header {header:?}"))
    }
}

/// One traced request: encode, exchange and decode are spans under the
/// request; the daemon-side steps are repeated on the client afterwards
/// (outside the request span) to time them.
fn traced_request(
    rec: &Recorder,
    conn: &mut RawConn,
    p: &Pick<'_>,
    req_id: u64,
    l: &mut Layers,
) -> (Result<SolveReport, String>, Duration) {
    let t = Instant::now();
    let root = rec.open("serve.request", None, req_id);
    let rid = Some(root.id());
    let text = rec.span("engine.request_encode", rid, req_id, || p.req.encode());
    let reply = rec.span("serve.wire", rid, req_id, || conn.exchange(&text));
    let report = rec.span("engine.report_decode", rid, req_id, || {
        reply
            .as_deref()
            .map_err(|e| e.clone())
            .and_then(decode_response)
    });
    rec.close(root);
    let took = t.elapsed();
    let Ok(report) = report else {
        return (report, took);
    };
    let reply = reply.expect("a decoded report came from a reply");

    // Replicas of the daemon's own steps on the same bytes.
    let decoded = rec.span("engine.request_decode", None, req_id, || {
        SolveRequest::decode(&text)
    });
    let Ok(mut decoded) = decoded else {
        return (Err("request does not decode".into()), took);
    };
    if decoded.cache.is_none() {
        decoded = decoded.cache(true);
    }
    let plan = rec.span("engine.plan_resolve", None, req_id, || {
        SolvePlan::resolve(decoded, &EnvOverrides::none())
    });
    let m = matrix(&plan.request);
    if is_exact(&plan.request) {
        let probe = rec.span("engine.cache_probe", None, req_id, || {
            conn.cache.probe(m, conn.sig)
        });
        if let CacheOutcome::Miss(query) | CacheOutcome::Seed { query, .. } = probe.outcome {
            if report.is_complete() {
                rec.span("engine.cache_insert", None, req_id, || {
                    conn.cache.insert(query, &report.tree, report.weight)
                });
            }
        }
    } else {
        let cs = rec.span("graph.compact_sets", None, req_id, || CompactSets::find(m));
        let groups = rec.span("graph.partition", None, req_id, || {
            cs.partition(plan.request.threshold.max(2))
        });
        l.compact_sets += cs.len() as u64;
        l.groups += groups.len() as u64;
    }
    let reencoded = rec.span("engine.report_encode", None, req_id, || report.encode());
    if reencoded != reply {
        return (
            Err("report does not re-encode to the bytes received".into()),
            took,
        );
    }
    let solve: f64 = report
        .timings
        .iter()
        .filter(|t| !t.stage.contains('/'))
        .map(|t| t.seconds)
        .sum();
    l.server_solve += solve;
    let class = if !is_exact(&p.req) {
        Some(DECOMPOSED)
    } else if p.hot.is_none() {
        Some(FRESH_EXACT)
    } else {
        (report.stats.cache_hits >= 1).then_some(HIT)
    };
    if let Some(c) = class {
        l.classes[c].ids.push(req_id);
        l.classes[c].solve += solve;
    }
    l.request_bytes += text.len() as u64;
    l.report_bytes += reply.len() as u64;
    l.requests += 1;
    (Ok(report), took)
}

/// Median delay a brand-new connection adds to its first request: the
/// first round trip of a cached request on a fresh connection minus the
/// median warm round trip of the same request.
fn first_request_ms(d: &Daemon, sig: u64) -> Result<f64, String> {
    let req = d
        .hot
        .iter()
        .find(|h| is_exact(&h.req))
        .ok_or("no exact hot request")?
        .req
        .encode();
    let mut warm = RawConn::open(d.addr(), GroupCache::new(), sig).map_err(|e| e.to_string())?;
    let mut warm_ms = Vec::new();
    for _ in 0..50 {
        let t = Instant::now();
        warm.exchange(&req)?;
        warm_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let warm = crate::stats::median(&warm_ms);
    let mut first = Vec::new();
    for _ in 0..FIRST_REQUEST_PROBES {
        let t = Instant::now();
        let mut conn =
            RawConn::open(d.addr(), GroupCache::new(), sig).map_err(|e| e.to_string())?;
        conn.exchange(&req)?;
        first.push(t.elapsed().as_secs_f64() * 1e3 - warm);
    }
    Ok(crate::stats::median(&first))
}

/// `(attempted, failed, closed-loop summary)` of one mode over all
/// epochs, each given as its clients' tallies and the mode's seconds.
fn totals(epochs: &[(Vec<Tally>, f64)]) -> Result<(u64, u64, crate::stats::Summary), String> {
    let tallies = || epochs.iter().flat_map(|(t, _)| t);
    let attempted = tallies().map(|t| t.attempted).sum();
    let failed = tallies().map(|t| t.failed).sum();
    let samples: Vec<(Vec<Sample>, f64)> = epochs
        .iter()
        .map(|(t, wall)| {
            (
                t.iter().flat_map(|t| t.samples.iter().copied()).collect(),
                *wall,
            )
        })
        .collect();
    let summary =
        crate::stats::closed_loop(&samples).ok_or("too few requests for a 95th percentile")?;
    Ok((attempted, failed, summary))
}

/// Runs `serve_mixed`.
pub fn run(seed: u64, seconds: f64, trace_run: bool) -> RunResult {
    match run_inner(seed, seconds, trace_run) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve_mixed: {e}");
            RunResult {
                attempted: 1,
                failed: 1,
                metrics: Metrics::default(),
                spans: None,
                extra: e,
            }
        }
    }
}

/// The daemon's solver signature for exact requests, as the daemon
/// derives it: a cancel token on every request, so the interruptible
/// signature gates its cache.
fn exact_sig(hot: &[Hot]) -> Result<u64, String> {
    let exact = hot
        .iter()
        .find(|h| is_exact(&h.req))
        .ok_or("no exact hot request")?;
    let plan = SolvePlan::resolve(exact.req.clone().cache(true), &EnvOverrides::none());
    plan_solver(&plan)
        .cancel_token(CancelToken::new())
        .cache_sig_interruptible()
        .ok_or_else(|| "exact requests are not cacheable".to_string())
}

fn run_inner(seed: u64, seconds: f64, trace_run: bool) -> Result<RunResult, String> {
    let epoch_s = seconds / EPOCHS as f64;
    let mut setup_times = Vec::new();
    let (mut hot_failed, mut cost_ratio, mut cold_extra_ms) = (0, 0.0, 0.0);
    let mut first_weights: Vec<u64> = Vec::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut shed, mut errors, mut panicked, mut queue_peak) = (0, 0, 0, 0);
    let mut daemon_rss = 0.0f64;
    let rec = Arc::new(Recorder::new());
    let mut idle = None;
    for epoch in 0..EPOCHS {
        let t = Instant::now();
        let mut d = setup(seed)?;
        setup_times.push(t.elapsed().as_secs_f64());
        if epoch == 0 {
            (hot_failed, cost_ratio, cold_extra_ms) = verify_hot(&d.hot);
            first_weights = d.hot.iter().map(|h| h.report.weight.to_bits()).collect();
        } else {
            // Every epoch's daemon must answer the hot set as the first did.
            for (i, (h, w)) in d.hot.iter().zip(&first_weights).enumerate() {
                if h.report.weight.to_bits() != *w {
                    eprintln!("hot request {i}: epoch {epoch} answered differently");
                    hot_failed += 1;
                }
            }
        }
        let clients = std::mem::take(&mut d.clients);
        if trace_run {
            let sig = exact_sig(&d.hot)?;
            let conns = clients
                .into_iter()
                .map(|client| {
                    let raw = RawConn::connect(&d, sig).map_err(|e| e.to_string())?;
                    Ok(Conn {
                        client,
                        raw: Some(raw),
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            let mut by_mode = closed_loop(
                &d,
                seed,
                epoch as u64,
                epoch_s,
                2,
                conns,
                |conn, p, id, mode, l| match (mode, conn.raw.as_mut()) {
                    (1, Some(raw)) => traced_request(&rec, raw, p, id, l),
                    _ => untraced_request(conn, p),
                },
            );
            traced.push(by_mode.pop().expect("two modes"));
            plain.push(by_mode.pop().expect("two modes"));
            if epoch + 1 == EPOCHS {
                idle = Some((idle_hits(&d, sig)?, first_request_ms(&d, sig)?));
            }
        } else {
            let conns = clients
                .into_iter()
                .map(|client| Conn { client, raw: None })
                .collect();
            let mut by_mode = closed_loop(
                &d,
                seed,
                epoch as u64,
                epoch_s,
                1,
                conns,
                |conn, p, _, _, _| untraced_request(conn, p),
            );
            plain.push(by_mode.remove(0));
        }
        let fin = d.shut_down()?;
        shed += fin.summary.shed;
        errors += fin.summary.errors;
        panicked += fin.summary.panicked;
        queue_peak = queue_peak.max(fin.queue_peak);
        daemon_rss = daemon_rss.max(fin.rss_mib);
    }
    let mut metrics = Metrics::default();
    let (p_attempted, p_failed, plain_summary) = totals(&plain)?;
    if !trace_run {
        let failed = p_failed + hot_failed + shed + errors + panicked;
        crate::end_to_end(
            &mut metrics,
            &setup_times,
            p_attempted,
            failed,
            plain_summary,
            cost_ratio,
            daemon_rss,
        );
        return Ok(RunResult {
            attempted: p_attempted,
            failed,
            metrics,
            spans: None,
            extra: String::new(),
        });
    }

    let ((idle_hits, idle_layers), first_ms) = idle.expect("the last epoch profiles idle hits");
    let (t_attempted, t_failed, traced_summary) = totals(&traced)?;
    let attempted = p_attempted + t_attempted;
    let failed = hot_failed + p_failed + t_failed + shed + errors + panicked;

    let mut l = Layers::default();
    let mut stats = SearchStats::default();
    let (mut replays, mut hits, mut budget_stops) = ([0u64; 2], [0u64; 2], 0);
    for t in traced.iter().flat_map(|(t, _)| t) {
        l.add(&t.layers);
        stats.merge(&t.stats);
        budget_stops += t.budget_stops;
        for k in 0..2 {
            replays[k] += t.replays[k];
            hits[k] += t.hits[k];
        }
    }
    let spans = rec.spans();
    let names = trace::by_name(&spans);
    let sec = |name: &str| names.get(name).map_or(0.0, |v| v.0 as f64 * 1e-9);
    let roots = sec("serve.request");
    // What is left of the socket exchange once everything the daemon was
    // measured doing is taken out: framing, queueing, syscalls and, for
    // decomposed requests, condensation and task-graph overhead.
    let transport = sec("serve.wire")
        - l.server_solve
        - sec("engine.request_decode")
        - sec("engine.plan_resolve")
        - sec("engine.report_encode")
        - sec("graph.compact_sets")
        - sec("graph.partition");
    let requests = l.requests.max(1) as f64;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    let idle = Profile::of(&idle_hits, &idle_layers.classes[HIT]);
    let loaded: Vec<Profile> = l.classes.iter().map(|c| Profile::of(&spans, c)).collect();
    metrics.push("bnb.branched", stats.branched as f64, "count");
    metrics.push("bnb.pruned", stats.pruned as f64, "count");
    metrics.push(
        "bnb.propagation_pruned",
        stats.propagation_pruned as f64,
        "count",
    );
    metrics.push(
        "bnb.incumbent_updates",
        stats.incumbent_updates as f64,
        "count",
    );
    metrics.push("bnb.peak_pool", stats.peak_pool as f64, "count");
    metrics.push(
        "bnb.pruned_per_branched",
        ratio(stats.pruned, stats.branched),
        "ratio",
    );
    metrics.push("graph.compact_sets_s", sec("graph.compact_sets"), "s");
    metrics.push("graph.compact_sets", l.compact_sets as f64, "count");
    metrics.push("graph.partition_s", sec("graph.partition"), "s");
    metrics.push("graph.groups", l.groups as f64, "count");
    metrics.push("core.budget_stops", budget_stops as f64, "count");
    metrics.push("engine.request_encode_s", sec("engine.request_encode"), "s");
    metrics.push("engine.request_decode_s", sec("engine.request_decode"), "s");
    metrics.push("engine.plan_resolve_s", sec("engine.plan_resolve"), "s");
    metrics.push("engine.cache_probe_s", sec("engine.cache_probe"), "s");
    metrics.push("engine.cache_insert_s", sec("engine.cache_insert"), "s");
    metrics.push("engine.report_encode_s", sec("engine.report_encode"), "s");
    metrics.push("engine.report_decode_s", sec("engine.report_decode"), "s");
    metrics.push(
        "engine.request_bytes",
        l.request_bytes as f64 / requests,
        "B",
    );
    metrics.push("engine.report_bytes", l.report_bytes as f64 / requests, "B");
    metrics.push(
        "engine.cache_hit_ratio.exact",
        ratio(hits[0], replays[0]),
        "ratio",
    );
    metrics.push(
        "engine.cache_hit_ratio.decompose",
        ratio(hits[1], replays[1]),
        "ratio",
    );
    metrics.push("serve.roundtrip_s", roots, "s");
    metrics.push("serve.server_solve_s", l.server_solve, "s");
    metrics.push("serve.transport_s", transport, "s");
    metrics.push("serve.first_request_ms", first_ms, "ms");
    metrics.push("serve.queue_peak_depth", queue_peak as f64, "count");
    metrics.push("serve.shed", shed as f64, "count");
    metrics.push("serve.errors", errors as f64, "count");
    metrics.push("serve.hit_roundtrip_us", idle.total, "us");
    metrics.push("serve.cold_extra_ms", cold_extra_ms, "ms");
    // The layers partition each request span: the client codec spans and
    // the exchange, which the daemon steps repeated on the client, the
    // daemon's reported solve time and the transport residual split. So
    // only client-side glue between the spans is left uncovered.
    let covered = sec("engine.request_encode") + sec("serve.wire") + sec("engine.report_decode");
    metrics.push("trace.coverage", covered / roots, "ratio");
    let plain_tp = plain_summary.0;
    metrics.push("trace.overhead", traced_summary.0 / plain_tp, "ratio");
    metrics.push("trace.samples", t_attempted as f64, "count");
    metrics.push("trace.untraced_throughput_per_s", plain_tp, "1/s");
    let extra = format!(
        "{} Under the mixed load: {} {} {} Cold daemon round trip minus in-process solve, mean \
         over the hot set: {:.3} ms. Untraced p50 {:.4} ms, traced p50 {:.4} ms.",
        idle.describe("exact cache hits on an idle daemon"),
        loaded[HIT].describe("exact cache hits"),
        loaded[FRESH_EXACT].describe("fresh exact requests"),
        loaded[DECOMPOSED].describe("decomposed requests"),
        cold_extra_ms,
        plain_summary.1,
        traced_summary.1,
    );
    Ok(RunResult {
        attempted,
        failed,
        metrics,
        spans: Some(spans),
        extra,
    })
}

/// Mean per-request microseconds of one class of traced requests, per
/// layer.
#[derive(Default)]
struct Profile {
    count: usize,
    total: f64,
    encode: f64,
    decode: f64,
    wire: f64,
    req_decode: f64,
    plan: f64,
    probe: f64,
    insert: f64,
    graph: f64,
    solve: f64,
    report_encode: f64,
}

impl Profile {
    fn of(spans: &[trace::Span], class: &Class) -> Profile {
        let ids: std::collections::HashSet<u64> = class.ids.iter().copied().collect();
        let mut p = Profile {
            count: ids.len(),
            solve: class.solve,
            ..Profile::default()
        };
        for s in spans.iter().filter(|s| ids.contains(&s.req)) {
            let v = s.duration() as f64 * 1e-9;
            let slot = match s.name {
                "serve.request" => &mut p.total,
                "engine.request_encode" => &mut p.encode,
                "engine.report_decode" => &mut p.decode,
                "serve.wire" => &mut p.wire,
                "engine.request_decode" => &mut p.req_decode,
                "engine.plan_resolve" => &mut p.plan,
                "engine.cache_probe" => &mut p.probe,
                "engine.cache_insert" => &mut p.insert,
                "graph.compact_sets" | "graph.partition" => &mut p.graph,
                "engine.report_encode" => &mut p.report_encode,
                _ => continue,
            };
            *slot += v;
        }
        let per = 1e6 / p.count.max(1) as f64;
        for v in [
            &mut p.total,
            &mut p.encode,
            &mut p.decode,
            &mut p.wire,
            &mut p.req_decode,
            &mut p.plan,
            &mut p.probe,
            &mut p.insert,
            &mut p.graph,
            &mut p.solve,
            &mut p.report_encode,
        ] {
            *v *= per;
        }
        p
    }

    fn describe(&self, what: &str) -> String {
        format!(
            "{what}, mean us over {}: round trip {:.1} = request encode {:.1} + report decode \
             {:.1} + socket exchange {:.1}; the exchange holds daemon request decode {:.1}, plan \
             {:.1}, compact sets and partition {:.1}, reported solve {:.1} (of which cache probe \
             with canonical maxmin {:.1} and insert {:.1}), report encode {:.1} and a transport \
             residual {:.1}.",
            self.count,
            self.total,
            self.encode,
            self.decode,
            self.wire,
            self.req_decode,
            self.plan,
            self.graph,
            self.solve,
            self.probe,
            self.insert,
            self.report_encode,
            self.wire - self.req_decode - self.plan - self.graph - self.solve - self.report_encode,
        )
    }
}

/// Hot exact requests sent one at a time on an otherwise idle daemon
/// (every one a cache hit), traced like the closed loop's requests.
fn idle_hits(d: &Daemon, sig: u64) -> Result<(Vec<trace::Span>, Layers), String> {
    let rec = Recorder::new();
    let mut conn = RawConn::connect(d, sig).map_err(|e| e.to_string())?;
    let mut l = Layers::default();
    let exact: Vec<&Hot> = d.hot.iter().filter(|h| is_exact(&h.req)).collect();
    for j in 0..IDLE_HITS {
        let h = exact[j % exact.len()];
        let p = Pick {
            req: std::borrow::Cow::Borrowed(&h.req),
            hot: Some(h),
        };
        let (outcome, _) = traced_request(&rec, &mut conn, &p, j as u64, &mut l);
        if !outcome.is_ok_and(|r| reply_ok(&p, &r)) {
            return Err("an idle cache hit failed its check".into());
        }
    }
    Ok((rec.spans(), l))
}
