//! `serve` workload: an in-process `Server` at its default configuration,
//! driven as an open loop with seeded Poisson arrivals.
//!
//! One connection per phase, with a sender thread (paces requests to
//! their scheduled times and writes them with `Client::send`) and a
//! receiver thread (reads frames, decodes them with `proto::decode_reply`
//! and checks `req_id` and the popcount oracle on every `Ok` reply).
//! Latency runs from when a request was *due*, so a stall also delays
//! every request scheduled behind it. Refused replies (`Overloaded`,
//! `DeadlineExceeded`, `Internal`, ...), connection errors and requests
//! unanswered when the phase ends count as failed and as missing the
//! latency limit; nothing is retried.

use std::net::{Shutdown, SocketAddr};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use absort_circuit::{CompileOptions, OptLevel};
use absort_serve::cache::{CacheKey, CircuitCache};
use absort_serve::{
    proto, sorted_oracle, Client, NetKind, Reply, ReplyPayload, Request, ServeConfig, ServeStats,
    Server, Status,
};

use crate::library;
use crate::rng::Rng;
use crate::stats::{median, quantile, us};
use crate::trace::{Tracer, ROOT};
use crate::{peak_rss_mb, BenchError, Outcome};

/// p99 latency limit (µs) for `serve_max_rps`. Latency runs from each
/// request's due time, and on a 2-vCPU VM the sender alone runs more
/// than 2 ms behind its schedule at p99, so a tighter limit reads 0 at
/// every rate whatever the server does (see README.md).
pub const P99_LIMIT_US: f64 = 10_000.0;
/// Shares of the run at the low and the high rate; the ladder gets the
/// rest, split evenly over its steps.
const LO_SHARE: f64 = 0.2;
const HI_SHARE: f64 = 0.2;
/// A phase stops once its sender runs this far behind the schedule: the
/// server is not keeping up.
const ABORT_LATE: Duration = Duration::from_millis(250);
/// The mix's widths: `LARGE_N` for one request in `LARGE_EVERY`.
pub const SMALL_N: usize = 64;
pub const LARGE_N: usize = 1024;
const LARGE_EVERY: u64 = 8;
/// Share of the untraced run's seconds the serving phases are planned
/// for; circuit rounds between the server instances fill the rest.
const SERVE_SHARE: f64 = 0.5;

#[derive(Debug, Clone)]
pub struct Config {
    /// Fixed arrival rates (requests per second).
    pub lo_rate: f64,
    pub hi_rate: f64,
    /// Rising rates probed for `serve_max_rps`, dealt round-robin to the
    /// server instances (each climbs its share in rising order).
    pub ladder: Vec<f64>,
    /// Requests per window of the latency quantiles.
    pub window: usize,
    /// How long a phase waits for outstanding replies after its schedule.
    pub drain: Duration,
    /// Server instances per run; each start + warm-up is a timed set-up.
    pub setup_reps: usize,
    /// The served circuits, built, compiled and sorted between server
    /// instances for the end-to-end circuit metrics.
    pub circuits: library::Config,
}

impl Config {
    /// The low and high rates are about 10% and 30% of the
    /// `serve_max_rps` measured on a 2-vCPU Xeon VM (42802–56606/s over
    /// three seeds): at 30000/s the server shed requests in a quarter of
    /// the high-rate phases when the shared host was slow, and a
    /// workload's fixed-rate phases must not fail. The ladder's top steps
    /// overload the server there.
    pub fn standard() -> Config {
        Config {
            lo_rate: 5_000.0,
            hi_rate: 15_000.0,
            ladder: (0..19)
                .map(|i| (8000.0 * 1.15f64.powi(i)).round())
                .collect(),
            window: 1000,
            drain: Duration::from_millis(1000),
            setup_reps: 6,
            circuits: library::Config::serve(),
        }
    }
}

/// The `(network, width)` pairs the mix draws from.
pub fn keys() -> Vec<(NetKind, usize)> {
    NetKind::ALL
        .iter()
        .flat_map(|&k| [(k, SMALL_N), (k, LARGE_N)])
        .collect()
}

/// One scheduled request.
pub struct Planned {
    /// Due time after the phase start.
    pub due: Duration,
    pub net: NetKind,
    pub bits: Vec<bool>,
    pub ones: usize,
}

/// A Poisson schedule at `rate` for `secs`: networks uniform over the
/// three served sorters, width `large_n` for one request in
/// `large_every`, uniform random bits.
pub fn plan(seed: u64, stream: u64, rate: f64, secs: f64) -> Vec<Planned> {
    let mut rng = Rng::new(seed, 0x5e7e_0000 + stream);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += rng.exp(1.0 / rate);
        if t >= secs {
            return out;
        }
        let net = NetKind::ALL[rng.below(3) as usize];
        let n = if rng.below(LARGE_EVERY) == 0 {
            LARGE_N
        } else {
            SMALL_N
        };
        let bits = rng.bits(n);
        let ones = bits.iter().filter(|&&b| b).count();
        out.push(Planned {
            due: Duration::from_secs_f64(t),
            net,
            bits,
            ones,
        });
    }
}

/// Whether an `Ok` sort reply is the sorted input: `n` bits, the last
/// `ones` of them set.
fn reply_is_sorted(rep: &Reply, p: &Planned) -> bool {
    match &rep.payload {
        ReplyPayload::Bits(b) => {
            b.len() == p.bits.len()
                && b.iter()
                    .enumerate()
                    .all(|(i, &x)| x == (i + p.ones >= b.len()))
        }
        _ => false,
    }
}

/// What one phase observed.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub rate: f64,
    pub planned: u64,
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    /// Per sent request: µs from due time to reply (failed requests get
    /// the time from due to the end of the phase).
    pub latency_us: Vec<f64>,
    /// Per sent request: µs the sender ran behind the schedule.
    pub late_us: Vec<f64>,
    /// Requests outstanding when the schedule ended.
    pub backlog_end: u64,
    /// The sender fell too far behind and stopped early.
    pub aborted: bool,
}

impl Phase {
    pub fn p(&self, q: f64) -> f64 {
        quantile(&self.latency_us, q)
    }

    /// The `q`-quantile of each consecutive window of `window` requests,
    /// in schedule order (a short tail joins the last window).
    pub fn windows(&self, q: f64, window: usize) -> Vec<f64> {
        let k = (self.latency_us.len() / window.max(1)).max(1);
        (0..k)
            .map(|i| {
                let end = if i + 1 == k {
                    self.latency_us.len()
                } else {
                    (i + 1) * window
                };
                quantile(&self.latency_us[i * window..end], q)
            })
            .collect()
    }

    /// The median of the per-window quantiles: one scheduling hiccup
    /// moves one window, not the reported figure.
    pub fn windowed(&self, q: f64, window: usize) -> f64 {
        median(&self.windows(q, window))
    }

    /// Whether the server kept up: nothing failed, the sender never fell
    /// behind, and the backlog did not grow (no more outstanding at the
    /// end than twice what the rate keeps in flight at the latency limit).
    pub fn kept_up(&self) -> bool {
        let allowed = self.rate * P99_LIMIT_US * 1e-6 * 2.0 + 8.0;
        !self.aborted && self.failed == 0 && self.sent > 0 && (self.backlog_end as f64) <= allowed
    }
}

/// Sleeps until `due`. A sleeping sender keeps the scheduler's wake-up
/// preference, which spinning would lose on a box with few cores.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Per-request times the threads record, turned into spans afterwards.
struct Sent {
    start: Instant,
    end: Instant,
}

/// Runs one open-loop phase against `addr`. Returns a mismatch error if
/// any `Ok` reply fails its check.
pub fn run_phase(
    addr: SocketAddr,
    cfg: &Config,
    plan: &[Planned],
    rate: f64,
    tr: &Tracer,
) -> Result<Phase, BenchError> {
    let mut client =
        Client::connect(addr).map_err(|e| BenchError::Setup(format!("connect {addr}: {e}")))?;
    let mut rstream = client
        .stream()
        .try_clone()
        .map_err(|e| BenchError::Setup(format!("clone stream: {e}")))?;
    let received = AtomicU64::new(0);
    let start = Instant::now() + Duration::from_millis(2);
    let n_plan = plan.len();

    let (send_res, recv_res) = std::thread::scope(|s| {
        let receiver = s.spawn(|| {
            // status per request: None = unanswered.
            let mut status: Vec<Option<Status>> = vec![None; n_plan];
            let mut arrived: Vec<Option<(Instant, Instant)>> = vec![None; n_plan];
            let mut error: Option<String> = None;
            // Ends when the sender shuts the socket down (or the server
            // drops the connection: its unanswered requests then fail).
            while let Ok(Some(body)) = proto::read_frame(&mut rstream) {
                let t0 = Instant::now();
                let rep = match proto::decode_reply(&body) {
                    Ok(rep) => rep,
                    Err(e) => {
                        error = Some(format!("undecodable reply frame: {e}"));
                        break;
                    }
                };
                let idx = rep.req_id as usize;
                if idx >= n_plan || status[idx].is_some() {
                    error = Some(format!("reply with unexpected req_id {}", rep.req_id));
                    break;
                }
                if rep.status == Status::Ok && !reply_is_sorted(&rep, &plan[idx]) {
                    error = Some(format!(
                        "req_id {idx}: Ok reply differs from the sorted oracle ({} of n={})",
                        plan[idx].net,
                        plan[idx].bits.len()
                    ));
                    break;
                }
                status[idx] = Some(rep.status);
                arrived[idx] = Some((t0, Instant::now()));
                received.fetch_add(1, Ordering::SeqCst);
            }
            (status, arrived, error)
        });

        let mut sends: Vec<Sent> = Vec::with_capacity(n_plan);
        let mut late = Vec::with_capacity(n_plan);
        let mut aborted = false;
        for (i, p) in plan.iter().enumerate() {
            let due = start + p.due;
            wait_until(due);
            if due.elapsed() > ABORT_LATE {
                aborted = true;
                break;
            }
            let t0 = Instant::now();
            let req = Request::sort(p.net, i as u64, &p.bits);
            if client.send(&req).is_err() {
                break;
            }
            sends.push(Sent {
                start: t0,
                end: Instant::now(),
            });
            late.push(us(t0 - due));
        }
        let n_sent = sends.len() as u64;
        let backlog_end = n_sent - received.load(Ordering::SeqCst);
        let drain_until = Instant::now() + cfg.drain;
        while received.load(Ordering::SeqCst) < n_sent && Instant::now() < drain_until {
            std::thread::sleep(Duration::from_micros(200));
        }
        let end = Instant::now();
        let _ = client.stream().shutdown(Shutdown::Both);
        let recv = receiver.join().expect("receiver thread panicked");
        ((sends, late, aborted, backlog_end, end), recv)
    });
    let (sends, late, aborted, backlog_end, end) = send_res;
    let (status, arrived, error) = recv_res;
    if let Some(e) = error {
        return Err(BenchError::Mismatch(e));
    }

    let mut ph = Phase {
        rate,
        planned: n_plan as u64,
        sent: sends.len() as u64,
        late_us: late,
        backlog_end,
        aborted,
        ..Phase::default()
    };
    let phase_span = tr.reserve();
    for (i, s) in sends.iter().enumerate() {
        let due = start + plan[i].due;
        match (status[i], arrived[i]) {
            (Some(Status::Ok), Some((t0, t1))) => {
                ph.ok += 1;
                ph.latency_us.push(us(t0.saturating_duration_since(due)));
                if tr.enabled() {
                    let rid = tr.reserve();
                    tr.record(rid, phase_span, "request", i as u64, due, t1);
                    tr.record(tr.reserve(), rid, "send", i as u64, s.start, s.end);
                    tr.record(tr.reserve(), rid, "reply", i as u64, t0, t1);
                }
            }
            _ => {
                ph.failed += 1;
                ph.latency_us.push(us(end.saturating_duration_since(due)));
            }
        }
    }
    tr.record(phase_span, ROOT, "phase", rate as u64, start, end);
    Ok(ph)
}

/// Starts a server at its default configuration and warms its compile
/// cache with one checked request per `(network, width)` of the mix.
pub fn start_warm(seed: u64) -> Result<Server, BenchError> {
    let server = Server::start(ServeConfig::default())
        .map_err(|e| BenchError::Setup(format!("server start: {e}")))?;
    let mut client = Client::connect(server.local_addr())
        .map_err(|e| BenchError::Setup(format!("connect: {e}")))?;
    let mut rng = Rng::new(seed, 0x3a77);
    for (i, (net, n)) in keys().into_iter().enumerate() {
        let bits = rng.bits(n);
        let rep = client
            .call(&Request::sort(net, i as u64, &bits))
            .map_err(|e| BenchError::Setup(format!("warm-up {net} n={n}: {e}")))?;
        let ok = rep.status == Status::Ok
            && rep.req_id == i as u64
            && rep.payload == ReplyPayload::Bits(sorted_oracle(&bits));
        if !ok {
            return Err(BenchError::Mismatch(format!(
                "warm-up {net} n={n}: reply is not the sorted input"
            )));
        }
    }
    Ok(server)
}

fn phase_line(name: &str, ph: &Phase, window: usize) {
    eprintln!(
        "serve {name}: rate {:.0}/s sent {} ok {} failed {} p50 {:.1} us p99 {:.1} us \
         (windowed {:.1} / {:.1}) backlog {}{}",
        ph.rate,
        ph.sent,
        ph.ok,
        ph.failed,
        ph.p(0.5),
        ph.p(0.99),
        ph.windowed(0.5, window),
        ph.windowed(0.99, window),
        ph.backlog_end,
        if ph.aborted {
            " (stopped: sender fell behind)"
        } else {
            ""
        }
    );
}

fn base_outcome(cfg: &Config) -> Outcome {
    let mut o = Outcome::default();
    o.param("server_config", "default");
    o.param("networks", "prefix,mux-merger,nonadaptive (uniform)");
    o.param(
        "widths",
        format!(
            "n={} for {} of {}, else n={}",
            LARGE_N, 1, LARGE_EVERY, SMALL_N
        ),
    );
    o.param(
        "arrivals",
        "Poisson, open loop, 1 connection, sender + receiver thread",
    );
    o.param("lo_rate", cfg.lo_rate);
    o.param("hi_rate", cfg.hi_rate);
    let ladder: Vec<String> = cfg.ladder.iter().map(|r| format!("{r:.0}")).collect();
    o.param("ladder", ladder.join(","));
    o.param("p99_limit_us", P99_LIMIT_US);
    o
}

/// Adds a fixed-rate phase to the run's tally; a phase that stopped
/// early also fails every request it never sent. Ladder steps are not
/// tallied: the top steps are meant to overload the server, and their
/// refusals are what `serve_max_rps` measures.
fn account(o: &mut Outcome, ph: &Phase) {
    let unsent = ph.planned - ph.sent;
    o.attempted += ph.sent + unsent;
    o.failed += ph.failed + unsent;
}

/// What the server instances of one run observed.
#[derive(Default)]
struct Measured {
    setup_s: Vec<f64>,
    lo50: Vec<f64>,
    lo99: Vec<f64>,
    hi50: Vec<f64>,
    hi99: Vec<f64>,
    /// High-rate p50 windows per tracer arm (the tracing overhead).
    hi50_arm: Vec<Vec<f64>>,
    /// `(rate, windowed p99, kept up)` per ladder step.
    steps: Vec<(f64, f64, bool)>,
    /// Requests the ladder steps failed (not in the run's tally).
    ladder_failed: u64,
    /// Server counters and sender lateness over the traced arm.
    stats: ServeStats,
    late_us: Vec<f64>,
}

/// Each of `setup_reps` server instances is started and warmed (timed:
/// the set-up), then serves its share of the low-rate phase, the
/// high-rate phase and the ladder, under tracer `arms[instance % len]`.
/// Spreading every phase over instances keeps one instance's placement
/// luck out of the figures; latency quantiles are medians over windows
/// of `cfg.window` requests. Ladder steps are dealt round-robin, each
/// instance climbing its share in rising order.
/// `between` runs after each instance with the share of instances done.
fn measure(
    cfg: &Config,
    seed: u64,
    seconds: f64,
    arms: &[&Tracer],
    o: &mut Outcome,
    mut between: impl FnMut(f64) -> Result<(), BenchError>,
) -> Result<Measured, BenchError> {
    let reps = cfg.setup_reps.max(arms.len());
    let mut m = Measured {
        hi50_arm: vec![Vec::new(); arms.len()],
        ..Measured::default()
    };
    let step_secs = seconds * (1.0 - LO_SHARE - HI_SHARE) / cfg.ladder.len() as f64;
    for r in 0..reps {
        let arm = r % arms.len();
        let tr = arms[arm];
        let traced = arm + 1 == arms.len();
        let t = Instant::now();
        let server = start_warm(seed)?;
        m.setup_s.push(t.elapsed().as_secs_f64());
        let addr = server.local_addr();
        let before = server.stats();
        let stream = 2 * r as u64;

        let p = plan(seed, stream, cfg.lo_rate, seconds * LO_SHARE / reps as f64);
        let lo = run_phase(addr, cfg, &p, cfg.lo_rate, tr)?;
        phase_line("lo", &lo, cfg.window);
        account(o, &lo);
        m.lo50.extend(lo.windows(0.5, cfg.window));
        m.lo99.extend(lo.windows(0.99, cfg.window));

        let p = plan(
            seed,
            stream + 1,
            cfg.hi_rate,
            seconds * HI_SHARE / reps as f64,
        );
        let hi = run_phase(addr, cfg, &p, cfg.hi_rate, tr)?;
        phase_line("hi", &hi, cfg.window);
        account(o, &hi);
        m.hi50.extend(hi.windows(0.5, cfg.window));
        m.hi99.extend(hi.windows(0.99, cfg.window));
        m.hi50_arm[arm].extend(hi.windows(0.5, cfg.window));

        for (i, &rate) in cfg.ladder.iter().enumerate().skip(r).step_by(reps) {
            // Ladder steps record no request spans: at up to 64000/s they
            // would dwarf the fixed-rate phases' trace.
            let p = plan(seed, 64 + i as u64, rate, step_secs);
            let ph = run_phase(addr, cfg, &p, rate, &Tracer::new(false))?;
            phase_line("ladder", &ph, cfg.window);
            m.ladder_failed += ph.failed;
            m.steps
                .push((rate, ph.windowed(0.99, cfg.window), ph.kept_up()));
            if traced {
                m.late_us.extend(&ph.late_us);
            }
        }
        if traced {
            let after = server.stats();
            m.stats.requests += after.requests - before.requests;
            m.stats.batches += after.batches - before.batches;
            m.stats.shed += after.shed - before.shed;
            m.stats.deadline_missed += after.deadline_missed - before.deadline_missed;
            m.stats.write_drops += after.write_drops - before.write_drops;
            m.late_us.extend(lo.late_us.iter().chain(&hi.late_us));
        }
        server.join();
        between((r + 1) as f64 / reps as f64)?;
    }
    o.param("ladder_failed", m.ladder_failed);
    Ok(m)
}

/// The untraced run. The open-loop latency figures swing tenfold with
/// the load on a shared host, so they are per-layer metrics (printed
/// here for the record, reported by the traced run). The end-to-end
/// metrics are the set-up time (server start + warm-up, plus circuit
/// inputs), the peak memory of the whole run, and the circuit metrics of
/// the served circuits, from rounds run between the server instances
/// until each instance's share of `seconds` has passed (at least one
/// round each).
pub fn run(cfg: &Config, seed: u64, seconds: f64) -> Result<Outcome, BenchError> {
    let mut o = base_outcome(cfg);
    let (inputs, inputs_s) = library::timed_setup(&cfg.circuits, seed);
    let mut rounds = library::Rounds::new(&inputs);
    let start = Instant::now();
    let m = measure(
        cfg,
        seed,
        seconds * SERVE_SHARE,
        &[&Tracer::new(false)],
        &mut o,
        |done| rounds.fill(seconds * done - start.elapsed().as_secs_f64()),
    )?;
    let circuits = rounds.finish();
    eprintln!(
        "serve: lo p50 {:.1} us p99 {:.1} us, hi p50 {:.1} us p99 {:.1} us, max {:.0}/s",
        median(&m.lo50),
        median(&m.lo99),
        median(&m.hi50),
        median(&m.hi99),
        max_rps(&m.steps, P99_LIMIT_US)
    );
    library::account(&cfg.circuits, &circuits, "circuits.", &mut o);
    o.push("setup_s", median(&m.setup_s) + inputs_s, "s");
    o.push("peak_rss_mb", peak_rss_mb(), "MB");
    library::push_end_to_end(&circuits, &mut o);
    Ok(o)
}

/// The highest ladder rate the server kept up with (nothing failed, no
/// growing backlog) at a windowed p99 within `limit_us`; 0 if none did.
pub fn max_rps(steps: &[(f64, f64, bool)], limit_us: f64) -> f64 {
    steps
        .iter()
        .filter(|&&(_, p99, kept_up)| kept_up && p99 <= limit_us)
        .map(|s| s.0)
        .fold(0.0, f64::max)
}

/// Median ns per call of `f` over `iters` calls, in 16 timed groups.
fn ns_per_call(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let per = (iters / 16).max(1);
    let groups: Vec<f64> = (0..16)
        .map(|g| {
            let t = Instant::now();
            for i in 0..per {
                f(g * per + i);
            }
            t.elapsed().as_secs_f64() * 1e9 / per as f64
        })
        .collect();
    median(&groups)
}

/// Protocol cost per request round trip at the small width:
/// `(encode_request + encode_reply, decode_request + decode_reply)` ns.
fn proto_probe(seed: u64) -> Result<(f64, f64), BenchError> {
    let mut rng = Rng::new(seed, 0x9207);
    let reqs: Vec<Request> = (0..64)
        .map(|i| Request::sort(NetKind::ALL[i % 3], i as u64, &rng.bits(SMALL_N)))
        .collect();
    let replies: Vec<Reply> = reqs
        .iter()
        .map(|r| Reply {
            status: Status::Ok,
            req_id: r.req_id,
            n: r.n,
            payload: ReplyPayload::Bits(sorted_oracle(&r.bits)),
        })
        .collect();
    let req_frames: Vec<Vec<u8>> = reqs.iter().map(proto::encode_request).collect();
    let rep_frames: Vec<Vec<u8>> = replies.iter().map(proto::encode_reply).collect();
    for (f, r) in req_frames.iter().zip(&reqs) {
        let back = proto::decode_request(&f[4..], proto::DEFAULT_MAX_N);
        if back.as_ref().ok() != Some(r) {
            return Err(BenchError::Mismatch(
                "request codec does not round-trip".into(),
            ));
        }
    }
    let iters = 64_000;
    let encode = ns_per_call(iters, |i| {
        std::hint::black_box(proto::encode_request(&reqs[i % 64]));
        std::hint::black_box(proto::encode_reply(&replies[i % 64]));
    });
    let decode = ns_per_call(iters, |i| {
        let _ = std::hint::black_box(proto::decode_request(
            &req_frames[i % 64][4..],
            proto::DEFAULT_MAX_N,
        ));
        let _ = std::hint::black_box(proto::decode_reply(&rep_frames[i % 64][4..]));
    });
    Ok((encode, decode))
}

/// Closed-loop round trips on an idle server, small width: p50 µs.
fn idle_rtt(addr: SocketAddr, seed: u64, calls: usize) -> Result<f64, BenchError> {
    let mut client = Client::connect(addr).map_err(|e| BenchError::Setup(e.to_string()))?;
    let mut rng = Rng::new(seed, 0x1d1e);
    let mut rtts = Vec::with_capacity(calls);
    for i in 0..calls {
        let net = NetKind::ALL[i % 3];
        let bits = rng.bits(SMALL_N);
        let t = Instant::now();
        let rep = client
            .call(&Request::sort(net, i as u64, &bits))
            .map_err(|e| BenchError::Setup(format!("idle round trip: {e}")))?;
        rtts.push(us(t.elapsed()));
        if rep.status != Status::Ok || rep.payload != ReplyPayload::Bits(sorted_oracle(&bits)) {
            return Err(BenchError::Mismatch(format!(
                "idle round trip {i}: wrong reply"
            )));
        }
    }
    Ok(median(&rtts))
}

/// Time to fill a cold `CircuitCache` with the mix's circuits at the
/// server's default tier.
fn cache_cold_ms(tr: &Tracer) -> f64 {
    let opt: OptLevel = ServeConfig::default().opt;
    let opts = CompileOptions::for_level(opt);
    let t = Instant::now();
    tr.span(ROOT, "cache-fill", 0, |sid| {
        let cache = CircuitCache::new(ServeConfig::default().cache_capacity);
        for (i, (network, n)) in keys().into_iter().enumerate() {
            let key = CacheKey {
                network,
                n: n as u32,
                opt,
            };
            tr.span(sid, "get_or_build", i as u64, |_| {
                cache.get_or_build(key, &opts)
            });
        }
    });
    t.elapsed().as_secs_f64() * 1e3
}

/// The traced run: probes of the cache, the protocol codec and idle
/// round trips, then the untraced run's phases with every other server
/// instance traced (the gap in high-rate p50 is the tracing overhead).
pub fn run_traced(
    cfg: &Config,
    seed: u64,
    seconds: f64,
    tr: &Tracer,
) -> Result<Outcome, BenchError> {
    let mut o = base_outcome(cfg);
    let cold: Vec<f64> = (0..3).map(|_| cache_cold_ms(tr)).collect();
    let (encode_ns, decode_ns) = proto_probe(seed)?;
    let server = start_warm(seed)?;
    let rtt = idle_rtt(server.local_addr(), seed, 2000)?;
    server.join();
    let m = measure(
        cfg,
        seed,
        seconds,
        &[&Tracer::new(false), tr],
        &mut o,
        |_| Ok(()),
    )?;

    o.push("serve_lo_p50_us", median(&m.lo50), "us");
    o.push("serve_lo_p99_us", median(&m.lo99), "us");
    o.push("serve_hi_p50_us", median(&m.hi50), "us");
    o.push("serve_hi_p99_us", median(&m.hi99), "us");
    o.push("serve_max_rps", max_rps(&m.steps, P99_LIMIT_US), "1/s");
    let d = m.stats;
    o.push(
        "serve.batch_fill",
        d.requests as f64 / d.batches.max(1) as f64,
        "req/batch",
    );
    o.push("serve.batches", d.batches as f64, "count");
    o.push("serve.shed", d.shed as f64, "count");
    o.push("serve.deadline_missed", d.deadline_missed as f64, "count");
    o.push("serve.write_drops", d.write_drops as f64, "count");
    o.push("serve.idle_rtt_p50_us", rtt, "us");
    o.push("serve.gen_late_p99_us", quantile(&m.late_us, 0.99), "us");
    o.push("cache.cold_ms", median(&cold), "ms");
    o.push("proto.encode_ns", encode_ns, "ns");
    o.push("proto.decode_ns", decode_ns, "ns");
    let overhead = median(&m.hi50_arm[1]) / median(&m.hi50_arm[0]) - 1.0;
    o.push("trace.overhead", overhead, "ratio");
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_rps_is_the_highest_step_meeting_the_limit() {
        let steps = [
            (10.0, 1.0, true),
            (30.0, 5.0, true),
            (20.0, 3.0, true),
            (40.0, 1.0, false),
        ];
        assert_eq!(max_rps(&steps, 4.0), 20.0);
        assert_eq!(max_rps(&steps, 9.0), 30.0);
        assert_eq!(max_rps(&steps, 0.5), 0.0);
    }
}
