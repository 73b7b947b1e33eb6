//! The serve half of a run: `ftsim serve` with its defaults as a child
//! process, driven over loopback by a paced open-loop generator.
//!
//! Two connections each get one sender thread (the generator) and one
//! receiver thread. Request `g` of a rate step is due at `t0 + g / rate`,
//! alternating between the connections; its latency runs from that due
//! time to the arrival of its response, so a stall is charged to every
//! request it delays. How late the senders ran is reported as
//! `gen.late_us.p99`. A request the server refuses with `Busy` (its
//! admission control) is sent again, as a client honouring back-pressure
//! would, and keeps its first due time. Responses are checked against
//! `solo_schedule_frame` after each step's window closes, so the check
//! never loads the generator.

use crate::engine::{Inject, SETUP_ROUNDS};
use crate::report::{Metrics, RATES, STAGES};
use crate::stats::{median, quantile};
use crate::trace::Spans;
use crate::workload::{request_words, unpack, ServeShape, Workload};
use ft_bench::json::{self, Value};
use ft_core::{FatTree, Message};
use ft_sched::SchedArena;
use ft_serve::client::request_seed;
use ft_serve::core::solo_schedule_frame;
use ft_serve::http_get;
use ft_serve::proto::{begin_req, decode_hello_ack, encode_hello, Engine};
use ft_shard::wire::{self, end_frame, read_frame, FrameKind};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const CONNS: usize = 2;
/// Closed-loop requests per connection answered before set-up ends.
const WARMUP_PER_CONN: u64 = 32;
/// A silent socket for this long counts the rest of a step as timed out.
const READ_TIMEOUT: Duration = Duration::from_secs(2);
/// A window whose senders ran later than this at p99 did not offer its
/// rate: the host took the CPU away.
const GEN_LATE_BOUND_US: f64 = 500.0;
/// Timer wake-ups from an idle CPU can run a millisecond or more late on a
/// virtual machine. When a sender's requests are at least `SPIN_GAP` apart
/// it sleeps to `SPIN` short of each due time and spins the rest; closer
/// together it only sleeps (the CPU stays awake, and spinning would take
/// it from the server).
const SPIN: Duration = Duration::from_micros(200);
const SPIN_GAP: Duration = Duration::from_millis(1);
/// A request answered `Busy` is sent again up to this many times; one more
/// `Busy` fails it. The `k`-th resend waits `RETRY_BACKOFF · 2^(k-1)`
/// (at most `RETRY_BACKOFF_MAX`) and goes out with the sender's next
/// request, or within `RETRY_POLL` once the window's requests are all sent.
const BUSY_RETRIES: u32 = 16;
const RETRY_BACKOFF: Duration = Duration::from_micros(250);
const RETRY_BACKOFF_MAX: Duration = Duration::from_millis(4);
const RETRY_POLL: Duration = Duration::from_micros(100);
/// A window keeps pace when completions reach this share of the offered rate.
const PACE: f64 = 0.95;
/// Rates the `serve.max_rps` search may try.
const PROBE_BUDGET: usize = 8;

/// A running `ftsim serve` child. Dropping it closes stdin (the server's
/// shutdown signal), then kills it if it has not exited, and always waits.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    pub metrics_addr: Option<SocketAddr>,
}

fn invalid(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

impl Server {
    pub fn spawn(ftsim: &Path, shape: &ServeShape, traced: bool) -> io::Result<Server> {
        let mut cmd = Command::new(ftsim);
        cmd.args(["serve", "--addr", "127.0.0.1:0"]).args([
            "--n",
            &shape.n.to_string(),
            "--w",
            &shape.w.to_string(),
        ]);
        if traced {
            cmd.args(["--metrics-addr", "127.0.0.1:0"]);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut server = Server {
            child,
            stdin,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            metrics_addr: None,
        };
        let mut line = String::new();
        server.stdout.read_line(&mut line)?;
        let v = json::parse(line.trim()).map_err(|e| invalid(format!("listening line: {e}")))?;
        let addr = |k: &str| {
            v.get(k)
                .and_then(Value::as_str)
                .and_then(|s| s.parse().ok())
        };
        server.addr = addr("addr").ok_or_else(|| invalid(format!("no addr in {line}")))?;
        server.metrics_addr = addr("metrics_addr");
        Ok(server)
    }

    /// Peak resident set (VmHWM) of the server process, in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Close stdin and wait for the graceful exit; returns the summary line.
    pub fn stop(mut self) -> io::Result<String> {
        self.stdin.take();
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest)?;
        let status = self.child.wait()?;
        if !status.success() {
            return Err(io::Error::other(format!("ftsim serve exited {status}")));
        }
        Ok(rest.trim().to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stdin.take();
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            std::thread::sleep(Duration::from_millis(50));
            if !matches!(self.child.try_wait(), Ok(Some(_))) {
                let _ = self.child.kill();
            }
        }
        let _ = self.child.wait();
    }
}

/// VmHWM from a `/proc/<pid>/status` file, in MB.
pub fn vm_hwm_mb(path: &str) -> Option<f64> {
    let s = std::fs::read_to_string(path).ok()?;
    let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One client connection: a write half for the sender thread, a buffered
/// read half for the receiver thread, and the next request index.
struct Conn {
    c: usize,
    w: TcpStream,
    r: BufReader<TcpStream>,
    next: u64,
}

impl Conn {
    fn open(addr: SocketAddr, c: usize, shape: &ServeShape) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        let mut conn = Conn {
            c,
            w: stream.try_clone()?,
            r: BufReader::new(stream),
            next: 0,
        };
        let mut hello = Vec::new();
        encode_hello(&mut hello, 0, shape.n, shape.w);
        conn.w.write_all(&to_bytes(&hello))?;
        let words = read_frame(&mut conn.r)?.ok_or_else(|| invalid("closed in handshake"))?;
        let frame = wire::decode(&words).map_err(|e| invalid(e.to_string()))?;
        if frame.kind != FrameKind::HelloAck {
            return Err(invalid(format!("handshake answered with {:?}", frame.kind)));
        }
        decode_hello_ack(frame.payload).map_err(|e| invalid(e.to_string()))?;
        Ok(conn)
    }
}

fn to_bytes(words: &[u64]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// A request ready to send: its seed (also its request id), its packed
/// messages (kept for the check) and its encoded frame.
struct Req {
    seed: u64,
    packed: Vec<u64>,
    bytes: Vec<u8>,
}

fn make_req(shape: &ServeShape, seed: u64, c: usize, index: u64) -> Req {
    let rs = request_seed(seed, c, index);
    let mut packed = Vec::new();
    request_words(shape, rs, &mut packed);
    let mut buf = Vec::new();
    begin_req(&mut buf, 0, index as u32, rs, Engine::Schedule, rs);
    buf.extend_from_slice(&packed);
    end_frame(&mut buf);
    Req {
        seed: rs,
        packed,
        bytes: to_bytes(&buf),
    }
}

/// Recomputes served responses solo and compares whole frames.
struct Checker {
    solo: FatTree,
    arena: SchedArena,
    msgs: Vec<Message>,
    scratch: Vec<u32>,
    frame: Vec<u64>,
}

impl Checker {
    fn new(shape: &ServeShape) -> Checker {
        let solo = FatTree::universal(shape.n, shape.w);
        Checker {
            arena: SchedArena::new(&solo),
            solo,
            msgs: Vec::new(),
            scratch: Vec::new(),
            frame: Vec::new(),
        }
    }

    fn matches(&mut self, req: &Req, served: &[u64]) -> bool {
        let Ok(f) = wire::decode(served) else {
            return false;
        };
        self.msgs.clear();
        self.msgs.extend(req.packed.iter().map(|&p| unpack(p)));
        solo_schedule_frame(
            &self.solo,
            &mut self.arena,
            &self.msgs,
            f.shard,
            f.seq,
            req.seed,
            &mut self.scratch,
            &mut self.frame,
        );
        self.frame == served
    }
}

/// Per connection and window: requests to send again after a `Busy`, each
/// with the time it may go, and whether the receiver has settled every
/// request.
#[derive(Default)]
struct Retries {
    queue: Mutex<Vec<(Instant, usize)>>,
    done: AtomicBool,
}

/// One window of a rate step: a stretch of open-loop traffic at one rate,
/// with its own outcome.
#[derive(Debug, Default)]
pub struct Window {
    /// Latency per request from its due time (µs); failed requests are +∞.
    pub lat_us: Vec<f64>,
    /// How late the sender ran, per request (µs).
    pub late_us: Vec<f64>,
    /// Requests still refused with `Busy` after `BUSY_RETRIES` resends.
    pub busy: usize,
    /// `Busy` answers that were followed by a resend.
    pub retried: usize,
    /// Requests answered `Busy` at least once.
    pub refused: usize,
    pub errors: usize,
    pub timeouts: usize,
    pub mismatches: usize,
    /// Completed responses per second, from the first due time to the
    /// last arrival.
    pub achieved_rps: f64,
    pub rate: f64,
}

impl Window {
    fn p(&self, q: f64) -> f64 {
        quantile(&self.lat_us, q)
    }

    fn late_p99(&self) -> f64 {
        quantile(&self.late_us, 0.99)
    }

    pub fn failed(&self) -> usize {
        self.busy + self.errors + self.timeouts + self.mismatches
    }

    /// The generator offered the rate: its p99 lateness stayed within the
    /// bound. A late generator means the host took the CPU away, and the
    /// window says nothing about the server.
    fn on_time(&self) -> bool {
        self.late_p99() <= GEN_LATE_BOUND_US
    }

    /// Completions kept pace with the offered rate (no growing backlog).
    fn kept_pace(&self) -> bool {
        self.achieved_rps >= PACE * self.rate
    }

    /// p99 within the limit with failures counted as misses, at most 0.1%
    /// failed or refused even once, and no growing backlog.
    fn meets(&self, limit_us: f64) -> bool {
        self.kept_pace()
            && self.p(0.99) <= limit_us
            && (self.failed() + self.refused) * 1000 <= self.lat_us.len()
    }

    fn json(&self) -> String {
        format!(
            "{{\"n\":{},\"on_time\":{},\"p50_us\":{},\"p99_us\":{},\"late_p99_us\":{},\"busy\":{},\
             \"retried\":{},\"refused\":{},\"errors\":{},\"timeouts\":{},\"mismatches\":{},\"achieved_rps\":{}}}",
            self.lat_us.len(),
            self.on_time(),
            fin(self.p(0.5)),
            fin(self.p(0.99)),
            fin(self.late_p99()),
            self.busy,
            self.retried,
            self.refused,
            self.errors,
            self.timeouts,
            self.mismatches,
            fin(self.achieved_rps),
        )
    }
}

/// A rate step: windows at one rate until enough of them had the
/// generator on time. Its latency quantiles are medians of those windows'
/// quantiles; windows where the generator ran late are reported, and
/// count as latency only when the host kept the generator late in too
/// many windows for the step to fill its quota of on-time ones.
#[derive(Debug, Default)]
pub struct Step {
    pub rate: f64,
    pub windows: Vec<Window>,
    /// On-time windows the step needs to count as offered.
    pub want: usize,
}

impl Step {
    fn timed(&self) -> impl Iterator<Item = &Window> {
        self.windows.iter().filter(|w| w.on_time())
    }

    pub fn offered(&self) -> usize {
        self.windows.iter().map(|w| w.lat_us.len()).sum()
    }

    pub fn mismatches(&self) -> usize {
        self.windows.iter().map(|w| w.mismatches).sum()
    }

    /// Median of the `q`-quantiles of the `want` windows in which the
    /// generator ran least late. In a valid step these are its on-time
    /// windows; in a step the host kept late throughout, they are the
    /// windows that measured the server best.
    pub fn p(&self, q: f64) -> f64 {
        let mut by_late: Vec<&Window> = self.windows.iter().collect();
        by_late.sort_by(|a, b| a.late_p99().total_cmp(&b.late_p99()));
        let best: Vec<f64> = by_late
            .iter()
            .take(self.want.max(1))
            .map(|w| w.p(q))
            .collect();
        median(&best)
    }

    pub fn late_p99(&self) -> f64 {
        median(
            &self
                .windows
                .iter()
                .map(Window::late_p99)
                .collect::<Vec<_>>(),
        )
    }

    /// Enough windows had the generator on time.
    pub fn valid(&self) -> bool {
        self.timed().count() >= self.want
    }

    /// Meets the latency limit: a valid step whose on-time windows mostly
    /// meet it.
    pub fn meets(&self, limit_us: f64) -> bool {
        let met = self.timed().filter(|w| w.meets(limit_us)).count();
        self.valid() && 2 * met > self.timed().count()
    }

    fn json(&self) -> String {
        format!(
            "{{\"rate\":{},\"offered\":{},\"p50_us\":{},\"p99_us\":{},\"valid\":{},\"windows\":[{}]}}",
            self.rate,
            self.offered(),
            fin(self.p(0.5)),
            fin(self.p(0.99)),
            self.valid(),
            self.windows
                .iter()
                .map(Window::json)
                .collect::<Vec<_>>()
                .join(",")
        )
    }
}

fn fin(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        "null".into()
    }
}

/// A test rig: the server, its client connections and the response checker.
struct Rig {
    server: Server,
    conns: Vec<Conn>,
    checker: Checker,
    shape: ServeShape,
    seed: u64,
}

impl Rig {
    /// Set-up: server up, both handshakes done, warm-up requests answered.
    fn open(ftsim: &Path, shape: &ServeShape, seed: u64, traced: bool) -> io::Result<Rig> {
        let server = Server::spawn(ftsim, shape, traced)?;
        let mut conns = Vec::new();
        for c in 0..CONNS {
            conns.push(Conn::open(server.addr, c, shape)?);
        }
        let mut s = Rig {
            server,
            conns,
            checker: Checker::new(shape),
            shape: shape.clone(),
            seed,
        };
        for conn in &mut s.conns {
            for _ in 0..WARMUP_PER_CONN {
                let req = make_req(&s.shape, seed, conn.c, conn.next);
                conn.next += 1;
                conn.w.write_all(&req.bytes)?;
                let words = read_frame(&mut conn.r)?.ok_or_else(|| invalid("closed in warm-up"))?;
                if !s.checker.matches(&req, &words) {
                    return Err(invalid("warm-up response differs from the solo schedule"));
                }
            }
        }
        Ok(s)
    }

    /// Windows of `secs` seconds at `rate` until `want` of them had the
    /// generator on time, or `max` windows ran.
    fn step(&mut self, rate: f64, secs: f64, want: usize, max: usize, corrupt: bool) -> Step {
        let mut step = Step {
            rate,
            want,
            ..Default::default()
        };
        while !step.valid() && step.windows.len() < max {
            let w = self.window(rate, secs, corrupt && step.windows.is_empty());
            step.windows.push(w);
        }
        step
    }

    /// Offer `rate` req/s for `secs` seconds, open loop, then check every
    /// response.
    fn window(&mut self, rate: f64, secs: f64, corrupt: bool) -> Window {
        let total = ((rate * secs).round() as usize).max(CONNS);
        // Requests, generated before the window opens. Request g of the
        // window goes to connection g % CONNS.
        let plans: Vec<Vec<Req>> = self
            .conns
            .iter()
            .map(|conn| {
                let count = (total + CONNS - 1 - conn.c) / CONNS;
                (0..count as u64)
                    .map(|j| make_req(&self.shape, self.seed, conn.c, conn.next + j))
                    .collect()
            })
            .collect();
        let t0 = Instant::now() + Duration::from_millis(5);
        let due = |c: usize, j: usize| t0 + Duration::from_secs_f64((j * CONNS + c) as f64 / rate);
        let gap = Duration::from_secs_f64(CONNS as f64 / rate);
        let mut win = Window {
            rate,
            ..Default::default()
        };
        let retries: Vec<Retries> = (0..CONNS).map(|_| Retries::default()).collect();
        let mut arrivals: Vec<Vec<(usize, Instant, Vec<u64>)>> = Vec::new();
        std::thread::scope(|sc| {
            let mut handles = Vec::new();
            for ((conn, plan), rt) in self.conns.iter_mut().zip(&plans).zip(&retries) {
                let c = conn.c;
                let first = conn.next;
                let w = &mut conn.w;
                let r = &mut conn.r;
                let sender = sc.spawn(move || {
                    let resend = |w: &mut TcpStream| -> io::Result<()> {
                        let now = Instant::now();
                        let mut ready = Vec::new();
                        rt.queue.lock().unwrap().retain(|&(at, j)| {
                            if at <= now {
                                ready.push(j);
                            }
                            at > now
                        });
                        ready.iter().try_for_each(|&j| w.write_all(&plan[j].bytes))
                    };
                    let mut late = Vec::with_capacity(plan.len());
                    let mut failed = false;
                    for (j, req) in plan.iter().enumerate() {
                        let d = due(c, j);
                        let now = Instant::now();
                        if gap >= SPIN_GAP {
                            if d > now + SPIN {
                                std::thread::sleep(d - now - SPIN);
                            }
                            while Instant::now() < d {
                                std::hint::spin_loop();
                            }
                        } else if d > now {
                            std::thread::sleep(d - now);
                        }
                        late.push(Instant::now().saturating_duration_since(d).as_secs_f64() * 1e6);
                        if w.write_all(&req.bytes).and_then(|_| resend(w)).is_err() {
                            failed = true;
                            break;
                        }
                    }
                    while !failed && !rt.done.load(Ordering::Acquire) {
                        failed = resend(w).is_err();
                        std::thread::sleep(RETRY_POLL);
                    }
                    (late, failed)
                });
                let n = plan.len();
                let receiver = sc.spawn(move || {
                    // Final answers: responses, errors, and `Busy` once its
                    // resends are used up.
                    let mut got = Vec::with_capacity(n);
                    let mut busy = vec![0u32; n];
                    let (mut retried, mut refused) = (0, 0);
                    while got.len() < n {
                        let Ok(Some(words)) = read_frame(r) else {
                            break;
                        };
                        let at = Instant::now();
                        let (j, kind) = match wire::decode(&words) {
                            Ok(f) => (f.seq.wrapping_sub(first as u32) as usize, Some(f.kind)),
                            Err(_) => (usize::MAX, None),
                        };
                        if j >= n {
                            continue;
                        }
                        if kind == Some(FrameKind::Busy) && busy[j] < BUSY_RETRIES {
                            let wait =
                                (RETRY_BACKOFF * (1 << busy[j].min(8))).min(RETRY_BACKOFF_MAX);
                            busy[j] += 1;
                            retried += 1;
                            refused += (busy[j] == 1) as usize;
                            rt.queue.lock().unwrap().push((at + wait, j));
                            continue;
                        }
                        got.push((j, at, words));
                    }
                    rt.done.store(true, Ordering::Release);
                    (got, retried, refused)
                });
                handles.push((sender, receiver));
            }
            for (s, r) in handles {
                let (late, failed) = s.join().expect("sender thread");
                win.late_us.extend(late);
                win.errors += failed as usize;
                let (got, retried, refused) = r.join().expect("receiver thread");
                win.retried += retried;
                win.refused += refused;
                arrivals.push(got);
            }
        });

        // The window is closed: classify and check every response.
        let mut ok = 0usize;
        let mut corrupted = false;
        let mut last_at = t0;
        for (conn, (plan, got)) in self.conns.iter_mut().zip(plans.iter().zip(&mut arrivals)) {
            let mut seen = vec![false; plan.len()];
            for (j, at, words) in got.iter_mut() {
                seen[*j] = true;
                match wire::decode(words).map(|f| f.kind) {
                    Ok(FrameKind::Resp) => {
                        if corrupt && !corrupted {
                            corrupted = true;
                            let mid = words.len() / 2;
                            words[mid] ^= 1;
                        }
                        if self.checker.matches(&plan[*j], words) {
                            ok += 1;
                            last_at = last_at.max(*at);
                            let lat = at.saturating_duration_since(due(conn.c, *j));
                            win.lat_us.push(lat.as_secs_f64() * 1e6);
                            continue;
                        }
                        win.mismatches += 1;
                    }
                    Ok(FrameKind::Busy) => win.busy += 1,
                    _ => win.errors += 1,
                }
                win.lat_us.push(f64::INFINITY);
            }
            let missing = seen.iter().filter(|s| !**s).count();
            win.timeouts += missing;
            win.lat_us
                .extend(std::iter::repeat_n(f64::INFINITY, missing));
            conn.next += plan.len() as u64;
        }
        let span = last_at.saturating_duration_since(t0).as_secs_f64();
        win.achieved_rps = if span > 0.0 { ok as f64 / span } else { 0.0 };
        win
    }

    fn close(self) -> io::Result<Option<f64>> {
        drop(self.conns);
        let rss = self.server.peak_rss_mb();
        self.server.stop()?;
        Ok(rss)
    }
}

/// Window lengths and counts of the rate steps.
pub struct Plan {
    /// Fixed rates, low then high: `(rate, window_s)`.
    pub fixed: [(f64, f64); 2],
    /// On-time windows each fixed step needs.
    pub fixed_want: usize,
    pub probe_window_s: f64,
    pub probe_want: usize,
}

impl Plan {
    /// Untraced runs report p50s, which 600 requests per window fix well;
    /// traced runs also report p99s, so their low-rate windows hold
    /// ≥ 1,000 requests (≥ 10 beyond each window's p99).
    pub fn new(shape: &ServeShape, traced: bool, tiny: bool) -> Plan {
        let scale = if tiny {
            0.2
        } else if traced {
            1.0
        } else {
            0.5
        };
        Plan {
            fixed: [
                (shape.low_rps, 1200.0 / shape.low_rps * scale),
                (shape.high_rps, 4800.0 / shape.high_rps * scale),
            ],
            fixed_want: if tiny { 1 } else { 5 },
            probe_window_s: if tiny { 0.1 } else { 0.25 },
            probe_want: if tiny { 1 } else { 3 },
        }
    }
}

/// A step gives up after this many times the windows it wants.
const MAX_WINDOWS_PER_WANT: usize = 4;

pub struct ServeOut {
    pub setup_s: f64,
    pub server_rss_mb: f64,
    /// Requests attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    pub steps_json: Vec<String>,
    /// Extra files for the traced run: name → contents.
    pub pages: Vec<(String, String)>,
}

#[allow(clippy::too_many_arguments)]
pub fn run(
    ftsim: &Path,
    wl: &Workload,
    seed: u64,
    plan: &Plan,
    traced: bool,
    inject: Inject,
    metrics: &mut Metrics,
    spans: &mut Spans,
) -> io::Result<ServeOut> {
    let shape = &wl.serve;
    let corrupt = inject == Inject::CorruptResponse;
    let mut out = ServeOut {
        setup_s: 0.0,
        server_rss_mb: 0.0,
        attempted: 0,
        failed: 0,
        mismatches: 0,
        steps_json: Vec::new(),
        pages: Vec::new(),
    };
    let want = plan.fixed_want;
    let max = want * MAX_WINDOWS_PER_WANT;

    if !traced {
        let mut setups = Vec::new();
        let mut rig = None;
        for _ in 0..SETUP_ROUNDS {
            if let Some(s) = rig.take() {
                Rig::close(s)?;
            }
            let t = Instant::now();
            rig = Some(Rig::open(ftsim, shape, seed, false)?);
            setups.push(t.elapsed().as_secs_f64());
        }
        let mut rig = rig.expect("at least one set-up round");
        out.setup_s = median(&setups);
        for (k, &(rate, secs)) in plan.fixed.iter().enumerate() {
            let s = rig.step(rate, secs, want, max, corrupt && k == 1);
            metrics.set(format!("serve.p50_us.{}", RATES[k]), s.p(0.5));
            count(&mut out, s, false);
        }
        out.server_rss_mb = rig.close()?.unwrap_or(0.0);
        return Ok(out);
    }

    // Traced: a fresh server per fixed rate, so its stage histograms cover
    // that rate alone (plus the warm-up requests); the max-rate search then
    // runs on the second one.
    let mut late = Vec::new();
    let mut setups = Vec::new();
    let mut passed = [false; 2];
    for (k, &(rate, secs)) in plan.fixed.iter().enumerate() {
        let t = Instant::now();
        let mut rig = Rig::open(ftsim, shape, seed, true)?;
        setups.push(t.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let s = rig.step(rate, secs, want, max, corrupt && k == 1);
        spans.add(&format!("serve_step.{}", RATES[k]), 0, t0, Instant::now());
        let maddr = rig
            .server
            .metrics_addr
            .ok_or_else(|| invalid("traced server has no metrics listener"))?;
        let page = http_get(maddr, "/metrics.json")?;
        let span_page = http_get(maddr, "/spans")?;
        stage_metrics(&page, &s, RATES[k], metrics)?;
        metrics.set(format!("serve.p50_us.{}", RATES[k]), s.p(0.5));
        metrics.set(format!("serve.p99_us.{}", RATES[k]), s.p(0.99));
        passed[k] = s.meets(shape.limit_us);
        late.push(s.late_p99());
        count(&mut out, s, false);
        out.pages.push((format!("metrics-{}.json", RATES[k]), page));
        out.pages
            .push((format!("spans-{}.jsonl", RATES[k]), span_page));
        if k + 1 == plan.fixed.len() {
            let t0 = Instant::now();
            let rps = max_rps(&mut rig, plan, shape, passed, &mut out);
            spans.add("serve_max_rps", 0, t0, Instant::now());
            metrics.set("serve.max_rps", rps);
        }
        let rss = rig.close()?;
        out.server_rss_mb = out.server_rss_mb.max(rss.unwrap_or(0.0));
    }
    metrics.set("gen.late_us.p99", late.iter().cloned().fold(0.0, f64::max));
    out.setup_s = median(&setups);
    Ok(out)
}

/// The highest offered rate that meets the limit: grow ×1.5 from the
/// highest passing fixed rate until a rate misses, then bisect
/// geometrically to 2%.
fn max_rps(
    rig: &mut Rig,
    plan: &Plan,
    shape: &ServeShape,
    passed: [bool; 2],
    out: &mut ServeOut,
) -> f64 {
    let (mut lo, mut hi) = match passed {
        [_, true] => (shape.high_rps, None),
        [true, false] => (shape.low_rps, Some(shape.high_rps)),
        [false, false] => (shape.low_rps / 4.0, Some(shape.low_rps)),
    };
    let probe_max = plan.probe_want * 2;
    for _ in 0..PROBE_BUDGET {
        let rate = match hi {
            None => lo * 1.5,
            Some(h) if h / lo > 1.02 => (lo * h).sqrt(),
            Some(_) => break,
        };
        // A rate that misses is tried once more before it counts as
        // missed, so one noisy stretch does not end the search.
        let mut met = false;
        for _ in 0..2 {
            let s = rig.step(rate, plan.probe_window_s, plan.probe_want, probe_max, false);
            met = s.meets(shape.limit_us);
            count(out, s, true);
            if met {
                break;
            }
        }
        if met {
            lo = rate;
        } else {
            hi = Some(rate);
        }
    }
    lo
}

/// Tally a step's requests. A window the generator ran late in measured the
/// host, not the server: its requests stay in the full report but are not
/// counted, except wrong responses, which always fail. Probes above
/// capacity may refuse a request with `Busy` past its resends without
/// failing it: refusing overload is what they look for.
fn count(out: &mut ServeOut, s: Step, probe: bool) {
    for w in &s.windows {
        let (n, failed) = if w.on_time() {
            let busy = if probe { w.busy } else { 0 };
            (w.lat_us.len(), w.failed() - busy)
        } else {
            (w.mismatches, w.mismatches)
        };
        out.attempted += n as u64;
        out.failed += failed as u64;
    }
    out.mismatches += s.mismatches() as u64;
    out.steps_json.push(s.json());
}

/// Per-stage p50/p99 from the server's own `/metrics.json`, plus batch
/// size, Busy rejects, λ and the client-minus-server latency.
fn stage_metrics(page: &str, s: &Step, rate: &str, metrics: &mut Metrics) -> io::Result<()> {
    let v = json::parse(page).map_err(|e| invalid(format!("/metrics.json: {e}")))?;
    let num = |path: &[&str]| -> io::Result<f64> {
        let mut cur = &v;
        for k in path {
            cur = cur
                .get(k)
                .ok_or_else(|| invalid(format!("/metrics.json lacks {}", path.join("."))))?;
        }
        cur.as_num()
            .ok_or_else(|| invalid(format!("/metrics.json {} is not a number", path.join("."))))
    };
    for stage in STAGES {
        for q in ["p50", "p99"] {
            let ns = num(&["stages", "schedule", stage, &format!("{q}_ns")])?;
            metrics.set(format!("serve.{stage}_us.{q}.{rate}"), ns / 1e3);
        }
    }
    let wall_p50 = num(&["stages", "schedule", "wall", "p50_ns"])? / 1e3;
    metrics.set(format!("serve.net_us.p50.{rate}"), s.p(0.5) - wall_p50);
    metrics.set(
        format!("serve.batch_mean.{rate}"),
        num(&["requests", "served"])? / num(&["lambda_budget", "batches"])?.max(1.0),
    );
    metrics.set(
        format!("serve.busy_rejects.{rate}"),
        num(&["requests", "busy_rejected"])?,
    );
    metrics.set(
        format!("serve.lambda_max.{rate}"),
        num(&["lambda_budget", "lambda_max"])?,
    );
    Ok(())
}
