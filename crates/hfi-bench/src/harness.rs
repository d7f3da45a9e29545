//! The shared experiment harness: job grids, worker fan-out, and
//! crash-safe JSON-lines run telemetry.
//!
//! Every figure/table binary builds a grid of independent cells
//! (kernel × isolation × executor), hands it to [`Harness::run_grid`],
//! and gets results back **in grid order** regardless of how many worker
//! threads ran them — so `--jobs 4` output is bit-identical to a
//! sequential run. Cells compile through the process-wide
//! [`compile_cached`](crate::compile_cached) memo, so a kernel ×
//! isolation pair is compiled once no matter how many executors or
//! worker threads run it, and every vehicle shares one `Arc<Program>`
//! (and therefore one pre-decoded plan). After the grid, binaries append
//! [`RunRecord`]s (or model-level [`Harness::note`] lines) and
//! [`Harness::finish`] publishes them to
//! `target/bench-records/<figure>.jsonl`.
//!
//! # Fault tolerance
//!
//! Two grid runners cover two failure postures:
//!
//! * [`Harness::run_grid`] — a panicking cell no longer aborts the
//!   sweep mid-flight: every remaining cell still runs, and the first
//!   panic is re-raised only after the whole grid completes (the
//!   harnesses' correctness assertions live inside cells, so the panic
//!   must still fail the experiment loudly).
//! * [`Harness::run_grid_supervised`] — each cell runs under
//!   `catch_unwind` supervision and returns a structured
//!   [`CellOutcome`]: `Ok`, `Retried` (succeeded after transient
//!   panics, with bounded exponential backoff), `Panicked` (every
//!   attempt panicked; carries the payload message), or `TimedOut`
//!   (the per-cell deadline watchdog expired — the stuck worker thread
//!   is abandoned and a replacement spawned so the rest of the grid
//!   still completes). Long sweeps — the chaos campaign — use this and
//!   report failures instead of dying.
//!
//! Cell *fuel* is cooperative: simulator cells are already bounded by
//! the executor cycle/instruction budgets (`MACHINE_LIMIT`,
//! `FUNCTIONAL_LIMIT`), so the wall-clock deadline is the backstop for
//! host-level hangs, not the primary bound.
//!
//! # Crash safety and resume
//!
//! Harnesses built by [`Harness::from_env`] stream every
//! [`record`](Harness::record)/[`note`](Harness::note) line to
//! `<figure>.jsonl.partial` (flushed per line), and
//! [`finish`](Harness::finish) atomically renames the partial journal
//! over the final `<figure>.jsonl` — a killed run keeps every completed
//! line, and readers of the final path never observe a torn file. With
//! `--resume`, the harness preloads the journal left by a previous run
//! (the partial file if the run was killed, else the last finished
//! file); [`Harness::have`] then tells the binary which cells are
//! already journaled so it re-runs only the missing ones, and the
//! merged output is bit-identical to an uninterrupted run.
//!
//! Configuration comes from the command line and the environment:
//!
//! * `--jobs N` / `HFI_JOBS=N` — worker threads (`0` = all cores;
//!   default 1, the sequential fallback). A malformed value is a usage
//!   error (exit 2), not a silent fall-through to the default.
//! * `--smoke` / `HFI_SMOKE=1` — scaled-down iteration counts and
//!   kernel subsets, for CI.
//! * `--resume` / `HFI_RESUME=1` — preload the existing journal and
//!   skip cells already present ([`Harness::have`]).
//! * `--cell-deadline MS` — per-cell watchdog deadline in milliseconds
//!   for supervised grids (default: none).
//! * `--cell-retries N` — attempts to re-run a panicking supervised
//!   cell before reporting [`CellOutcome::Panicked`] (default 0).
//! * `--seed N` / `HFI_SEED=N` — RNG seed for binaries with stochastic
//!   inputs (the serving load generator, the chaos campaign plans);
//!   each binary documents its own default ([`Harness::seed_or`]).
//!
//! This is the one argument parser: a binary with flags of its own
//! declares them ([`Flag`]) to [`Cli::from_env`] and builds its harness
//! with [`Cli::harness`]. Value flags take `--flag v` or `--flag=v`; an
//! undeclared flag or a flag without its value exits 2.

use std::any::Any;
use std::collections::HashMap;
use std::fs;
use std::io::{BufWriter, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hfi_sim::RunRecord;

/// Escapes a string for inclusion in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn context_json(figure: &str, context: &[(&str, String)]) -> String {
    let mut line = format!("\"figure\":\"{}\"", json_escape(figure));
    for (key, value) in context {
        line.push_str(&format!(
            ",\"{}\":\"{}\"",
            json_escape(key),
            json_escape(value)
        ));
    }
    line
}

/// Renders a `catch_unwind` payload as a message.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// What happened to one supervised grid cell.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome<R> {
    /// The cell completed on its first attempt.
    Ok(R),
    /// The cell panicked `n` time(s) and then completed — a transient
    /// host failure absorbed by the bounded-retry policy.
    Retried {
        /// How many failed attempts preceded the success.
        n: u32,
        /// The eventual result.
        result: R,
    },
    /// Every attempt panicked; `msg` is the last panic payload.
    Panicked {
        /// The panic payload, rendered as text.
        msg: String,
    },
    /// The per-cell deadline expired before the cell finished. The
    /// worker thread is abandoned (safe Rust cannot kill it) and a
    /// replacement keeps the rest of the grid moving.
    TimedOut,
}

impl<R> CellOutcome<R> {
    /// The cell's result, if it produced one.
    pub fn result(&self) -> Option<&R> {
        match self {
            CellOutcome::Ok(r) | CellOutcome::Retried { result: r, .. } => Some(r),
            _ => None,
        }
    }

    /// Consumes the outcome, yielding the result if there is one.
    pub fn into_result(self) -> Option<R> {
        match self {
            CellOutcome::Ok(r) | CellOutcome::Retried { result: r, .. } => Some(r),
            _ => None,
        }
    }

    /// True for `Panicked` and `TimedOut`.
    pub fn is_failure(&self) -> bool {
        matches!(self, CellOutcome::Panicked { .. } | CellOutcome::TimedOut)
    }

    /// A short stable label ("ok", "retried", "panicked", "timed-out").
    pub fn label(&self) -> &'static str {
        match self {
            CellOutcome::Ok(_) => "ok",
            CellOutcome::Retried { .. } => "retried",
            CellOutcome::Panicked { .. } => "panicked",
            CellOutcome::TimedOut => "timed-out",
        }
    }
}

/// Supervision policy for [`run_supervised`] grids.
#[derive(Debug, Clone)]
pub struct GridOptions {
    /// Wall-clock watchdog per cell; `None` disables the watchdog.
    pub deadline: Option<Duration>,
    /// Extra attempts after a panicking first attempt.
    pub retries: u32,
    /// Base backoff slept before retry `k` is `backoff * 2^(k-1)`.
    pub backoff: Duration,
}

impl Default for GridOptions {
    fn default() -> Self {
        GridOptions {
            deadline: None,
            retries: 0,
            backoff: Duration::from_millis(25),
        }
    }
}

struct GridShared<J, F> {
    cells: Vec<J>,
    f: F,
    next: AtomicUsize,
    retries: u32,
    backoff: Duration,
}

enum Event<R> {
    Started {
        cell: usize,
        at: Instant,
    },
    Done {
        cell: usize,
        outcome: CellOutcome<R>,
    },
}

fn worker_loop<J, R, F>(shared: Arc<GridShared<J, F>>, tx: Sender<Event<R>>)
where
    J: Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(&J) -> R + Send + Sync + 'static,
{
    let n = shared.cells.len();
    loop {
        let i = shared.next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            return;
        }
        let _ = tx.send(Event::Started {
            cell: i,
            at: Instant::now(),
        });
        let mut attempt = 0u32;
        let outcome = loop {
            match catch_unwind(AssertUnwindSafe(|| (shared.f)(&shared.cells[i]))) {
                Ok(result) if attempt == 0 => break CellOutcome::Ok(result),
                Ok(result) => break CellOutcome::Retried { n: attempt, result },
                Err(payload) => {
                    let msg = panic_message(payload.as_ref());
                    if attempt >= shared.retries {
                        break CellOutcome::Panicked { msg };
                    }
                    attempt += 1;
                    std::thread::sleep(shared.backoff.saturating_mul(1 << (attempt - 1).min(10)));
                }
            }
        };
        let _ = tx.send(Event::Done { cell: i, outcome });
    }
}

/// Runs one closure per cell under full supervision and returns one
/// [`CellOutcome`] per cell, **in cell order**.
///
/// Workers are detached threads pulling cells from a shared cursor;
/// each attempt runs under `catch_unwind`, panics are retried up to
/// `opts.retries` times with exponential backoff, and a cell that
/// outlives `opts.deadline` is reported [`CellOutcome::TimedOut`]
/// while a replacement worker keeps draining the remaining cells (the
/// stuck thread is abandoned — safe Rust cannot preempt it — so it
/// no longer blocks the sweep).
pub fn run_supervised<J, R, F>(
    jobs: usize,
    cells: Vec<J>,
    opts: GridOptions,
    f: F,
) -> Vec<CellOutcome<R>>
where
    J: Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(&J) -> R + Send + Sync + 'static,
{
    let n = cells.len();
    if n == 0 {
        return Vec::new();
    }
    let shared = Arc::new(GridShared {
        cells,
        f,
        next: AtomicUsize::new(0),
        retries: opts.retries,
        backoff: opts.backoff,
    });
    let (tx, rx) = mpsc::channel::<Event<R>>();
    let spawn_worker = |shared: &Arc<GridShared<J, F>>, tx: &Sender<Event<R>>| {
        let shared = Arc::clone(shared);
        let tx = tx.clone();
        std::thread::spawn(move || worker_loop(shared, tx));
    };
    for _ in 0..jobs.clamp(1, n) {
        spawn_worker(&shared, &tx);
    }

    let mut slots: Vec<Option<CellOutcome<R>>> = (0..n).map(|_| None).collect();
    let mut running: HashMap<usize, Instant> = HashMap::new();
    let mut done = 0usize;
    while done < n {
        let event = match opts.deadline {
            None => rx.recv().ok(),
            Some(deadline) => {
                // Wake at the earliest outstanding deadline to check
                // the watchdog even if no event arrives.
                let wake = running
                    .values()
                    .map(|at| (*at + deadline).saturating_duration_since(Instant::now()))
                    .min()
                    .unwrap_or(deadline);
                match rx.recv_timeout(wake) {
                    Ok(event) => Some(event),
                    Err(RecvTimeoutError::Timeout) => {
                        let now = Instant::now();
                        let expired: Vec<usize> = running
                            .iter()
                            .filter(|(_, at)| now.duration_since(**at) >= deadline)
                            .map(|(cell, _)| *cell)
                            .collect();
                        for cell in expired {
                            running.remove(&cell);
                            if slots[cell].is_none() {
                                slots[cell] = Some(CellOutcome::TimedOut);
                                done += 1;
                                // The worker is stuck inside this cell;
                                // replace it so the grid keeps moving.
                                spawn_worker(&shared, &tx);
                            }
                        }
                        continue;
                    }
                    Err(RecvTimeoutError::Disconnected) => None,
                }
            }
        };
        match event {
            Some(Event::Started { cell, at }) => {
                running.insert(cell, at);
            }
            Some(Event::Done { cell, outcome }) => {
                running.remove(&cell);
                // A late completion of a cell already timed out is
                // dropped: the outcome was published as TimedOut.
                if slots[cell].is_none() {
                    slots[cell] = Some(outcome);
                    done += 1;
                }
            }
            None => {
                // All senders gone with cells unaccounted for — a
                // worker died outside catch_unwind. Report rather than
                // hang.
                for slot in slots.iter_mut().filter(|s| s.is_none()) {
                    *slot = Some(CellOutcome::Panicked {
                        msg: "worker disappeared".to_string(),
                    });
                }
                break;
            }
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every cell accounted for"))
        .collect()
}

/// The experiment harness for one figure/table binary.
#[derive(Debug)]
pub struct Harness {
    figure: String,
    jobs: usize,
    smoke: bool,
    lines: Vec<String>,
    /// `lines[..resumed]` were preloaded from a previous run's journal.
    resumed: usize,
    streaming: bool,
    writer: Option<BufWriter<fs::File>>,
    out_dir: Option<PathBuf>,
    cell_deadline: Option<Duration>,
    cell_retries: u32,
    seed: Option<u64>,
}

/// A command-line flag: its name and whether it takes a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// A bare switch, e.g. `--smoke`.
    Switch(&'static str),
    /// A flag with a value, given as `--flag v` or `--flag=v`.
    Value(&'static str),
}

/// The flags the harness owns; every binary accepts them.
const HARNESS_FLAGS: [Flag; 6] = [
    Flag::Switch("--smoke"),
    Flag::Switch("--resume"),
    Flag::Value("--jobs"),
    Flag::Value("--cell-deadline"),
    Flag::Value("--cell-retries"),
    Flag::Value("--seed"),
];

/// A parsed command line: each flag given, harness-owned or declared
/// by the binary, with its value (empty for a switch).
#[derive(Debug, Default)]
pub struct Cli {
    given: Vec<(&'static str, String)>,
}

/// Prints `msg` as a usage error and exits with status 2.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("[harness] ERROR: {msg}");
    std::process::exit(2);
}

/// Parses an argument stream against the harness's flags plus the
/// binary's `flags`. An undeclared flag, a flag without its value and a
/// malformed harness value are all errors: silently ignoring any of
/// them turns a typo into a misconfigured run or a skipped gate.
fn parse_cli(args: impl Iterator<Item = String>, flags: &[Flag]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut args = args;
    while let Some(arg) = args.next() {
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) => (name, Some(value.to_string())),
            None => (arg.as_str(), None),
        };
        let (flag, value) = match HARNESS_FLAGS
            .iter()
            .chain(flags)
            .find(|f| matches!(f, Flag::Switch(n) | Flag::Value(n) if *n == name))
        {
            None => return Err(format!("unknown argument {arg:?}")),
            Some(Flag::Switch(_)) if inline.is_some() => {
                return Err(format!("{name} takes no value"))
            }
            Some(Flag::Switch(flag)) => (*flag, String::new()),
            Some(Flag::Value(flag)) => {
                match inline.or_else(|| args.next().filter(|v| !v.starts_with("--"))) {
                    Some(value) => (*flag, value),
                    None => return Err(format!("{name} requires a value")),
                }
            }
        };
        cli.given.push((flag, value));
    }
    for flag in ["--jobs", "--cell-deadline", "--cell-retries", "--seed"] {
        cli.number::<u64>(flag, None)?;
    }
    Ok(cli)
}

impl Cli {
    /// Parses the process's arguments against the harness's flags plus
    /// the binary's own `flags`; exits 2 on a usage error.
    pub fn from_env(flags: &[Flag]) -> Cli {
        parse_cli(std::env::args().skip(1), flags).unwrap_or_else(|msg| usage_error(&msg))
    }

    /// Whether the switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.given.iter().any(|(flag, _)| *flag == name)
    }

    /// The value of the flag `name` (the last one given wins).
    pub fn value(&self, name: &str) -> Option<&str> {
        self.given
            .iter()
            .rev()
            .find(|(flag, _)| *flag == name)
            .map(|(_, value)| value.as_str())
    }

    /// The value of `name` parsed as a non-negative integer; exits 2 if
    /// it is malformed.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.number(name, None)
            .unwrap_or_else(|msg| usage_error(&msg))
    }

    /// The flag `name` as a non-negative integer, else the environment
    /// variable `env`, if either is set.
    fn number<T: std::str::FromStr>(
        &self,
        name: &str,
        env: Option<&str>,
    ) -> Result<Option<T>, String> {
        let given = self.value(name).map(|value| (name, value.to_string()));
        let Some((source, value)) = given.or_else(|| Some((env?, std::env::var(env?).ok()?)))
        else {
            return Ok(None);
        };
        value.parse().map(Some).map_err(|_| {
            format!("invalid {source} value {value:?}: expected a non-negative integer")
        })
    }

    /// The harness for `figure`, configured from this command line and
    /// the environment (flags win over environment); exits 2 on a
    /// malformed environment value.
    pub fn harness(&self, figure: &str) -> Harness {
        self.try_harness(figure)
            .unwrap_or_else(|msg| usage_error(&msg))
    }

    fn try_harness(&self, figure: &str) -> Result<Harness, String> {
        let env_truthy = |name: &str| std::env::var(name).is_ok_and(|v| !v.is_empty() && v != "0");
        let jobs = self.number("--jobs", Some("HFI_JOBS"))?.unwrap_or(1);
        let smoke = self.switch("--smoke") || env_truthy("HFI_SMOKE");
        let mut harness = Harness::new(figure, jobs, smoke).with_streaming();
        harness.cell_deadline = self
            .number("--cell-deadline", None)?
            .map(Duration::from_millis);
        harness.cell_retries = self.number("--cell-retries", None)?.unwrap_or(0);
        harness.seed = self.number("--seed", Some("HFI_SEED"))?;
        if self.switch("--resume") || env_truthy("HFI_RESUME") {
            harness = harness.with_resume();
        }
        Ok(harness)
    }
}

impl Harness {
    /// A harness for a binary with no flags of its own, configured from
    /// the command line and the environment documented in the module
    /// doc. Exits 2 on an undeclared flag or a malformed value — a typo
    /// in `--jobs` must not silently run the sweep sequentially.
    pub fn from_env(figure: &str) -> Self {
        Cli::from_env(&[]).harness(figure)
    }

    /// A harness with explicit settings (tests use this; binaries use
    /// [`Harness::from_env`]). `jobs == 0` means one worker per core.
    /// Telemetry is buffered until [`finish`](Harness::finish) — enable
    /// per-line journal streaming with [`with_streaming`](Harness::with_streaming).
    pub fn new(figure: &str, jobs: usize, smoke: bool) -> Self {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(1)
        } else {
            jobs
        };
        Harness {
            figure: figure.to_string(),
            jobs,
            smoke,
            lines: Vec::new(),
            resumed: 0,
            streaming: false,
            writer: None,
            out_dir: None,
            cell_deadline: None,
            cell_retries: 0,
            seed: None,
        }
    }

    /// Streams every recorded line to `<figure>.jsonl.partial` (flushed
    /// per line) so a killed run keeps its completed cells.
    pub fn with_streaming(mut self) -> Self {
        self.streaming = true;
        self
    }

    /// Redirects journal output away from `target/bench-records`
    /// (tests use this to stay hermetic).
    pub fn with_output_dir(mut self, dir: PathBuf) -> Self {
        self.out_dir = Some(dir);
        self
    }

    /// Sets the supervised-grid watchdog deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.cell_deadline = Some(deadline);
        self
    }

    /// Sets the supervised-grid retry budget.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.cell_retries = retries;
        self
    }

    /// Sets the RNG seed (tests use this; binaries get it from
    /// `--seed` / `HFI_SEED` via [`Harness::from_env`]).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Preloads the journal left by a previous run — the `.partial`
    /// file if that run was killed mid-flight, else the last finished
    /// `<figure>.jsonl`. Preloaded lines are kept in order and
    /// republished by [`finish`](Harness::finish);
    /// [`have`](Harness::have) reports which cells they cover.
    pub fn with_resume(mut self) -> Self {
        let partial = self.partial_path();
        let finished = self.journal_path();
        let source = if partial.exists() {
            Some(partial)
        } else if finished.exists() {
            Some(finished)
        } else {
            None
        };
        if let Some(path) = source {
            match fs::read_to_string(&path) {
                Ok(text) => {
                    self.lines
                        .extend(text.lines().filter(|l| !l.is_empty()).map(String::from));
                    self.resumed = self.lines.len();
                    eprintln!(
                        "[harness] resumed {} record(s) from {}",
                        self.resumed,
                        path.display()
                    );
                }
                Err(e) => eprintln!(
                    "[harness] cannot resume from {}: {e}; starting fresh",
                    path.display()
                ),
            }
        }
        self
    }

    /// Worker-thread count for [`Harness::run_grid`].
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Whether this is a scaled-down CI run.
    pub fn smoke(&self) -> bool {
        self.smoke
    }

    /// The `--seed` / `HFI_SEED` value, or `default` when none was
    /// given. Stochastic binaries must route every RNG through this so
    /// one flag pins the whole run.
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// The supervision policy configured by `--cell-deadline` /
    /// `--cell-retries` (or the builders).
    pub fn grid_options(&self) -> GridOptions {
        GridOptions {
            deadline: self.cell_deadline,
            retries: self.cell_retries,
            ..GridOptions::default()
        }
    }

    /// Picks the iteration count for the current mode.
    pub fn iters(&self, full: u64, smoke: u64) -> u64 {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// In smoke mode, truncates a suite to its first `smoke_len` entries.
    pub fn subset<T>(&self, mut items: Vec<T>, smoke_len: usize) -> Vec<T> {
        if self.smoke {
            items.truncate(smoke_len);
        }
        items
    }

    /// Runs one closure per grid cell across the worker pool and returns
    /// the results **in cell order**.
    ///
    /// Workers pull cells from a shared cursor (no pre-partitioning, so
    /// an expensive cell does not serialize a whole stripe) and deposit
    /// each result in its cell's slot; with deterministic cell closures
    /// the returned vector is bit-identical for any `--jobs` value.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any cell (the harnesses' correctness
    /// assertions live inside the cells) — but only **after every other
    /// cell has completed**, so one bad cell cannot waste the rest of
    /// an expensive sweep. Use [`Harness::run_grid_supervised`] to get
    /// failures back as structured [`CellOutcome`]s instead.
    pub fn run_grid<J, R, F>(&self, cells: &[J], f: F) -> Vec<R>
    where
        J: Sync,
        R: Send,
        F: Fn(&J) -> R + Sync,
    {
        let n = cells.len();
        type Slot<R> = Mutex<Option<Result<R, Box<dyn Any + Send>>>>;
        let run_one = |cell: &J| catch_unwind(AssertUnwindSafe(|| f(cell)));
        let outcomes: Vec<Result<R, Box<dyn Any + Send>>> = if self.jobs <= 1 || n <= 1 {
            cells.iter().map(run_one).collect()
        } else {
            let next = AtomicUsize::new(0);
            let slots: Vec<Slot<R>> = (0..n).map(|_| Mutex::new(None)).collect();
            std::thread::scope(|scope| {
                for _ in 0..self.jobs.min(n) {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let outcome = run_one(&cells[i]);
                        *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
                    });
                }
            });
            slots
                .into_iter()
                .map(|slot| {
                    slot.into_inner()
                        .unwrap_or_else(|e| e.into_inner())
                        .expect("worker filled slot")
                })
                .collect()
        };
        let mut results = Vec::with_capacity(n);
        let mut first_panic = None;
        for (i, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Ok(result) => results.push(result),
                Err(payload) => {
                    eprintln!(
                        "[harness] cell {i}/{n} panicked: {} (completing the sweep before \
                         re-raising)",
                        panic_message(payload.as_ref())
                    );
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
        results
    }

    /// Runs a grid under full supervision: panics are isolated per
    /// cell (with the configured retry budget) and a deadline watchdog
    /// abandons hung cells, so the sweep always completes and reports
    /// one structured [`CellOutcome`] per cell, in cell order.
    pub fn run_grid_supervised<J, R, F>(&self, cells: Vec<J>, f: F) -> Vec<CellOutcome<R>>
    where
        J: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(&J) -> R + Send + Sync + 'static,
    {
        run_supervised(self.jobs, cells, self.grid_options(), f)
    }

    /// True if a resumed journal already contains a line for this
    /// context (binaries skip re-running such cells under `--resume`).
    pub fn have(&self, context: &[(&str, String)]) -> bool {
        if self.resumed == 0 {
            return false;
        }
        let prefix = format!("{{{}", context_json(&self.figure, context));
        self.lines[..self.resumed].iter().any(|line| {
            line.strip_prefix(prefix.as_str())
                .is_some_and(|rest| rest.starts_with(',') || rest.starts_with('}'))
        })
    }

    /// Appends one telemetry line: the figure name, the caller's context
    /// key/values, and the full counter surface of `record`.
    pub fn record(&mut self, context: &[(&str, String)], record: &RunRecord) {
        let line = format!(
            "{{{},{}}}",
            context_json(&self.figure, context),
            record.json_fields()
        );
        self.push_line(line);
    }

    /// Appends a context-only telemetry line, for model-level experiments
    /// that have no pipeline counters (queueing models, cost tables).
    pub fn note(&mut self, context: &[(&str, String)]) {
        self.push_line(format!("{{{}}}", context_json(&self.figure, context)));
    }

    /// Telemetry lines accumulated so far (tests inspect these),
    /// including any preloaded by `--resume`.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    fn journal_dir(&self) -> PathBuf {
        self.out_dir.clone().unwrap_or_else(|| {
            let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
            PathBuf::from(target).join("bench-records")
        })
    }

    fn journal_path(&self) -> PathBuf {
        self.journal_dir().join(format!("{}.jsonl", self.figure))
    }

    fn partial_path(&self) -> PathBuf {
        self.journal_dir()
            .join(format!("{}.jsonl.partial", self.figure))
    }

    fn push_line(&mut self, line: String) {
        if self.streaming {
            if let Err(e) = self.stream_line(&line) {
                // Fall back to buffered-only: finish() still publishes.
                eprintln!("[harness] journal streaming failed ({e}); buffering instead");
                self.streaming = false;
                self.writer = None;
            }
        }
        self.lines.push(line);
    }

    /// Writes `line` through to the partial journal, opening it (and
    /// replaying any already-buffered lines, e.g. a resumed prefix) on
    /// first use. Each line is flushed so a kill loses at most the line
    /// in flight.
    fn stream_line(&mut self, line: &str) -> std::io::Result<()> {
        if self.writer.is_none() {
            fs::create_dir_all(self.journal_dir())?;
            let mut writer = BufWriter::new(fs::File::create(self.partial_path())?);
            for prior in &self.lines {
                writeln!(writer, "{prior}")?;
            }
            self.writer = Some(writer);
        }
        let writer = self.writer.as_mut().expect("writer just opened");
        writeln!(writer, "{line}")?;
        writer.flush()
    }

    /// Publishes the journal: writes any unstreamed lines to
    /// `<figure>.jsonl.partial`, then atomically renames it over
    /// `target/bench-records/<figure>.jsonl` and returns that path.
    /// Readers of the final path never observe a torn file.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory or file cannot
    /// be written.
    pub fn finish(&mut self) -> std::io::Result<PathBuf> {
        let dir = self.journal_dir();
        fs::create_dir_all(&dir)?;
        let partial = self.partial_path();
        match self.writer.take() {
            Some(mut writer) => writer.flush()?,
            None => {
                let mut file = BufWriter::new(fs::File::create(&partial)?);
                for line in &self.lines {
                    writeln!(file, "{line}")?;
                }
                file.flush()?;
            }
        }
        let path = self.journal_path();
        fs::rename(&partial, &path)?;
        eprintln!(
            "[harness] {} record(s) -> {}",
            self.lines.len(),
            path.display()
        );
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn grid_order_is_deterministic_across_job_counts() {
        let cells: Vec<u64> = (0..97).collect();
        let work = |cell: &u64| {
            // Uneven per-cell cost so workers interleave.
            let mut acc = *cell;
            for _ in 0..(cell % 13) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (*cell, acc)
        };
        let sequential = Harness::new("test", 1, false).run_grid(&cells, work);
        for jobs in [2, 4, 8] {
            let parallel = Harness::new("test", jobs, false).run_grid(&cells, work);
            assert_eq!(sequential, parallel, "jobs={jobs} must be bit-identical");
        }
    }

    #[test]
    fn smoke_scales_iterations_and_suites() {
        let full = Harness::new("test", 1, false);
        let smoke = Harness::new("test", 1, true);
        assert_eq!(full.iters(1000, 10), 1000);
        assert_eq!(smoke.iters(1000, 10), 10);
        assert_eq!(full.subset(vec![1, 2, 3, 4], 2), vec![1, 2, 3, 4]);
        assert_eq!(smoke.subset(vec![1, 2, 3, 4], 2), vec![1, 2]);
    }

    #[test]
    fn telemetry_lines_carry_context_and_counters() {
        let mut harness = Harness::new("figX", 1, false);
        harness.note(&[("kernel", "fib\"2".to_string())]);
        assert_eq!(
            harness.lines()[0],
            "{\"figure\":\"figX\",\"kernel\":\"fib\\\"2\"}"
        );

        let program = {
            let mut asm = hfi_sim::ProgramBuilder::new(0x1000);
            asm.movi(hfi_sim::Reg(0), 7);
            asm.halt();
            asm.finish()
        };
        let mut machine = hfi_sim::Machine::new(program);
        machine.run(1_000);
        let record = hfi_sim::Executor::stats(&machine);
        harness.record(&[("isolation", "hfi".to_string())], &record);
        let line = &harness.lines()[1];
        assert!(
            line.starts_with("{\"figure\":\"figX\",\"isolation\":\"hfi\",\"executor\":\"cycle\"")
        );
        assert!(line.ends_with('}'));
        assert!(line.contains("\"rob_stall_cycles\":"));
        assert_eq!(line.matches('{').count(), 1);
    }

    #[test]
    fn zero_jobs_means_all_cores() {
        let harness = Harness::new("test", 0, false);
        assert!(harness.jobs() >= 1);
    }

    #[test]
    fn malformed_jobs_values_are_rejected() {
        let parse = |a: &[&str], flags: &[Flag]| parse_cli(a.iter().map(|s| s.to_string()), flags);
        // `--jobs garbage` and `--jobs=garbage` must both be hard
        // errors, not a silent fall-through to the sequential default.
        assert!(parse(&["--jobs", "garbage"], &[]).is_err());
        assert!(parse(&["--jobs=garbage"], &[]).is_err());
        assert!(parse(&["--jobs"], &[]).is_err());
        assert!(parse(&["--cell-deadline=soon"], &[]).is_err());
        assert!(parse(&["--cell-retries", "-1"], &[]).is_err());

        let ok = parse(&["--jobs", "4", "--smoke", "--resume"], &[]).unwrap();
        assert_eq!(ok.number("--jobs", None), Ok(Some(4)));
        assert!(ok.switch("--smoke") && ok.switch("--resume"));
        let ok = parse(&["--jobs=0", "--cell-deadline", "250"], &[]).unwrap();
        assert_eq!(ok.number("--jobs", None), Ok(Some(0)));
        assert_eq!(ok.number("--cell-deadline", None), Ok(Some(250)));
        assert!(parse(&["--seed", "garbage"], &[]).is_err());
        let ok = parse(&["--seed=42"], &[]).unwrap();
        assert_eq!(ok.number("--seed", None), Ok(Some(42)));
        assert_eq!(Harness::new("test", 1, false).with_seed(7).seed_or(0), 7);
        assert_eq!(Harness::new("test", 1, false).seed_or(9), 9);

        // Undeclared flags are errors, not pass-throughs: a misspelt
        // `--check` must not run the binary with its gate disarmed.
        assert!(parse(&["--mutants", "--check", "x.json"], &[]).is_err());
        let gated = [Flag::Switch("--degrade"), Flag::Value("--check")];
        assert!(parse(&["--smoke", "--chek", "base.json"], &gated).is_err());
        assert!(parse(&["--smoke", "base.json"], &gated).is_err());
        // A value flag without its value, at the end or before the next
        // flag, and a switch given a value are errors too.
        assert!(parse(&["--smoke", "--check"], &gated).is_err());
        assert!(parse(&["--check", "--smoke"], &gated).is_err());
        assert!(parse(&["--degrade=yes"], &gated).is_err());

        // Declared flags parse in both value forms; the last one wins.
        let ok = parse(
            &["--check", "a.json", "--degrade", "--check=b.json"],
            &gated,
        )
        .unwrap();
        assert!(ok.switch("--degrade"));
        assert_eq!(ok.value("--check"), Some("b.json"));
        let ok = parse(&["--smoke"], &gated).unwrap();
        assert!(!ok.switch("--degrade"));
        assert_eq!(ok.value("--check"), None);
    }

    #[test]
    fn run_grid_completes_remaining_cells_before_re_raising() {
        let cells: Vec<u32> = (0..16).collect();
        let ran = AtomicU32::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            Harness::new("test", 4, false).run_grid(&cells, |cell| {
                ran.fetch_add(1, Ordering::Relaxed);
                if *cell == 3 {
                    panic!("cell 3 exploded");
                }
                *cell
            })
        }));
        let payload = caught.expect_err("the cell panic must still propagate");
        assert_eq!(panic_message(payload.as_ref()), "cell 3 exploded");
        assert_eq!(
            ran.load(Ordering::Relaxed),
            16,
            "every cell must run despite the panic"
        );
    }

    #[test]
    fn supervised_grid_reports_panics_structurally() {
        let cells: Vec<u32> = (0..8).collect();
        let outcomes = Harness::new("test", 4, false).run_grid_supervised(cells, |cell| {
            if *cell == 5 {
                panic!("boom {cell}");
            }
            cell * 10
        });
        assert_eq!(outcomes.len(), 8);
        for (i, outcome) in outcomes.iter().enumerate() {
            if i == 5 {
                assert_eq!(
                    outcome,
                    &CellOutcome::Panicked {
                        msg: "boom 5".to_string()
                    }
                );
                assert!(outcome.is_failure());
            } else {
                assert_eq!(outcome.result(), Some(&(i as u32 * 10)), "cell {i}");
            }
        }
    }

    #[test]
    fn supervised_grid_retries_transient_failures() {
        // Cell 2 panics on its first attempt only.
        let attempts: Vec<AtomicU32> = (0..4).map(|_| AtomicU32::new(0)).collect();
        let attempts = Arc::new(attempts);
        let seen = Arc::clone(&attempts);
        let opts = GridOptions {
            retries: 2,
            backoff: Duration::from_millis(1),
            ..GridOptions::default()
        };
        let outcomes = run_supervised(2, (0..4u32).collect(), opts, move |cell: &u32| {
            let attempt = seen[*cell as usize].fetch_add(1, Ordering::Relaxed);
            if *cell == 2 && attempt == 0 {
                panic!("transient");
            }
            *cell
        });
        assert_eq!(outcomes[2], CellOutcome::Retried { n: 1, result: 2 });
        assert_eq!(outcomes[2].label(), "retried");
        for i in [0usize, 1, 3] {
            assert_eq!(outcomes[i], CellOutcome::Ok(i as u32));
        }
    }

    #[test]
    fn supervised_grid_times_out_hung_cells_and_finishes_the_rest() {
        let opts = GridOptions {
            deadline: Some(Duration::from_millis(100)),
            ..GridOptions::default()
        };
        // Cell 1 "hangs" (sleeps far past the deadline); the sweep must
        // still complete every other cell and report the hang.
        let outcomes = run_supervised(2, (0..6u32).collect(), opts, |cell: &u32| {
            if *cell == 1 {
                std::thread::sleep(Duration::from_secs(30));
            }
            *cell
        });
        assert_eq!(outcomes[1], CellOutcome::TimedOut);
        assert_eq!(outcomes[1].label(), "timed-out");
        for i in [0usize, 2, 3, 4, 5] {
            assert_eq!(outcomes[i], CellOutcome::Ok(i as u32), "cell {i}");
        }
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "hfi-harness-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn resume_merges_bit_identical_with_an_uninterrupted_run() {
        let dir = scratch_dir("resume");
        let ctx = |i: usize| vec![("cell", format!("c{i}"))];

        // Run A streams cells 0..3 and is "killed" (dropped, no finish):
        // the partial journal keeps the prefix.
        let mut killed = Harness::new("resume", 1, false)
            .with_output_dir(dir.clone())
            .with_streaming();
        for i in 0..3 {
            killed.note(&ctx(i));
        }
        drop(killed);
        assert!(dir.join("resume.jsonl.partial").exists());

        // Run B resumes: it must see the journaled cells, re-run only
        // the missing ones, and publish a merged journal.
        let mut resumed = Harness::new("resume", 1, false)
            .with_output_dir(dir.clone())
            .with_streaming()
            .with_resume();
        let mut reran = Vec::new();
        for i in 0..6 {
            let context = ctx(i);
            if resumed.have(&context) {
                continue;
            }
            reran.push(i);
            resumed.note(&context);
        }
        assert_eq!(reran, vec![3, 4, 5], "only missing cells re-run");
        let merged_path = resumed.finish().expect("finish resumed run");
        assert!(
            !dir.join("resume.jsonl.partial").exists(),
            "rename is atomic"
        );

        // An uninterrupted run of the same grid, for comparison.
        let clean_dir = scratch_dir("resume-clean");
        let mut clean = Harness::new("resume", 1, false).with_output_dir(clean_dir.clone());
        for i in 0..6 {
            clean.note(&ctx(i));
        }
        let clean_path = clean.finish().expect("finish clean run");

        let merged = fs::read_to_string(merged_path).unwrap();
        let clean = fs::read_to_string(clean_path).unwrap();
        assert_eq!(merged, clean, "merged journal must be bit-identical");
        fs::remove_dir_all(dir).ok();
        fs::remove_dir_all(clean_dir).ok();
    }

    #[test]
    fn finish_publishes_atomically_for_buffered_harnesses() {
        let dir = scratch_dir("buffered");
        let mut harness = Harness::new("buffered", 1, false).with_output_dir(dir.clone());
        harness.note(&[("k", "v".to_string())]);
        let path = harness.finish().expect("finish");
        assert_eq!(
            fs::read_to_string(path).unwrap(),
            "{\"figure\":\"buffered\",\"k\":\"v\"}\n"
        );
        assert!(!dir.join("buffered.jsonl.partial").exists());
        fs::remove_dir_all(dir).ok();
    }
}
