//! The parallel execution layer behind the sparse kernels.
//!
//! The registry crates (`rayon`) are unavailable in this build environment,
//! so the engine carries its own minimal fork-join on the persistent worker
//! pool in [`crate::pool`]: a slice is split into contiguous chunks, the
//! chunks are dispatched as tasks onto the pool (the calling thread
//! participates as lane 0), and per-chunk results are joined into a `Vec`
//! in slice order.
//!
//! Everything here compiles away under `--no-default-features`: without the
//! `parallel` feature the helpers degrade to straight sequential calls with
//! identical results, and no pool threads are ever spawned.
//!
//! # The dispatch gate
//!
//! A dispatch is not cheap: on a 2-core host an epoch costs 5–15 µs from
//! dispatch to completion on hot lanes and 15–55 µs once the lanes have
//! parked (`perf_report`'s `pool.dispatch_ns` / `pool.parked_dispatch_ns`),
//! and some parallel forms do more work than their sequential twins (the
//! forward gather tests the mask on every stored entry of the transpose,
//! where the sequential scatter skips zero-mass rows). How much that costs
//! depends on the matrix as well as its size: at the same 16k–32k stored
//! nonzeros the forward gather runs 1.7x faster than the scatter on a
//! random synthetic chain and 1.8x slower on the chains of `smg-core`'s
//! Table I and II analyses, on the same 2-core host. So every dispatch
//! site is a static [`Site`] that *times* both of its forms on the running
//! host and picks the cheaper one per log2 bucket of a call's work (see
//! [`Site`] for the protocol).
//!
//! Explicit pins bypass the measurement and keep the static rule of
//! [`should_parallelize`] — a call of at least [`min_rows`] rows runs in
//! parallel when more than one lane is configured: `SMG_PAR_MIN_ROWS`
//! (process-wide), [`with_lane_scope`] (and so `CheckSession::threads`),
//! and the sim interleaver's threshold override ([`pinned`]). Callers with
//! their own thresholds (`ViOptions::par_min_states` in `smg-mdp`) apply
//! them before reaching a site. State-space exploration has no parallel
//! form: its BFS runs on the calling thread, and only the label and
//! reward scans after it dispatch, through sites.
//!
//! # Determinism
//!
//! Chunk geometry is a pure function of the input length and the configured
//! thread count, chunks are processed independently, and results are joined
//! in slice order — so every `chunked_map` caller sees results that do not
//! depend on scheduling. The kernels built on top (see [`crate::matrix`],
//! [`crate::solve`], the label and reward scans, and `smg-mdp`'s backups) are
//! bit-identical to their sequential counterparts by construction, with no
//! exception, so which form a site picks never changes an answer.
//!
//! # Tuning knobs (environment variables, read once per process)
//!
//! * `SMG_THREADS` — set the worker-lane count (default: available
//!   parallelism; values above it are honoured, which lets tests drive the
//!   threaded paths on low-core machines);
//! * `SMG_PAR_MIN_ROWS` — replace the measured gate with the static
//!   threshold rule at this many rows.

use crate::pool;
use smg_obs as obs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

#[cfg(feature = "parallel")]
thread_local! {
    /// An explicit lane count scoped to the current thread (see
    /// [`with_lane_scope`]); `None` means the process-wide configuration
    /// (`SMG_THREADS` / detected parallelism) applies.
    static LANE_SCOPE: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Runs `f` with every parallel kernel dispatched *from this thread*
/// pinned to `lanes` worker lanes (the process-wide pool when `lanes`
/// matches its lane count, a shared pool of `lanes` lanes otherwise; see
/// [`scoped_pool`]), overriding the process-wide `SMG_THREADS`
/// configuration for the dynamic extent of the call. A lane count of 1
/// forces the sequential fallbacks. Scopes nest — the innermost wins —
/// and the previous scope is restored on exit. Without the `parallel`
/// feature this is a plain call.
///
/// This is how [`smg-pctl`'s] `CheckSession::threads` pins both engines:
/// the chain kernels and `smg-mdp`'s backups and condensation batches all
/// dispatch on [`scoped_pool`] and decide through [`pinned`].
///
/// [`smg-pctl`'s]: https://docs.rs/smg-pctl
pub fn with_lane_scope<R>(lanes: usize, f: impl FnOnce() -> R) -> R {
    #[cfg(feature = "parallel")]
    {
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                LANE_SCOPE.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(LANE_SCOPE.with(|c| c.replace(Some(lanes.max(1)))));
        f()
    }
    #[cfg(not(feature = "parallel"))]
    {
        let _ = lanes;
        f()
    }
}

/// The lane count scoped to the current thread, when one is set.
#[cfg(feature = "parallel")]
fn scoped_lanes() -> Option<usize> {
    LANE_SCOPE.with(std::cell::Cell::get)
}

/// The pool kernels on this thread should dispatch onto: inside a
/// [`with_lane_scope`] of another lane count than the process-wide one,
/// the scope's shared pool; the process-wide [`pool::global`] otherwise,
/// so a scope pinning the default lane count runs on the same lanes an
/// unpinned call would.
pub fn scoped_pool() -> &'static pool::Pool {
    #[cfg(feature = "parallel")]
    if let Some(lanes) = scoped_lanes().filter(|&l| l != max_threads()) {
        return pool::shared(lanes);
    }
    pool::global()
}

/// Row-count threshold of the static rule ([`should_parallelize`]) that
/// explicit pins keep: inside a [`with_lane_scope`] of more than one lane
/// a call of at least this many rows runs in parallel. `SMG_PAR_MIN_ROWS`
/// replaces the value and turns the rule on process-wide. It is not a
/// cost model — an epoch costs 5–55 µs on a 2-core host, more than a
/// 4k-row sweep of a sparse chain — so unpinned calls go through the
/// measured [`Site`]s.
pub const PAR_MIN_ROWS: usize = 4_096;

/// Hard ceiling on the configurable lane count. Oversubscription well
/// above the core count is deliberately allowed (tests drive the threaded
/// paths on small machines), but a typo like `SMG_THREADS=80000` would
/// otherwise spawn tens of thousands of parked OS threads.
#[cfg(feature = "parallel")]
const THREADS_CAP: usize = 1_024;

/// Interprets a raw `SMG_THREADS` value against the detected parallelism.
///
/// Returns the lane count to use plus a warning to print (at most one)
/// when the value was rejected or clamped:
///
/// * unset → detected parallelism, silently;
/// * a positive integer ≤ [`THREADS_CAP`] → honoured as-is (including
///   values above the core count);
/// * `0` → rejected, detected parallelism, one warning;
/// * garbage (non-numeric, empty, negative) → rejected, detected
///   parallelism, one warning;
/// * absurd (> [`THREADS_CAP`]) → clamped to the cap, one warning.
#[cfg(feature = "parallel")]
fn parse_threads(raw: Option<&str>, detected: usize) -> (usize, Option<String>) {
    let Some(raw) = raw else {
        return (detected, None);
    };
    match raw.trim().parse::<u64>() {
        Ok(0) => (
            detected,
            Some(format!(
                "SMG_THREADS=0 is invalid (the dispatching thread is always a lane); \
                 falling back to the detected parallelism ({detected})"
            )),
        ),
        Ok(n) if n > THREADS_CAP as u64 => (
            THREADS_CAP,
            Some(format!(
                "SMG_THREADS={n} exceeds the {THREADS_CAP}-lane cap; clamping to {THREADS_CAP}"
            )),
        ),
        Ok(n) => (n as usize, None),
        Err(_) => (
            detected,
            Some(format!(
                "SMG_THREADS={raw:?} is not a thread count; \
                 falling back to the detected parallelism ({detected})"
            )),
        ),
    }
}

/// The number of worker lanes parallel kernels may use (≥ 1).
///
/// `SMG_THREADS` overrides the detected parallelism outright — including
/// *above* it, up to a 1024-lane cap. Oversubscription is harmless for
/// correctness and lets the real threaded driver be exercised
/// deterministically on low-core machines (the kernel test suites rely on
/// this). Zero, garbage, and absurd values fall back to a sane count with
/// a single warning on stderr instead of silently misbehaving.
#[cfg(feature = "parallel")]
pub fn max_threads() -> usize {
    use std::sync::OnceLock;
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        let raw = std::env::var("SMG_THREADS").ok();
        let detected = std::thread::available_parallelism().map_or(1, usize::from);
        let (lanes, warning) = parse_threads(raw.as_deref(), detected);
        if let Some(w) = warning {
            eprintln!("smg-dtmc: {w}");
        }
        lanes
    })
}

/// The number of worker lanes parallel kernels may use (≥ 1).
#[cfg(not(feature = "parallel"))]
pub fn max_threads() -> usize {
    1
}

/// `SMG_PAR_MIN_ROWS`, when set to a row count: the process-wide pin that
/// replaces the measured gate with the static rule.
pub fn env_min_rows() -> Option<usize> {
    use std::sync::OnceLock;
    static MIN: OnceLock<Option<usize>> = OnceLock::new();
    *MIN.get_or_init(|| {
        std::env::var("SMG_PAR_MIN_ROWS")
            .ok()
            .and_then(|v| v.parse().ok())
    })
}

/// The row threshold of the static rule: `SMG_PAR_MIN_ROWS` when set,
/// [`PAR_MIN_ROWS`] otherwise.
pub fn min_rows() -> usize {
    env_min_rows().unwrap_or(PAR_MIN_ROWS)
}

/// The process-wide threshold of the static rule, folded into one cached
/// word: `usize::MAX` when the feature is off or only one lane is
/// configured, else [`min_rows`]. Caching the *combined* decision keeps the
/// sequential fast path of every kernel call to a single atomic load
/// instead of feature + thread-count + env-threshold lookups — measurable
/// on small chains where a kernel call is only a few microseconds.
fn par_threshold() -> usize {
    use std::sync::OnceLock;
    static THRESHOLD: OnceLock<usize> = OnceLock::new();
    *THRESHOLD.get_or_init(|| {
        if cfg!(feature = "parallel") && max_threads() > 1 {
            min_rows()
        } else {
            usize::MAX
        }
    })
}

/// Whether the calls of this thread go through the measured gate: more
/// than one lane, no `SMG_PAR_MIN_ROWS`, and no [`with_lane_scope`] or sim
/// interleaver pinning the static rule.
fn measured() -> bool {
    #[cfg(feature = "sim")]
    if crate::sim::active() {
        return false;
    }
    #[cfg(feature = "parallel")]
    if scoped_lanes().is_some() {
        return false;
    }
    par_threshold() != usize::MAX && env_min_rows().is_none()
}

/// The static rule: whether a kernel over `rows` rows takes its parallel
/// path when the dispatch is pinned (see the module docs). A
/// [`with_lane_scope`] on the current thread overrides the process-wide
/// lane configuration (1 lane disables parallelism outright); the
/// `min_rows` threshold applies either way. With a sim interleaver
/// installed (`sim` feature), the sim's own threshold wins so that small
/// test models still exercise the dispatch paths under simulation.
/// Unpinned calls of a [`Site`] are measured instead.
pub fn should_parallelize(rows: usize) -> bool {
    #[cfg(feature = "sim")]
    if let Some(m) = crate::sim::min_rows_override() {
        return rows >= m.max(2);
    }
    #[cfg(feature = "parallel")]
    if let Some(lanes) = scoped_lanes() {
        return lanes > 1 && rows >= min_rows();
    }
    let t = par_threshold();
    t != usize::MAX && rows >= t
}

/// The static rule for a call over `rows` rows when the calls of this
/// thread are pinned (see the module docs), `None` when they go through
/// the measured gate.
pub fn pinned(rows: usize) -> Option<bool> {
    (!measured()).then(|| should_parallelize(rows))
}

/// Work (in a site's own units) below which a call runs sequentially and
/// is not timed: a 4k-unit call is a few µs of sequential work, less than
/// one hot dispatch.
pub const GATE_FLOOR: usize = 4_096;

/// A share of `total` units of work spread over `n` rows: the share of 64
/// evenly spaced rows for which `live` holds. Kernels that skip rows (a
/// masked product skips the rows outside its mask, the forward scatter
/// also the rows without mass) report this as their work, so that their
/// timings are per unit of work actually done and a cheap masked call does
/// not make its form look cheap on unmasked calls of the same size. A
/// `total` below [`GATE_FLOOR`] comes back unprobed: such a call runs
/// sequentially whatever its share.
pub fn live_work(total: usize, n: usize, live: impl Fn(usize) -> bool) -> usize {
    const PROBES: usize = 64;
    let probes = n.min(PROBES);
    if probes == 0 {
        return 0;
    }
    if total < GATE_FLOOR {
        return total;
    }
    let hits = (0..probes).filter(|&k| live(k * n / probes)).count();
    total / probes * hits
}

/// The call count of a bucket at which the losing form is first re-tried;
/// later re-tries come at every power of two (8, 16, 32, …).
const FIRST_RETRY: u64 = 4;

/// Trials of each form a bucket takes before it picks one, and the number
/// of recent samples its estimate of each form is the median of.
const TRIALS: u64 = 3;

/// How many times lower than the sequential form's estimate the parallel
/// form's must be for a bucket to pick it, so that near ties run
/// sequentially whatever the last few samples said. The parallel forms
/// that pay win by 1.6–2.0x on `perf_report`'s `gate` rows.
const PAR_MARGIN: f64 = 1.25;

/// What a [`Site`] decided for one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Choice {
    /// Run the parallel form.
    parallel: bool,
    /// Time the call and [`Site::record`] it.
    timed: bool,
    /// The call re-tries the form that has been losing.
    retry: bool,
}

impl Choice {
    /// A call the gate does not measure.
    const fn untimed(parallel: bool) -> Choice {
        Choice {
            parallel,
            timed: false,
            retry: false,
        }
    }
}

/// One log2 bucket of a site's work: the last [`TRIALS`] observed ns per
/// unit of work of each form (`f64` bits, written round-robin), the sample
/// counts, and the calls decided after the trials.
struct Bucket {
    recent: [[AtomicU64; TRIALS as usize]; 2],
    samples: [AtomicU64; 2],
    calls: AtomicU64,
}

impl Bucket {
    const fn new() -> Bucket {
        Bucket {
            recent: [const { [const { AtomicU64::new(0) }; TRIALS as usize] }; 2],
            samples: [AtomicU64::new(0), AtomicU64::new(0)],
            calls: AtomicU64::new(0),
        }
    }

    /// The median of the last [`TRIALS`] samples of a form.
    fn estimate(&self, form: usize) -> f64 {
        let mut v = self.recent[form]
            .each_ref()
            .map(|x| f64::from_bits(x.load(Ordering::Relaxed)));
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    }
}

/// A measured sequential-or-parallel choice at one dispatch site.
///
/// Each kernel that can fan out keeps one `static` site. Per log2 bucket
/// of a call's work (stored nonzeros for a sparse product and transitions
/// for an MDP backup, of the rows it works on — see [`live_work`]; states
/// for condensation batches, label and reward scans and lumping rounds)
/// the site estimates the ns per unit of its sequential form and of its
/// parallel form as the median of the last three it observed:
///
/// * below [`GATE_FLOOR`] units a call runs sequentially, untimed;
/// * above it, a bucket runs sequentially until it has three samples, then
///   tries the parallel form three times, then runs the cheaper form — the
///   parallel one only when its estimate is at least 1.25x lower, so near
///   ties stay sequential — and re-tries the other at its 4th, 8th, 16th,
///   … call, so slow trials (a cold cache, a transpose built on first
///   use) cannot pin a form for good. A parallel re-try runs on lanes
///   woken by an empty epoch first (see [`Site::run`]);
/// * after the trials only the re-tries and the calls just before them
///   (the 3rd, 7th, 15th, …) are timed, so both estimates are as fresh.
///
/// A median, not a minimum: on a shared 2-core host a parallel call now
/// and then runs at twice its usual speed, and a minimum keeps that rare
/// best case for good. On the `paper` workload's largest forward products
/// the gather's samples mostly read 3.0–5.5 ns per unit with single
/// outliers at 1.1–2.2, the scatter's 1.2–2.4, and a minimum picked the
/// gather in some runs and the scatter in others.
///
/// Pinned calls (see the module docs) skip all of this and take the static
/// rule of [`should_parallelize`]. The state is a handful of relaxed
/// atomics per bucket: concurrent callers may both take a trial, which
/// costs one extra timed call and never an answer, since both forms of
/// every site compute the same bits.
pub struct Site {
    name: &'static str,
    buckets: [Bucket; 64],
}

impl std::fmt::Debug for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Site").field("name", &self.name).finish()
    }
}

impl Site {
    /// A site with no observations; `name` labels its
    /// `smg_par_dispatch_total` series.
    pub const fn new(name: &'static str) -> Site {
        Site {
            name,
            buckets: [const { Bucket::new() }; 64],
        }
    }

    /// Decides one call over `rows` rows carrying `work` units: the static
    /// rule on `rows` when pinned, the measured choice on `work` otherwise.
    /// Counts the decision as `smg_par_dispatch_total{site, path}`, except
    /// for a sequential call below [`GATE_FLOOR`] in both rows and work:
    /// that is no decision, and an event for each (a condensation walk
    /// makes one call per level) would cost more than the calls.
    fn choose(&self, rows: usize, work: usize) -> Choice {
        let choice = match pinned(rows) {
            Some(parallel) => Choice::untimed(parallel),
            None => self.decide(work),
        };
        if choice.parallel || rows.max(work) >= GATE_FLOOR {
            obs::counter_add_labels(
                "smg_par_dispatch_total",
                &[
                    ("site", self.name),
                    ("path", if choice.parallel { "par" } else { "seq" }),
                ],
                1,
            );
        }
        choice
    }

    /// The measured choice for a call of `work` units (no pins, no clock).
    fn decide(&self, work: usize) -> Choice {
        if work < GATE_FLOOR {
            return Choice::untimed(false);
        }
        let b = &self.buckets[work.ilog2() as usize];
        let trial = |parallel| Choice {
            parallel,
            timed: true,
            retry: false,
        };
        if b.samples[0].load(Ordering::Relaxed) < TRIALS {
            return trial(false);
        }
        if b.samples[1].load(Ordering::Relaxed) < TRIALS {
            return trial(true);
        }
        let par_wins = b.estimate(1) * PAR_MARGIN < b.estimate(0);
        let call = b.calls.fetch_add(1, Ordering::Relaxed) + 1;
        let retry = call >= FIRST_RETRY && call.is_power_of_two();
        let before_retry = call + 1 >= FIRST_RETRY && (call + 1).is_power_of_two();
        Choice {
            parallel: par_wins != retry,
            timed: retry || before_retry,
            retry,
        }
    }

    /// Records that a timed call of `work` units took `ns` nanoseconds in
    /// the form `parallel` names.
    fn record(&self, work: usize, parallel: bool, ns: u64) {
        if work < GATE_FLOOR {
            return;
        }
        let b = &self.buckets[work.ilog2() as usize];
        let form = usize::from(parallel);
        let slot = b.samples[form].fetch_add(1, Ordering::Relaxed) % TRIALS;
        b.recent[form][slot as usize].store((ns as f64 / work as f64).to_bits(), Ordering::Relaxed);
    }

    /// Runs `f` with the form the site picks for a call over `rows` rows
    /// carrying `work` units (`true` = parallel): the static rule on `rows`
    /// when pinned, the measured choice on `work` otherwise, counted as
    /// `smg_par_dispatch_total{site, path}`. Timed calls are recorded. A
    /// parallel re-try first wakes the lanes with an empty epoch, untimed:
    /// after a run of sequential calls they have parked, and one parked
    /// wake-up (15–55 µs on a 2-core host) would otherwise be charged to a
    /// form that, once picked, runs call after call on awake lanes.
    pub fn run<R>(&self, rows: usize, work: usize, f: impl FnOnce(bool) -> R) -> R {
        let choice = self.choose(rows, work);
        if !choice.timed {
            return f(choice.parallel);
        }
        if choice.parallel && choice.retry {
            let pool = pool::global();
            pool.run(pool.lanes(), &|_| {});
        }
        let start = Instant::now();
        let out = f(choice.parallel);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.record(work, choice.parallel, ns);
        out
    }
}

/// The chunk size a kernel should use where it would normally use
/// `default`: the sim's [`crate::sim::SimConfig::kernel_chunk`] cap when
/// an interleaver is installed on this thread, `default` otherwise. With
/// the `sim` feature off this is the identity function and compiles away
/// — the production chunk geometry is untouched.
#[inline]
pub fn tune_chunk(default: usize) -> usize {
    #[cfg(feature = "sim")]
    if let Some(cap) = crate::sim::kernel_chunk() {
        return cap.clamp(1, default.max(1));
    }
    default
}

/// Splits `data` into at most [`max_threads`] contiguous chunks, runs
/// `f(chunk_offset, chunk)` on each as a task on the persistent pool (the
/// calling thread executes its own share), and returns the per-chunk
/// results in slice order.
///
/// Sequential (single chunk) when the `parallel` feature is off, the data
/// is shorter than two `min_chunk`s, or only one lane is configured.
pub fn chunked_map<T, R, F>(data: &mut [T], min_chunk: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    let n = data.len();
    #[cfg(feature = "parallel")]
    let lanes = scoped_lanes().unwrap_or_else(max_threads);
    #[cfg(not(feature = "parallel"))]
    let lanes = 1;
    let threads = lanes.min(n / min_chunk.max(1)).max(1);
    if threads <= 1 || cfg!(not(feature = "parallel")) {
        return vec![f(0, data)];
    }
    scoped_pool().map_chunks(data, n.div_ceil(threads), &f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_map_covers_every_element_once() {
        let mut data: Vec<u64> = (0..100_000).collect();
        let sums = chunked_map(&mut data, 1000, |off, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                assert_eq!(*v as usize, off + i, "offset bookkeeping");
                *v += 1;
            }
            chunk.iter().sum::<u64>()
        });
        let total: u64 = sums.iter().sum();
        let n = data.len() as u64;
        assert_eq!(total, n * (n - 1) / 2 + n);
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64 + 1));
    }

    #[test]
    fn small_input_stays_single_chunk() {
        let mut data = [1u8; 10];
        let results = chunked_map(&mut data, 1000, |off, chunk| (off, chunk.len()));
        assert_eq!(results, vec![(0, 10)]);
    }

    #[test]
    fn lane_scope_overrides_and_restores() {
        // Inside a 1-lane scope nothing parallelizes, whatever the
        // process-wide configuration; the prior state returns on exit.
        let before = should_parallelize(min_rows());
        with_lane_scope(1, || {
            assert!(!should_parallelize(usize::MAX / 2));
            // Scopes nest, innermost wins.
            with_lane_scope(3, || {
                assert_eq!(
                    should_parallelize(min_rows()),
                    cfg!(feature = "parallel"),
                    "3-lane scope parallelizes at the threshold"
                );
            });
            assert!(!should_parallelize(usize::MAX / 2));
            // chunked_map respects the scope: one chunk, inline.
            let mut data: Vec<u64> = (0..100_000).collect();
            let results = chunked_map(&mut data, 1, |off, chunk| (off, chunk.len()));
            assert_eq!(results, vec![(0, 100_000)]);
        });
        assert_eq!(should_parallelize(min_rows()), before);
        // The scoped pool matches the scope's lane count.
        #[cfg(feature = "parallel")]
        with_lane_scope(2, || {
            assert_eq!(scoped_pool().lanes(), 2);
        });
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn smg_threads_parsing_rejects_zero_garbage_and_absurd_values() {
        // Unset: detected parallelism, no warning.
        assert_eq!(parse_threads(None, 8), (8, None));
        // Valid values are honoured as-is, including oversubscription.
        assert_eq!(parse_threads(Some("3"), 8), (3, None));
        assert_eq!(parse_threads(Some(" 16 "), 2), (16, None));
        // Zero is rejected with a warning and a sane fallback.
        let (lanes, warn) = parse_threads(Some("0"), 8);
        assert_eq!(lanes, 8);
        assert!(warn.unwrap().contains("SMG_THREADS=0"));
        // Garbage is rejected with a warning and a sane fallback.
        for garbage in ["", "zwölf", "4.5", "-2", "1e3"] {
            let (lanes, warn) = parse_threads(Some(garbage), 6);
            assert_eq!(lanes, 6, "garbage {garbage:?}");
            assert!(
                warn.unwrap().contains("not a thread count"),
                "garbage {garbage:?}"
            );
        }
        // Absurd values are clamped to the cap with a warning.
        let (lanes, warn) = parse_threads(Some("80000"), 8);
        assert_eq!(lanes, super::THREADS_CAP);
        assert!(warn.unwrap().contains("clamping"));
        // A huge value that doesn't even fit u64 is garbage, not a clamp.
        let (lanes, _) = parse_threads(Some("99999999999999999999999999"), 4);
        assert_eq!(lanes, 4);
    }

    /// A gated call's choice, with a synthetic `ns_per_unit` recorded for
    /// it when the gate times it: the gate protocol driven without a clock.
    fn step(site: &Site, work: usize, seq_ns: u64, par_ns: u64) -> bool {
        let c = site.decide(work);
        if c.timed {
            let per_unit = if c.parallel { par_ns } else { seq_ns };
            site.record(work, c.parallel, per_unit * work as u64);
        }
        c.parallel
    }

    /// The calls a bucket takes before it decides: the trials of both forms.
    const WARM: usize = 2 * TRIALS as usize;

    #[test]
    fn gate_runs_sequential_before_any_parallel_trial() {
        let site = Site::new("test");
        let work = 1 << 16;
        let forms: Vec<bool> = (0..WARM).map(|_| step(&site, work, 3, 1)).collect();
        assert_eq!(
            forms,
            [false, false, false, true, true, true],
            "three sequential, then three trials"
        );
        // Parallel recorded cheaper: it wins from here on.
        assert!(step(&site, work, 3, 1));
        assert!(step(&site, work, 3, 1));
    }

    #[test]
    fn gate_picks_the_cheaper_form_per_bucket() {
        let site = Site::new("test");
        let (small, large) = (1 << 13, 1 << 20);
        for _ in 0..WARM {
            step(&site, small, 2, 5);
            step(&site, large, 5, 2);
        }
        // Calls 1 and 2 after the trials take the winner of their own
        // bucket.
        for _ in 0..2 {
            assert!(!step(&site, small, 2, 5), "sequential wins small calls");
            assert!(step(&site, large, 5, 2), "parallel wins large calls");
        }
        // Work inside one log2 bucket shares its observations (call 3).
        assert!(step(&site, large + large / 2, 5, 2));
    }

    #[test]
    fn near_ties_stay_sequential() {
        let site = Site::new("test");
        let (tie, clear) = (1 << 14, 1 << 18);
        for _ in 0..WARM {
            // Parallel a tenth cheaper on one bucket, a third on the other.
            step(&site, tie, 10, 9);
            step(&site, clear, 12, 8);
        }
        for _ in 0..2 {
            assert!(!step(&site, tie, 10, 9), "a near tie runs sequentially");
            assert!(step(&site, clear, 12, 8), "a clear win runs in parallel");
        }
    }

    #[test]
    fn one_fast_outlier_does_not_pick_a_form() {
        let site = Site::new("test");
        let work = 1 << 16;
        for _ in 0..TRIALS {
            step(&site, work, 2, 2);
        }
        // One parallel trial catches both cores idle and runs at a quarter
        // of the form's usual cost; the other two read the usual cost.
        let trials = [1, 4, 4].map(|par| step(&site, work, 2, par));
        assert_eq!(trials, [true; 3]);
        assert!(!step(&site, work, 2, 4), "the median, 4, loses to 2");
    }

    #[test]
    fn slow_parallel_trials_are_retried_and_overturned() {
        let site = Site::new("test");
        let work = 1 << 15;
        for _ in 0..TRIALS {
            step(&site, work, 4, 4);
        }
        // One slow parallel trial (a cold transpose, say) is outvoted...
        let trials = [40, 1, 1].map(|par| step(&site, work, 4, par));
        assert_eq!(trials, [true; 3]);
        assert!(step(&site, work, 4, 1), "...by the two that read 1");

        // A bucket whose every parallel trial was slow runs sequentially
        // and re-tries the parallel form at its 4th and 8th call, whose
        // samples outvote the slow trials.
        let site = Site::new("test");
        for _ in 0..WARM {
            step(&site, work, 4, 40);
        }
        // The parallel form is really four times cheaper.
        let forms: Vec<bool> = (0..10).map(|_| step(&site, work, 4, 1)).collect();
        assert_eq!(
            forms,
            [false, false, false, true, false, false, false, true, true, true]
        );
        // The loser is re-tried at exponentially spaced calls only.
        let retries: Vec<u64> = (11..=64)
            .filter(|_| !step(&site, work, 4, 1))
            .map(|c| c as u64)
            .collect();
        assert_eq!(retries, [16, 32, 64]);
    }

    #[test]
    fn both_forms_are_timed_equally_often() {
        let site = Site::new("test");
        let work = 1 << 16;
        for _ in 0..WARM {
            step(&site, work, 3, 1);
        }
        // After the trials: each re-try and the call just before it.
        let timed: Vec<u64> = (1..=64).filter(|_| site.decide(work).timed).collect();
        assert_eq!(timed, [3, 4, 7, 8, 15, 16, 31, 32, 63, 64]);
    }

    #[test]
    fn masked_calls_do_not_pin_the_sequential_form() {
        let site = Site::new("test");
        let (rows, total) = (1 << 12, 1 << 18);
        // A call masked to an eighth of the rows does an eighth of the work
        // and reports an eighth.
        let masked = live_work(total, rows, |r| r < rows / 8);
        assert_eq!(masked, total / 8);
        // Its sequential samples, at 4 ns per unit of work done...
        for _ in 0..TRIALS {
            assert!(!step(&site, masked, 4, 4));
        }
        // ...do not set the bar for unmasked calls, on which the parallel
        // form (1 ns per unit) beats the sequential one (4 ns). Reported
        // as `total`, they would have read 0.5 ns per unit, and the
        // parallel form would never have won.
        let forms: Vec<bool> = (0..WARM + 2).map(|_| step(&site, total, 4, 1)).collect();
        assert_eq!(forms, [false, false, false, true, true, true, true, true]);
    }

    #[test]
    fn live_work_scales_by_the_probed_share() {
        assert_eq!(live_work(6_400, 1_000, |_| true), 6_400);
        assert_eq!(live_work(6_400, 1_000, |_| false), 0);
        assert_eq!(live_work(6_400, 1_000, |r| r < 500), 3_200);
        // Fewer rows than probes: every row is probed once.
        assert_eq!(live_work(40_000, 10, |r| r % 2 == 0), 20_000);
        assert_eq!(live_work(0, 0, |_| true), 0);
        // Below the floor nothing is probed.
        assert_eq!(live_work(GATE_FLOOR - 1, 1_000, |_| false), GATE_FLOOR - 1);
    }

    #[test]
    fn nothing_below_the_floor_is_timed_or_dispatched() {
        let site = Site::new("test");
        for work in [0, 1, 100, GATE_FLOOR - 1] {
            assert_eq!(site.decide(work), Choice::untimed(false));
            site.record(work, true, 1);
        }
        assert!(site.buckets.iter().all(|b| {
            b.samples.iter().all(|s| s.load(Ordering::Relaxed) == 0)
                && b.calls.load(Ordering::Relaxed) == 0
        }));
        // The first call at the floor is timed.
        assert!(site.decide(GATE_FLOOR).timed);
    }

    #[test]
    fn explicit_pins_bypass_the_site() {
        let site = Site::new("test");
        let rows = 1 << 20;
        // A train of recorded calls that would make parallel win...
        for _ in 0..WARM {
            step(&site, rows, 9, 1);
        }
        // ...is ignored inside a lane scope: the static rule, untimed.
        with_lane_scope(1, || {
            assert_eq!(site.choose(rows, rows), Choice::untimed(false));
        });
        with_lane_scope(2, || {
            assert_eq!(site.choose(min_rows() - 1, rows), Choice::untimed(false));
            assert_eq!(
                site.choose(min_rows(), 1),
                Choice::untimed(cfg!(feature = "parallel"))
            );
        });
        let calls = |s: &Site| s.buckets[20].calls.load(Ordering::Relaxed);
        assert_eq!(calls(&site), 0, "pinned calls never reach the buckets");
        with_lane_scope(2, || assert!(pinned(rows).is_some()));
        // Unpinned, the site measures whenever more than one lane exists.
        assert_eq!(pinned(rows).is_none(), measured());
        assert_eq!(site.choose(rows, rows).parallel, measured());
        assert_eq!(Site::new("fresh").choose(rows, rows).timed, measured());
    }

    #[cfg(feature = "sim")]
    #[test]
    fn sim_interleaver_pins_the_static_rule() {
        use crate::sim::{install, Interleaver, SimConfig};
        use std::{cell::RefCell, rc::Rc};
        struct First;
        impl Interleaver for First {
            fn choose(&mut self, runnable: &[usize]) -> usize {
                runnable[0]
            }
        }
        let site = Site::new("test");
        let _guard = install(Rc::new(RefCell::new(First)), SimConfig::default());
        // The sim's threshold is 2 rows, far below the gate's floor.
        let c = site.choose(2, 2);
        assert!(c.parallel && !c.timed);
    }

    #[test]
    fn threshold_logic() {
        assert!(!should_parallelize(0));
        assert!(!should_parallelize(min_rows() - 1));
        // Whether the threshold passes above depends on core count, but it
        // must never fire with the feature off.
        if cfg!(not(feature = "parallel")) {
            assert!(!should_parallelize(usize::MAX));
        }
        assert!(max_threads() >= 1);
        // The cached decision must agree with the raw inputs.
        assert_eq!(
            should_parallelize(min_rows()),
            cfg!(feature = "parallel") && max_threads() > 1
        );
    }
}
