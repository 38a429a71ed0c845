//! Machine-readable DTMC-engine performance report.
//!
//! Writes `BENCH_dtmc.json` (in the current directory, or the path given as
//! the first argument) with:
//!
//! * exploration throughput (states/sec) for a synthetic 2-D lattice model
//!   at small/medium/large scale;
//! * SpMV kernel latency (ns/iter) for the forward and backward products at
//!   n ∈ {1e3, 1e5, 1e6};
//! * for each kernel, a `seed_shape` reference measurement that reproduces
//!   the seed engine's allocation behaviour (a fresh `Vec` per step) so the
//!   report carries its own before/after ratio on whatever machine it runs
//!   on;
//! * a `pool` section: fork-join dispatch latency of the persistent worker
//!   pool timed back to back (`dispatch_ns`) and after the lanes have
//!   parked (`parked_dispatch_ns`, the cost a kernel call between stretches
//!   of sequential work pays), against the scoped-spawn baseline;
//! * an `mdp` section: min/max Bellman-backup latency (ns per
//!   value-iteration step) on a synthetic ~3-actions-per-state MDP at
//!   n ∈ {1e3, 1e5}, swept over 1/2/4-lane scopes (lanes = 1 is the
//!   sequential fallback; multi-lane runs use the dynamically dispatched
//!   chunk kernel and are bit-identical to it);
//! * a `gate` section: the forward and backward products and the MDP
//!   backup at n ∈ {1e4, 1e5}, each timed forced sequential (a 1-lane
//!   scope), forced parallel (a scope of the engine's lane count) and
//!   through its measured dispatch site after warm-up (`gated_ratio`: gated
//!   over the cheaper forced form; CI asserts at most 1.5);
//! * a `certified` section: end-to-end unbounded-reachability solve time
//!   of the certified topological walk (`interval_ns`,
//!   [`smg_dtmc::solve::topo_interval_reach_values`]) against the default
//!   residual-test walk (`plain_vi_ns`, [`smg_dtmc::solve::topo_reach_values`])
//!   on a random chain whose largest SCC holds most states, at n ∈ {1e3,
//!   1e5}, each timing including the condensation build — the cost of a
//!   sound error bound (a dual update does roughly twice the work, plus the
//!   qualitative pre-pass, minus whatever the residual test
//!   under-iterates);
//! * a `topo` section: topological (SCC-ordered) solving on a layered
//!   feed-forward chain ([`smg_dtmc::synthetic::layered_chain`], depth 100)
//!   at the SpMV sizes — the default walk's time and the certified walk's.
//!   The chain is all trivial SCCs, so both walks collapse to one
//!   backsubstitution pass;
//! * a `session` section: a four-property family with shared targets
//!   (`F target`, its threshold form, the reachability reward and
//!   `G !target`) checked through one `CheckSession::check_all` against
//!   the naive per-call `check_query` loop, at n ∈ {1e3, 1e5} — the
//!   amortization claim of the batch API (three of the four properties
//!   reuse the one unbounded reachability solve).
//! * a `lang` section: the same torus lattice written as a `.sm` program
//!   and compiled by `smg-lang` (parse and check excluded; expansion,
//!   interning and assembly included) beside the native [`Lattice`]
//!   explorer at ~1e4 and ~1e5 states, both on the engine's default lane
//!   count — the front end's cost per state as a ratio of the engine's
//!   (`native_ratio`: native states/sec over `.sm` states/sec).
//!
//! Future PRs append their own run to compare trajectories; keep the keys
//! stable.

use smg_dtmc::{explore, BitVec, DtmcModel, ExploreOptions, TransitionMatrix};
use std::fmt::Write as _;
use std::time::Instant;

/// A 2-D lattice random walk: simple transitions, state count `w * w`,
/// hash-heavy interning — an exploration stress test.
struct Lattice {
    w: u32,
}

impl DtmcModel for Lattice {
    type State = (u32, u32);
    fn initial_states(&self) -> Vec<((u32, u32), f64)> {
        vec![((0, 0), 1.0)]
    }
    fn transitions(&self, &(x, y): &(u32, u32)) -> Vec<((u32, u32), f64)> {
        let mut succ = Vec::with_capacity(4);
        let w = self.w;
        succ.push(((x.wrapping_add(1) % w, y), 0.25));
        succ.push((((x + w - 1) % w, y), 0.25));
        succ.push(((x, (y + 1) % w), 0.25));
        succ.push(((x, (y + w - 1) % w), 0.25));
        succ
    }
}

/// [`Lattice`] as a guarded-command program: the same `w * w` torus walk,
/// four quarter-probability moves per state.
fn lattice_program(w: u32) -> String {
    format!(
        "dtmc
         const int W = {w};
         module walker
           x : [0..W-1] init 0;
           y : [0..W-1] init 0;
           [] true -> 0.25:(x'=mod(x+1, W)) + 0.25:(x'=mod(x+W-1, W))
                    + 0.25:(y'=mod(y+1, W)) + 0.25:(y'=mod(y+W-1, W));
         endmodule"
    )
}

/// A synthetic sparse chain with ~4 off-diagonal entries per row.
fn synthetic_chain(n: usize) -> smg_dtmc::Dtmc {
    let mut state = 0x2545F4914F6CDD1Du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut builder = smg_dtmc::CsrBuilder::with_capacity(n, n * 4);
    let mut row = Vec::with_capacity(4);
    for _ in 0..n {
        row.clear();
        let k = 2 + (next() % 3) as usize;
        for _ in 0..k {
            row.push(((next() % n as u64) as u32, 0.0));
        }
        let p = 1.0 / k as f64;
        for slot in row.iter_mut() {
            slot.1 = p;
        }
        builder
            .push_row(&mut row)
            .expect("synthetic rows stochastic");
    }
    let matrix = TransitionMatrix::Sparse(builder.finish());
    smg_dtmc::Dtmc::new(
        matrix,
        vec![(0, 1.0)],
        std::collections::BTreeMap::new(),
        vec![0.0; n],
    )
    .expect("valid synthetic chain")
}

/// A synthetic MDP: 2–4 actions per state, ~3 successors per action —
/// power-law-free but action-heavy, the Bellman backup stress shape.
fn synthetic_mdp(n: usize) -> smg_mdp::Mdp {
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut builder = smg_mdp::MdpBuilder::with_capacity(n, n * 3, n * 9);
    let mut row = Vec::with_capacity(4);
    for _ in 0..n {
        let actions = 2 + (next() % 3) as usize;
        for _ in 0..actions {
            row.clear();
            let k = 2 + (next() % 3) as usize;
            for _ in 0..k {
                row.push(((next() % n as u64) as u32, 1.0 / k as f64));
            }
            builder.push_action(&mut row).expect("stochastic action");
        }
        builder.finish_state().expect("at least one action");
    }
    smg_mdp::Mdp::new(
        builder.finish(),
        vec![(0, 1.0)],
        std::collections::BTreeMap::new(),
        vec![0.0; n],
    )
    .expect("valid synthetic MDP")
}

fn time_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    // One warm-up, then the best of `reps` (robust to scheduler noise).
    std::hint::black_box(f());
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

/// Times two variants of the same kernel with *interleaved* reps, so
/// frequency scaling, cache warm-up, and scheduler noise hit both alike.
/// Back-to-back `time_ns` pairs systematically flattered whichever ran
/// second — visible as phantom sub-1.0x "regressions" on small kernels.
fn time_pair_ns<RA, RB>(
    reps: usize,
    mut a: impl FnMut() -> RA,
    mut b: impl FnMut() -> RB,
) -> (f64, f64) {
    std::hint::black_box(a());
    std::hint::black_box(b());
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(a());
        best_a = best_a.min(start.elapsed().as_nanos() as f64);
        let start = Instant::now();
        std::hint::black_box(b());
        best_b = best_b.min(start.elapsed().as_nanos() as f64);
    }
    (best_a, best_b)
}

/// The seed engine's propagation shape: a fresh output vector every step.
fn seed_shape_forward(dtmc: &smg_dtmc::Dtmc, steps: usize) -> Vec<f64> {
    let mut pi = dtmc.initial_dense();
    for _ in 0..steps {
        pi = dtmc.matrix().forward(&pi);
    }
    pi
}

fn engine_forward(dtmc: &smg_dtmc::Dtmc, steps: usize) -> Vec<f64> {
    let mut pi = dtmc.initial_dense();
    let mut next = vec![0.0; pi.len()];
    for _ in 0..steps {
        dtmc.matrix().forward_into(&pi, &mut next);
        std::mem::swap(&mut pi, &mut next);
    }
    pi
}

/// One `gate` row: `call` timed forced sequential, forced parallel on
/// `lanes` lanes, and through its measured site, interleaved best-of
/// `reps` after a warm-up long enough for the site to finish its trials.
fn gate_row(reps: usize, lanes: usize, mut call: impl FnMut()) -> [f64; 3] {
    for _ in 0..16 {
        call();
    }
    let mut best = [f64::INFINITY; 3];
    for _ in 0..reps {
        for (form, slot) in best.iter_mut().enumerate() {
            let start = Instant::now();
            match form {
                0 => smg_dtmc::par::with_lane_scope(1, &mut call),
                1 => smg_dtmc::par::with_lane_scope(lanes, &mut call),
                _ => call(),
            }
            *slot = slot.min(start.elapsed().as_nanos() as f64);
        }
    }
    best
}

struct Entry {
    name: String,
    n: usize,
    engine_ns: f64,
    seed_shape_ns: f64,
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_dtmc.json".to_string());
    let quick = std::env::var("SMG_SCALE").as_deref() == Ok("small");
    let spmv_sizes: &[usize] = if quick {
        &[1_000, 100_000]
    } else {
        &[1_000, 100_000, 1_000_000]
    };

    let mut entries: Vec<Entry> = Vec::new();
    let mut explore_rates: Vec<(usize, f64)> = Vec::new();

    // Exploration throughput.
    for w in if quick {
        vec![100u32]
    } else {
        vec![100u32, 316, 1000]
    } {
        let model = Lattice { w };
        let start = Instant::now();
        let e = explore(&model, &ExploreOptions::default()).expect("lattice explores");
        let secs = start.elapsed().as_secs_f64();
        let states = e.dtmc.n_states();
        explore_rates.push((states, states as f64 / secs));
        eprintln!("explore n={states}: {:.0} states/sec", states as f64 / secs);
    }

    // Pool section: dispatch latency.
    // A dedicated 4-lane pool keeps the dispatch numbers comparable across
    // machines whatever SMG_THREADS / the core count happen to be.
    let dispatch_pool = smg_dtmc::pool::with_lanes(4);
    let dispatch_ns = time_ns(2000, || {
        dispatch_pool.run(4, &|t| {
            std::hint::black_box(t);
        })
    });
    let scoped_spawn_ns = time_ns(200, || {
        std::thread::scope(|scope| {
            for t in 1..4 {
                scope.spawn(move || std::hint::black_box(t));
            }
            std::hint::black_box(0)
        })
    });
    // The same epoch after the lanes have parked: a check's dispatches are
    // separated by sequential work, so this is the cost a kernel call
    // actually pays, where `dispatch_ns` above is timed back to back.
    let parked_dispatch_ns = {
        let mut samples: Vec<f64> = (0..if quick { 21 } else { 101 })
            .map(|_| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                let start = Instant::now();
                dispatch_pool.run(4, &|t| {
                    std::hint::black_box(t);
                });
                start.elapsed().as_nanos() as f64
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    eprintln!(
        "pool dispatch {dispatch_ns:.0} ns hot, {parked_dispatch_ns:.0} ns parked, vs scoped \
         spawn {scoped_spawn_ns:.0} ns ({:.1}x cheaper)",
        scoped_spawn_ns / dispatch_ns.max(1.0)
    );

    // MDP value iteration: Bellman backups per step at 1/2/4 lanes.
    // Lanes = 1 runs the sequential fallback; multi-lane runs force the
    // dynamically dispatched chunk kernel on the pool of a lane scope, so
    // the sweep is meaningful whatever SMG_THREADS is set to.
    let mdp_sizes: &[usize] = &[1_000, 100_000];
    let mut mdp_entries: Vec<(usize, usize, f64)> = Vec::new();
    for &n in mdp_sizes {
        let mdp = synthetic_mdp(n);
        let target = BitVec::from_fn(n, |i| i % 97 == 0);
        let all = BitVec::ones(n);
        let steps = if n >= 100_000 { 8 } else { 32 };
        let reps = if n >= 100_000 { 7 } else { 25 };
        for lanes in [1usize, 2, 4] {
            let par_min = if lanes == 1 { usize::MAX } else { 0 };
            let vio = smg_mdp::ViOptions::default().with_par_min_states(par_min);
            let ns = smg_dtmc::par::with_lane_scope(lanes, || {
                time_ns(reps, || {
                    smg_mdp::vi::bounded_until_values(
                        &mdp,
                        &all,
                        &target,
                        steps,
                        smg_mdp::Opt::Max,
                        &vio,
                    )
                    .expect("bounded VI")
                })
            }) / steps as f64;
            eprintln!("mdp_vi n={n} lanes={lanes}: {ns:.0} ns/iter");
            mdp_entries.push((n, lanes, ns));
        }
    }

    // The dispatch gate: each gated kernel forced sequential (a 1-lane
    // scope), forced parallel (a scope of the engine's lane count) and
    // through its measured site, after the site has settled.
    let lanes = smg_dtmc::par::max_threads();
    let mut gate_entries: Vec<(&str, usize, [f64; 3])> = Vec::new();
    for &n in &[10_000usize, 100_000] {
        let reps = match (quick, n >= 100_000) {
            (true, true) => 15,
            (true, false) => 60,
            (false, true) => 60,
            (false, false) => 300,
        };
        let dtmc = synthetic_chain(n);
        let pi = vec![1.0 / n as f64; n];
        let mut out = vec![0.0; n];
        let forward = gate_row(reps, lanes, || dtmc.matrix().forward_into(&pi, &mut out));
        gate_entries.push(("spmv_forward", n, forward));
        let backward = gate_row(reps, lanes, || dtmc.matrix().backward_into(&pi, &mut out));
        gate_entries.push(("spmv_backward", n, backward));
        let mdp = synthetic_mdp(n);
        let vio = smg_mdp::ViOptions::default();
        let backup = gate_row(reps, lanes, || {
            smg_mdp::vi::optimal_step_into(&mdp, &pi, None, smg_mdp::Opt::Max, &mut out, &vio)
        });
        gate_entries.push(("mdp_backup", n, backup));
    }
    for (kernel, n, [seq, par, gated]) in &gate_entries {
        eprintln!(
            "gate {kernel} n={n}: seq {seq:.0} ns, par {par:.0} ns, gated {gated:.0} ns \
             ({:.2}x the cheaper form)",
            gated / seq.min(*par).max(1.0)
        );
    }

    // The certified walk vs the default residual walk it would replace:
    // full unbounded-reachability solves on the same condensation,
    // interleaved, each building its own condensation as an uncached check
    // does. Full solves are orders of magnitude longer than single sweeps,
    // so the size sweep stops at 1e5 and the reps stay small — the overhead
    // ratio is stable well before the big-kernel rep counts.
    let mut certified_entries: Vec<(usize, f64, f64)> = Vec::new();
    for &n in &[1_000usize, 100_000] {
        let dtmc = synthetic_chain(n);
        let target = BitVec::from_fn(n, |i| i % 97 == 0);
        let reps = if n >= 100_000 { 2 } else { 5 };
        let (plain, interval) = time_pair_ns(
            reps,
            || {
                smg_dtmc::solve::topo_reach_values(
                    &dtmc,
                    &smg_dtmc::graph::Condensation::new(&dtmc),
                    &target,
                    1e-8,
                    1_000_000,
                )
                .expect("default walk converges")
            },
            || {
                smg_dtmc::solve::topo_interval_reach_values(
                    &dtmc,
                    &smg_dtmc::graph::Condensation::new(&dtmc),
                    &target,
                    1e-8,
                    10_000_000,
                )
                .expect("certified walk converges")
            },
        );
        eprintln!(
            "certified n={n}: plain VI {plain:.0} ns, interval {interval:.0} ns \
             ({:.2}x overhead)",
            interval / plain.max(1.0)
        );
        certified_entries.push((n, plain, interval));
    }

    // Topological solving on the layered chain: the shape the paper's
    // pipeline models take (a DAG of trivial SCCs), where SCC-ordered
    // backsubstitution replaces iteration outright. Width scales with n at
    // fixed depth 100. On trivial SCCs the certified walk is one dual
    // backsubstitution pass, so it should cost about what the default
    // walk does.
    struct TopoEntry {
        n: usize,
        topo_vi_ns: f64,
        topo_certified_ns: f64,
    }
    let mut topo_entries: Vec<TopoEntry> = Vec::new();
    for &n in spmv_sizes {
        let depth = 100;
        let width = (n / depth).max(1);
        let dtmc = smg_dtmc::synthetic::layered_chain(depth, width);
        let target = dtmc.label("target").expect("generator labels").clone();
        let reps = if n >= 1_000_000 {
            2
        } else if n >= 100_000 {
            3
        } else {
            5
        };
        let topo_vi = time_ns(reps, || {
            smg_dtmc::solve::topo_reach_values(
                &dtmc,
                &smg_dtmc::graph::Condensation::new(&dtmc),
                &target,
                1e-8,
                1_000_000,
            )
            .expect("topological VI converges")
        });
        let topo_cert = time_ns(reps, || {
            smg_dtmc::solve::topo_interval_reach_values(
                &dtmc,
                &smg_dtmc::graph::Condensation::new(&dtmc),
                &target,
                1e-8,
                10_000_000,
            )
            .expect("topological interval iteration converges")
        });
        eprintln!(
            "topo n={}: default walk {topo_vi:.0} ns, certified {topo_cert:.0} ns \
             ({:.2}x the default walk)",
            dtmc.n_states(),
            topo_cert / topo_vi.max(1.0)
        );
        topo_entries.push(TopoEntry {
            n: dtmc.n_states(),
            topo_vi_ns: topo_vi,
            topo_certified_ns: topo_cert,
        });
    }

    // Session amortization: one CheckSession over a shared-subformula
    // property family vs the naive per-call loop. The family is chosen so
    // the unbounded reachability solve of `F target` is the dominant cost
    // and three of the four properties can reuse it.
    let session_props: Vec<smg_pctl::Property> = [
        "P=? [ F target ]",
        "P>=0.5 [ F target ]",
        "R=? [ F target ]",
        "P=? [ G !target ]",
    ]
    .iter()
    .map(|p| smg_pctl::parse_property(p).expect("valid property"))
    .collect();
    let mut session_entries: Vec<(usize, f64, f64)> = Vec::new();
    for &n in &[1_000usize, 100_000] {
        let mut dtmc = synthetic_chain(n);
        dtmc.insert_label("target", BitVec::from_fn(n, |i| i % 97 == 0))
            .expect("fresh label");
        let reps = if n >= 100_000 { 2 } else { 5 };
        let (per_call, batched) = time_pair_ns(
            reps,
            || {
                session_props
                    .iter()
                    .map(|p| smg_pctl::check_query(&dtmc, p).expect("checks").value())
                    .sum::<f64>()
            },
            || {
                // A fresh session per rep keeps the cache cold at the
                // start of every measurement (the model clone is noise
                // next to the solves).
                let session = smg_pctl::CheckSession::new(dtmc.clone());
                session
                    .check_all(&session_props)
                    .expect("checks")
                    .iter()
                    .map(|r| r.value())
                    .sum::<f64>()
            },
        );
        eprintln!(
            "session n={n}: per-call {per_call:.0} ns, check_all {batched:.0} ns \
             ({:.2}x faster batched)",
            per_call / batched.max(1.0)
        );
        session_entries.push((n, per_call, batched));
    }

    // Front end: the lattice as a `.sm` program against the native
    // explorer, reps interleaved.
    let mut lang_entries: Vec<(usize, f64, f64)> = Vec::new();
    for w in if quick {
        vec![100u32]
    } else {
        vec![100u32, 316]
    } {
        let checked =
            smg_lang::check(smg_lang::parse(&lattice_program(w)).expect("parses")).expect("checks");
        let model = Lattice { w };
        let mut states = 0;
        let (sm_ns, native_ns) = time_pair_ns(
            3,
            || {
                let c = smg_lang::compile(checked.clone()).expect("lattice compiles");
                states = c.dtmc.n_states();
            },
            || {
                explore(&model, &ExploreOptions::default())
                    .expect("lattice explores")
                    .dtmc
                    .n_states()
            },
        );
        let sm = states as f64 / (sm_ns * 1e-9);
        let native = states as f64 / (native_ns * 1e-9);
        eprintln!(
            "lang n={states}: .sm {sm:.0} states/sec, native {native:.0} states/sec \
             ({:.2}x)",
            native / sm
        );
        lang_entries.push((states, sm, native));
    }

    // SpMV kernels.
    for &n in spmv_sizes {
        let dtmc = synthetic_chain(n);
        let steps = if n >= 1_000_000 { 4 } else { 16 };
        let reps = if n >= 1_000_000 {
            3
        } else if n >= 100_000 {
            7
        } else {
            25
        };

        let (fwd, fwd_seed) = time_pair_ns(
            reps,
            || engine_forward(&dtmc, steps),
            || seed_shape_forward(&dtmc, steps),
        );
        entries.push(Entry {
            name: "spmv_forward".into(),
            n,
            engine_ns: fwd / steps as f64,
            seed_shape_ns: fwd_seed / steps as f64,
        });

        let x = vec![1.0; n];
        let mut out = vec![0.0; n];
        let (bwd, bwd_seed) = time_pair_ns(
            reps,
            || dtmc.matrix().backward_into(&x, &mut out),
            || dtmc.matrix().backward(&x).len(),
        );
        entries.push(Entry {
            name: "spmv_backward".into(),
            n,
            engine_ns: bwd,
            seed_shape_ns: bwd_seed,
        });
        for e in entries.iter().rev().take(2) {
            eprintln!(
                "{} n={}: engine {:.0} ns/iter, seed-shape {:.0} ns/iter ({:.2}x)",
                e.name,
                e.n,
                e.engine_ns,
                e.seed_shape_ns,
                e.seed_shape_ns / e.engine_ns
            );
        }
    }

    // Hand-rolled JSON (the workspace is std-only).
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"smg-bench-dtmc/1\",");
    let _ = writeln!(json, "  \"threads\": {},", smg_dtmc::par::max_threads());
    let _ = writeln!(
        json,
        "  \"parallel_feature\": {},",
        cfg!(feature = "parallel")
    );
    // Run metadata: enough to reproduce (or distrust) a number months
    // later without the CI log that produced it.
    json.push_str("  \"meta\": {\n");
    let _ = writeln!(json, "    \"threads\": {},", smg_dtmc::par::max_threads());
    let _ = writeln!(
        json,
        "    \"nproc\": {},",
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let _ = writeln!(
        json,
        "    \"smg_threads_env\": {},",
        match std::env::var("SMG_THREADS") {
            Ok(v) => format!("\"{}\"", v.replace('"', "'")),
            Err(_) => "null".to_string(),
        }
    );
    let _ = writeln!(
        json,
        "    \"smg_scale_env\": {},",
        match std::env::var("SMG_SCALE") {
            Ok(v) => format!("\"{}\"", v.replace('"', "'")),
            Err(_) => "null".to_string(),
        }
    );
    let _ = writeln!(
        json,
        "    \"features\": {{\"parallel\": {}}},",
        cfg!(feature = "parallel")
    );
    let _ = writeln!(
        json,
        "    \"debug_assertions\": {},",
        cfg!(debug_assertions)
    );
    let rustc =
        std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string()))
            .arg("--version")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|v| v.trim().to_string())
            .filter(|v| !v.is_empty());
    let _ = writeln!(
        json,
        "    \"rustc\": {}",
        match rustc {
            Some(v) => format!("\"{}\"", v.replace('"', "'")),
            None => "null".to_string(),
        }
    );
    json.push_str("  },\n");
    json.push_str("  \"explore\": [\n");
    for (i, (states, rate)) in explore_rates.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"states\": {states}, \"states_per_sec\": {rate:.1}}}{}",
            if i + 1 < explore_rates.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"pool\": {\n");
    let _ = writeln!(json, "    \"workers\": {},", smg_dtmc::par::max_threads());
    let _ = writeln!(json, "    \"dispatch_ns\": {dispatch_ns:.1},");
    let _ = writeln!(json, "    \"parked_dispatch_ns\": {parked_dispatch_ns:.1},");
    let _ = writeln!(json, "    \"scoped_spawn_ns\": {scoped_spawn_ns:.1}");
    json.push_str("  },\n  \"mdp\": [\n");
    for (i, (n, lanes, ns)) in mdp_entries.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"n\": {n}, \"lanes\": {lanes}, \"vi_ns_per_iter\": {ns:.1}}}{}",
            if i + 1 < mdp_entries.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"gate\": [\n");
    for (i, (kernel, n, [seq, par, gated])) in gate_entries.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"kernel\": \"{kernel}\", \"n\": {n}, \"seq_ns\": {seq:.1}, \
             \"par_ns\": {par:.1}, \"gated_ns\": {gated:.1}, \"gated_ratio\": {:.3}}}{}",
            gated / seq.min(*par).max(1.0),
            if i + 1 < gate_entries.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"certified\": [\n");
    for (i, (n, plain, interval)) in certified_entries.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"n\": {n}, \"plain_vi_ns\": {plain:.1}, \"interval_ns\": {interval:.1}, \
             \"overhead\": {:.3}}}{}",
            interval / plain.max(1.0),
            if i + 1 < certified_entries.len() {
                ","
            } else {
                ""
            }
        );
    }
    json.push_str("  ],\n  \"topo\": [\n");
    for (i, e) in topo_entries.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"n\": {}, \"topo_vi_ns\": {:.1}, \"topo_certified_ns\": {:.1}}}{}",
            e.n,
            e.topo_vi_ns,
            e.topo_certified_ns,
            if i + 1 < topo_entries.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"session\": [\n");
    for (i, (n, per_call, batched)) in session_entries.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"n\": {n}, \"props\": 4, \"per_call_ns\": {per_call:.1}, \
             \"check_all_ns\": {batched:.1}, \"speedup\": {:.3}}}{}",
            per_call / batched.max(1.0),
            if i + 1 < session_entries.len() {
                ","
            } else {
                ""
            }
        );
    }
    json.push_str("  ],\n  \"lang\": [\n");
    for (i, (states, sm, native)) in lang_entries.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"states\": {states}, \"sm_states_per_sec\": {sm:.1}, \
             \"native_states_per_sec\": {native:.1}, \"native_ratio\": {:.3}}}{}",
            native / sm,
            if i + 1 < lang_entries.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"kernels\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"kernel\": \"{}\", \"n\": {}, \"ns_per_iter\": {:.1}, \
             \"seed_shape_ns_per_iter\": {:.1}, \"speedup\": {:.3}}}{}",
            e.name,
            e.n,
            e.engine_ns,
            e.seed_shape_ns,
            e.seed_shape_ns / e.engine_ns,
            if i + 1 < entries.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_dtmc.json");
    eprintln!("wrote {out_path}");
}
