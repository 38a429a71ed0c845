//! Bit-identity pin for `.sm` compilation.
//!
//! Every program below is compiled under both semantics (`compile_with` and
//! `compile_mdp_with`) and reduced to an FNV-1a digest of everything the
//! compiled model carries: the state vectors in id order, the `f64` bits of
//! every matrix or action row, the initial distribution, the label bit-sets,
//! the default and named reward vectors, and the BFS level count the
//! explorer reports through `smg_explore_levels_total`. A program that does
//! not compile pins its `LangError` (variant and fields) instead.
//!
//! The expected table was recorded before the compiler moved onto the
//! engine explorers (the nested-formula and three-module rows, and the
//! stuttering rows of the deadlocking programs, before expressions were
//! lowered to slot-resolved form); any change to state numbering, row
//! assembly, labelling or error reporting shows up as a digest mismatch. The failure message
//! prints the full actual table.

use smg_dtmc::BitVec;
use smg_lang::{check, compile_mdp_with, compile_with, parse, ExpandOptions, LangError};
use smg_obs::Capture;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
    }

    fn states(&mut self, states: &[Vec<i64>]) {
        self.u64(states.len() as u64);
        for s in states {
            self.u64(s.len() as u64);
            for &v in s {
                self.u64(v as u64);
            }
        }
    }

    fn row(&mut self, row: impl Iterator<Item = (u32, f64)>) {
        let mut len = 0u64;
        for (c, p) in row {
            self.u64(u64::from(c));
            self.f64(p);
            len += 1;
        }
        self.u64(len);
    }

    fn initial(&mut self, initial: &[(u32, f64)]) {
        self.row(initial.iter().copied());
    }

    fn labels<'a>(&mut self, labels: impl Iterator<Item = (&'a str, &'a BitVec)>) {
        for (name, bits) in labels {
            self.str(name);
            self.u64(bits.len() as u64);
            for i in bits.iter_ones() {
                self.u64(i as u64);
            }
        }
    }

    fn rewards(&mut self, default: &[f64], named: &BTreeMap<String, Vec<f64>>) {
        self.u64(default.len() as u64);
        for &r in default {
            self.f64(r);
        }
        for (name, v) in named {
            self.str(name);
            for &r in v {
                self.f64(r);
            }
        }
    }
}

/// Runs `compile` with a capturing recorder and returns its result plus
/// the BFS level count the explorer reported.
fn with_levels<T>(compile: impl FnOnce() -> Result<T, LangError>) -> (Result<T, LangError>, u64) {
    let cap = Arc::new(Capture::new());
    let out = smg_obs::with_recorder(cap.clone(), compile);
    (out, cap.counter("smg_explore_levels_total"))
}

/// A compiler run reduced to its digest line.
type Digest = fn(&str, ExpandOptions) -> String;

fn dtmc_digest(src: &str, options: ExpandOptions) -> String {
    let checked = match check(parse(src).expect("program parses")) {
        Ok(c) => c,
        Err(e) => return format!("{e:?}"),
    };
    let (out, levels) = with_levels(|| compile_with(checked, options));
    let m = match out {
        Ok(m) => m,
        Err(e) => return format!("{e:?}"),
    };
    let mut h = Fnv::new();
    h.states(&m.states);
    for s in 0..m.dtmc.n_states() {
        h.row(m.dtmc.matrix().successors(s).into_iter());
    }
    h.initial(m.dtmc.initial());
    h.labels(
        m.dtmc
            .label_names()
            .into_iter()
            .map(|n| (n, m.dtmc.label(n).expect("listed label"))),
    );
    h.rewards(m.dtmc.rewards(), &m.named_rewards);
    h.u64(levels);
    format!("{:016x} n={} levels={levels}", h.0, m.dtmc.n_states())
}

fn mdp_digest(src: &str, options: ExpandOptions) -> String {
    let checked = match check(parse(src).expect("program parses")) {
        Ok(c) => c,
        Err(e) => return format!("{e:?}"),
    };
    let (out, levels) = with_levels(|| compile_mdp_with(checked, options));
    let m = match out {
        Ok(m) => m,
        Err(e) => return format!("{e:?}"),
    };
    let mut h = Fnv::new();
    h.states(&m.states);
    for s in 0..m.mdp.n_states() {
        h.u64(m.mdp.action_count(s) as u64);
        for a in 0..m.mdp.action_count(s) {
            h.row(m.mdp.action_row(s, a));
        }
    }
    h.initial(m.mdp.initial());
    h.labels(
        m.mdp
            .label_names()
            .into_iter()
            .map(|n| (n, m.mdp.label(n).expect("listed label"))),
    );
    h.rewards(m.mdp.rewards(), &m.named_rewards);
    h.u64(levels);
    format!("{:016x} n={} levels={levels}", h.0, m.mdp.n_states())
}

/// The programs of `model.rs`'s unit tests, plus a small regime MDP, a
/// torus walk, a program whose nested formulas feed every kind of
/// expression, and three modules with overlapping guards in two of them
/// and a third that only stutters or deadlocks (under both headers).
const INLINE: &[(&str, &str)] = &[
    (
        "coin",
        "module coin
           heads : bool;
           [] true -> 0.5:(heads'=true) + 0.5:(heads'=false);
         endmodule
         label \"h\" = heads;",
    ),
    (
        "knuth_yao",
        "module die
           s : [0..7] init 0;
           d : [0..6] init 0;
           [] s=0 -> 0.5:(s'=1) + 0.5:(s'=2);
           [] s=1 -> 0.5:(s'=3) + 0.5:(s'=4);
           [] s=2 -> 0.5:(s'=5) + 0.5:(s'=6);
           [] s=3 -> 0.5:(s'=1) + 0.5:(s'=7)&(d'=1);
           [] s=4 -> 0.5:(s'=7)&(d'=2) + 0.5:(s'=7)&(d'=3);
           [] s=5 -> 0.5:(s'=7)&(d'=4) + 0.5:(s'=7)&(d'=5);
           [] s=6 -> 0.5:(s'=2) + 0.5:(s'=7)&(d'=6);
           [] s=7 -> (s'=7);
         endmodule
         label \"done\" = s=7;",
    ),
    (
        "unassigned",
        "module m
           x : [0..1] init 1;
           y : [0..1] init 0;
           [] true -> (y'=1-y);
         endmodule",
    ),
    (
        "sync_toggles",
        "module a x : bool init false; [] true -> (x'=!x); endmodule
         module b y : bool init false; [] true -> (y'=!y); endmodule",
    ),
    (
        "sync_coins",
        "module a x : bool; [] true -> 0.5:(x'=true) + 0.5:(x'=false); endmodule
         module b y : bool; [] true -> 0.5:(y'=true) + 0.5:(y'=false); endmodule",
    ),
    (
        "overlap",
        "module m
           x : [0..2] init 0;
           [] x=0 -> (x'=1);
           [] x=0 -> (x'=2);
           [] x>0 -> (x'=x);
         endmodule",
    ),
    (
        "deadlock",
        "module m
           x : [0..1] init 0;
           [] x=0 -> (x'=1);
         endmodule",
    ),
    (
        "bad_distribution",
        "module m x : bool; [] true -> 0.5:(x'=true) + 0.4:(x'=false); endmodule",
    ),
    (
        "negative_probability",
        "const double p = -0.25;
         module m x : bool; [] true -> p:(x'=true) + (1-p):(x'=false); endmodule",
    ),
    (
        "out_of_range",
        "module m x : [0..3] init 0; [] true -> (x'=x+1); endmodule",
    ),
    (
        "rewards",
        "module m
           x : [0..1] init 0;
           [] true -> (x'=1-x);
         endmodule
         rewards x=1 : 1; endrewards
         rewards \"double\" x=1 : 2; true : 0.5; endrewards",
    ),
    (
        "one_label",
        "module m
           x : [0..1] init 0;
           [] true -> 0.5:(x'=0) + 0.5:(x'=1);
         endmodule
         label \"one\" = x=1;",
    ),
    (
        "render",
        "module m x : [0..2] init 2; b : bool init true; [] true -> true; endmodule",
    ),
    (
        "regime_mdp_unit",
        "mdp
         module chan
           err : bool init false;
           [] !err -> 0.01:(err'=true) + 0.99:(err'=false);
           [] !err -> 0.2:(err'=true) + 0.8:(err'=false);
           [] err  -> true;
         endmodule
         label \"err\" = err;
         rewards err : 1; endrewards",
    ),
    (
        "mdp_multi_module",
        "mdp
         module a x : bool; [] true -> (x'=true); [] true -> (x'=false); endmodule
         module b y : bool; [] true -> 0.5:(y'=true) + 0.5:(y'=false); endmodule",
    ),
    (
        "mdp_deadlock",
        "mdp
         module m x : [0..1] init 0; [] x=0 -> (x'=1); endmodule",
    ),
    (
        "single_command_die",
        "module die
           s : [0..3] init 0;
           [] s=0 -> 0.5:(s'=1) + 0.5:(s'=2);
           [] s>0 -> (s'=min(s+1, 3));
         endmodule
         label \"end\" = s=3;",
    ),
    (
        "mdp_named_rewards",
        "mdp
         module m x : [0..1] init 0; [] true -> (x'=1-x); endmodule
         rewards x=1 : 1; endrewards
         rewards \"double\" x=1 : 2; endrewards",
    ),
    (
        "formulas",
        "formula at_top = x=2;
         module m
           x : [0..2] init 0;
           [] !at_top -> (x'=x+1);
           [] at_top -> (x'=0);
         endmodule
         label \"top\" = at_top;",
    ),
    (
        "any_dtmc",
        "dtmc
         module m
           x : bool init false;
           [] true -> 0.5:(x'=true) + 0.5:(x'=false);
         endmodule
         label \"x\" = x;",
    ),
    (
        "any_mdp",
        "mdp
         module m
           x : bool init false;
           [] !x -> 0.5:(x'=true) + 0.5:(x'=false);
           [] !x -> (x'=true);
           [] x -> true;
         endmodule
         label \"x\" = x;",
    ),
    (
        "regime_mdp",
        "mdp
         const int N = 12;
         module chan
           e : [0..N] init 0;
           [] e < N -> 0.05:(e'=e+1) + 0.95:(e'=e);
           [] e < N -> 0.25:(e'=e+1) + 0.75:(e'=e);
           [] e < N -> 0.5:(e'=min(e+2, N)) + 0.5:(e'=e);
           [] e = N -> true;
         endmodule
         module clock
           t : [0..20] init 0;
           [] t < 20 -> (t'=t+1);
           [] t < 20 -> 0.5:(t'=t+1) + 0.5:(t'=t);
           [] t = 20 -> true;
         endmodule
         label \"fail\" = e = N;
         rewards e > 0 : 1; endrewards
         rewards \"time\" t < 20 : 1; endrewards",
    ),
    (
        "torus_walk",
        "dtmc
         const int W = 30;
         module walker
           x : [0..W-1] init 0;
           y : [0..W-1] init 0;
           [] true -> 0.25:(x'=mod(x+1, W)) + 0.25:(x'=mod(x+W-1, W))
                    + 0.25:(y'=mod(y+1, W)) + 0.25:(y'=mod(y+W-1, W));
         endmodule
         label \"origin\" = x = 0 & y = 0;
         rewards x = y : 1; endrewards
         rewards \"dist\" true : x + y; endrewards",
    ),
    (
        "nested_formulas",
        "dtmc
         const int N = 6;
         const double q = 0.25;
         formula hi = x >= N - 2;
         formula near_top = hi & !done;
         formula step = near_top ? 1 : 2;
         formula p_up = hi ? q : 2*q;
         formula nxt = min(x + step, N);
         formula done = x = N;
         module m
           x : [0..N] init 0;
           d : bool init false;
           [] !done -> p_up:(x'=nxt)&(d'=near_top) + (1-p_up):(x'=max(x-1, 0));
           [] done -> (x'=0)&(d'=!d);
         endmodule
         label \"near\" = near_top;
         label \"deep\" = step = 1 & hi;
         rewards near_top : step * 1.5; done : p_up; endrewards
         rewards \"steps\" true : nxt / 2; endrewards",
    ),
    (
        "three_modules_mdp",
        "mdp
         const int N = 4;
         module a
           x : [0..N] init 0;
           [] x < N -> 0.5:(x'=x+1) + 0.5:(x'=x);
           [] x < N -> (x'=min(x+2, N));
           [] x > 0 -> 0.25:(x'=0) + 0.75:(x'=x);
         endmodule
         module b
           y : [0..2] init 0;
           [] y < 2 -> (y'=y+1);
           [] true -> 0.5:(y'=0) + 0.5:(y'=y);
         endmodule
         module c
           z : bool init false;
           [] x = N & !z -> (z'=true);
         endmodule
         label \"full\" = x = N;
         label \"done\" = z;
         rewards x + y > 2 : x + y; endrewards",
    ),
    (
        "three_modules_dtmc",
        "dtmc
         const int N = 4;
         module a
           x : [0..N] init 0;
           [] x < N -> 0.5:(x'=x+1) + 0.5:(x'=x);
           [] x < N -> (x'=min(x+2, N));
           [] x > 0 -> 0.25:(x'=0) + 0.75:(x'=x);
         endmodule
         module b
           y : [0..2] init 0;
           [] y < 2 -> (y'=y+1);
           [] true -> 0.5:(y'=0) + 0.5:(y'=y);
         endmodule
         module c
           z : bool init false;
           [] x = N & !z -> (z'=true);
         endmodule
         label \"full\" = x = N;
         label \"done\" = z;
         rewards x + y > 2 : x + y; endrewards",
    ),
];

/// `.sm` files in `dir`, sorted by name.
fn sm_files(dir: &Path) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "sm"))
        .map(|p| {
            let name = p
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            let src = std::fs::read_to_string(&p).expect("model readable");
            (name, src)
        })
        .collect();
    files.sort();
    files
}

fn actual_table() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut programs: Vec<(String, String)> = INLINE
        .iter()
        .map(|(n, s)| (n.to_string(), s.to_string()))
        .collect();
    programs.extend(sm_files(&root.join("../../examples/models")));
    programs.extend(sm_files(&root.join("../lint/tests/fixtures")));

    let stutter = ExpandOptions {
        allow_stutter: true,
        ..ExpandOptions::default()
    };
    let capped = ExpandOptions {
        max_states: 100,
        ..ExpandOptions::default()
    };
    let mut table = String::new();
    let families: [(&str, Digest); 2] = [("dtmc", dtmc_digest), ("mdp", mdp_digest)];
    for (name, src) in &programs {
        for (family, digest) in families {
            let d = digest(src, ExpandOptions::default());
            writeln!(table, "{name} {family} {d}").unwrap();
            // Programs that fail to compile are also pinned with stuttering
            // allowed (which turns deadlocks into self-loops). A compiled
            // digest always reports its level count; an error never does
            // (error names such as `Deadlock` start with a hex digit too).
            if !d.contains(" levels=") {
                writeln!(table, "{name} {family}+stutter {}", digest(src, stutter)).unwrap();
            }
        }
    }
    // The state cap, on both families.
    let big = "module m x : [0..1000000] init 0; [] true -> (x'=min(x+1, 1000000)); endmodule";
    writeln!(table, "cap dtmc {}", dtmc_digest(big, capped)).unwrap();
    writeln!(table, "cap mdp {}", mdp_digest(big, capped)).unwrap();
    table
}

const EXPECTED: &str = r#"coin dtmc 202c6e1c57650f7c n=2 levels=2
coin mdp 8ada164cab40279c n=2 levels=2
knuth_yao dtmc 77c28e694ce8604f n=13 levels=4
knuth_yao mdp ff6ae793f750180e n=13 levels=4
unassigned dtmc c9b327d49b29bd97 n=2 levels=2
unassigned mdp fb6913ee1c816bd7 n=2 levels=2
sync_toggles dtmc 21e521e38a5d70f6 n=2 levels=2
sync_toggles mdp 73e8d737c3bd0976 n=2 levels=2
sync_coins dtmc 5836c60be8e896fb n=4 levels=2
sync_coins mdp b0fb927984e0c37b n=4 levels=2
overlap dtmc 126bf7fba560bedf n=3 levels=2
overlap mdp 6a0b9f355779b677 n=3 levels=2
deadlock dtmc Deadlock { module: "m", state: "{x=1}" }
deadlock dtmc+stutter 3f823505cdc1b0b6 n=2 levels=2
deadlock mdp Deadlock { module: "m", state: "{x=1}" }
deadlock mdp+stutter 7329c8cad063b6f6 n=2 levels=2
bad_distribution dtmc BadDistribution { module: "m", command: 0, sum: 0.9 }
bad_distribution dtmc+stutter BadDistribution { module: "m", command: 0, sum: 0.9 }
bad_distribution mdp BadDistribution { module: "m", command: 0, sum: 0.9 }
bad_distribution mdp+stutter BadDistribution { module: "m", command: 0, sum: 0.9 }
negative_probability dtmc BadProbability { context: "command 0 of module m", value: -0.25 }
negative_probability dtmc+stutter BadProbability { context: "command 0 of module m", value: -0.25 }
negative_probability mdp BadProbability { context: "command 0 of module m", value: -0.25 }
negative_probability mdp+stutter BadProbability { context: "command 0 of module m", value: -0.25 }
out_of_range dtmc OutOfRange { var: "x", value: 4, lo: 0, hi: 3 }
out_of_range dtmc+stutter OutOfRange { var: "x", value: 4, lo: 0, hi: 3 }
out_of_range mdp OutOfRange { var: "x", value: 4, lo: 0, hi: 3 }
out_of_range mdp+stutter OutOfRange { var: "x", value: 4, lo: 0, hi: 3 }
rewards dtmc 1e384fa8e5236c94 n=2 levels=2
rewards mdp 3128bc210bb55654 n=2 levels=2
one_label dtmc 0390101223a1c2b2 n=2 levels=2
one_label mdp d115290ad52139d2 n=2 levels=2
render dtmc b33409f5142502a5 n=1 levels=1
render mdp 831ee9f8efb80524 n=1 levels=1
regime_mdp_unit dtmc WrongModelType { declared: "mdp", hint: "use compile_mdp (or the CLI, which dispatches on the header)" }
regime_mdp_unit dtmc+stutter WrongModelType { declared: "mdp", hint: "use compile_mdp (or the CLI, which dispatches on the header)" }
regime_mdp_unit mdp bf3a77f0debe8096 n=2 levels=2
mdp_multi_module dtmc WrongModelType { declared: "mdp", hint: "use compile_mdp (or the CLI, which dispatches on the header)" }
mdp_multi_module dtmc+stutter WrongModelType { declared: "mdp", hint: "use compile_mdp (or the CLI, which dispatches on the header)" }
mdp_multi_module mdp 78407209af5dac9b n=4 levels=2
mdp_deadlock dtmc WrongModelType { declared: "mdp", hint: "use compile_mdp (or the CLI, which dispatches on the header)" }
mdp_deadlock dtmc+stutter WrongModelType { declared: "mdp", hint: "use compile_mdp (or the CLI, which dispatches on the header)" }
mdp_deadlock mdp Deadlock { module: "m", state: "{x=1}" }
mdp_deadlock mdp+stutter 7329c8cad063b6f6 n=2 levels=2
single_command_die dtmc e98c9fe1cbb85f6e n=4 levels=3
single_command_die mdp fc7d05a77eac5fae n=4 levels=3
mdp_named_rewards dtmc WrongModelType { declared: "mdp", hint: "use compile_mdp (or the CLI, which dispatches on the header)" }
mdp_named_rewards dtmc+stutter WrongModelType { declared: "mdp", hint: "use compile_mdp (or the CLI, which dispatches on the header)" }
mdp_named_rewards mdp 835506af1a185339 n=2 levels=2
formulas dtmc a4809e64ff22b44a n=3 levels=3
formulas mdp 58a1dd7bab36734b n=3 levels=3
any_dtmc dtmc 77a812e3d48f616c n=2 levels=2
any_dtmc mdp e255bb14286a798c n=2 levels=2
any_mdp dtmc WrongModelType { declared: "mdp", hint: "use compile_mdp (or the CLI, which dispatches on the header)" }
any_mdp dtmc+stutter WrongModelType { declared: "mdp", hint: "use compile_mdp (or the CLI, which dispatches on the header)" }
any_mdp mdp 9233b666534e01ac n=2 levels=2
regime_mdp dtmc WrongModelType { declared: "mdp", hint: "use compile_mdp (or the CLI, which dispatches on the header)" }
regime_mdp dtmc+stutter WrongModelType { declared: "mdp", hint: "use compile_mdp (or the CLI, which dispatches on the header)" }
regime_mdp mdp d74bcae190e4e3c5 n=273 levels=21
torus_walk dtmc 00285f9f6afb2c76 n=900 levels=31
torus_walk mdp 603a99eccecd5386 n=900 levels=31
nested_formulas dtmc 949abc927960291b n=13 levels=9
nested_formulas mdp b44b6f057700539a n=13 levels=9
three_modules_mdp dtmc WrongModelType { declared: "mdp", hint: "use compile_mdp (or the CLI, which dispatches on the header)" }
three_modules_mdp dtmc+stutter WrongModelType { declared: "mdp", hint: "use compile_mdp (or the CLI, which dispatches on the header)" }
three_modules_mdp mdp Deadlock { module: "c", state: "{x=0, y=0, z=0}" }
three_modules_mdp mdp+stutter 8ba5044c2b5df9ba n=30 levels=6
three_modules_dtmc dtmc Deadlock { module: "c", state: "{x=0, y=0, z=0}" }
three_modules_dtmc dtmc+stutter 556a1db00cc052c2 n=30 levels=6
three_modules_dtmc mdp Deadlock { module: "c", state: "{x=0, y=0, z=0}" }
three_modules_dtmc mdp+stutter 8ba5044c2b5df9ba n=30 levels=6
counters.sm dtmc 8897cb5f5834138b n=15625 levels=25
counters.sm mdp 1f02c45d18ca1b22 n=15625 levels=25
walk.sm dtmc 9b3188b51e88820e n=8401 levels=4201
walk.sm mdp feb815437e08881b n=8401 levels=4201
l001_dead_guard.sm dtmc b83f5410c2bb7741 n=5 levels=5
l001_dead_guard.sm mdp cd9ca5ff5ff720c0 n=5 levels=5
l001_dead_guard_clean.sm dtmc b83f5410c2bb7741 n=5 levels=5
l001_dead_guard_clean.sm mdp cd9ca5ff5ff720c0 n=5 levels=5
l002_constant_guard.sm dtmc b83f5410c2bb7741 n=5 levels=5
l002_constant_guard.sm mdp cd9ca5ff5ff720c0 n=5 levels=5
l002_constant_guard_clean.sm dtmc b83f5410c2bb7741 n=5 levels=5
l002_constant_guard_clean.sm mdp cd9ca5ff5ff720c0 n=5 levels=5
l003_out_of_range.sm dtmc OutOfRange { var: "t", value: 4, lo: 0, hi: 3 }
l003_out_of_range.sm dtmc+stutter OutOfRange { var: "t", value: 4, lo: 0, hi: 3 }
l003_out_of_range.sm mdp OutOfRange { var: "t", value: 4, lo: 0, hi: 3 }
l003_out_of_range.sm mdp+stutter OutOfRange { var: "t", value: 4, lo: 0, hi: 3 }
l003_out_of_range_clean.sm dtmc b8f4a792f467f382 n=4 levels=4
l003_out_of_range_clean.sm mdp 86443c5ae8000462 n=4 levels=4
l004_bad_distribution.sm dtmc BadDistribution { module: "chan", command: 0, sum: 1.2 }
l004_bad_distribution.sm dtmc+stutter BadDistribution { module: "chan", command: 0, sum: 1.2 }
l004_bad_distribution.sm mdp BadDistribution { module: "chan", command: 0, sum: 1.2 }
l004_bad_distribution.sm mdp+stutter BadDistribution { module: "chan", command: 0, sum: 1.2 }
l004_bad_distribution_clean.sm dtmc 42dc539ac323399d n=2 levels=2
l004_bad_distribution_clean.sm mdp ef99af34bd46e1b9 n=2 levels=2
l005_deadlock.sm dtmc Deadlock { module: "chan", state: "{t=3}" }
l005_deadlock.sm dtmc+stutter b8f4a792f467f382 n=4 levels=4
l005_deadlock.sm mdp Deadlock { module: "chan", state: "{t=3}" }
l005_deadlock.sm mdp+stutter 86443c5ae8000462 n=4 levels=4
l005_deadlock_clean.sm dtmc b8f4a792f467f382 n=4 levels=4
l005_deadlock_clean.sm mdp 86443c5ae8000462 n=4 levels=4
l006_overlap.sm dtmc e3283bb8ae3befba n=4 levels=4
l006_overlap.sm mdp dd9a7d421ff22bbe n=4 levels=4
l006_overlap_clean.sm dtmc b8f4a792f467f382 n=4 levels=4
l006_overlap_clean.sm mdp 86443c5ae8000462 n=4 levels=4
l007_unused_const.sm dtmc 2cf4038d81919b41 n=3 levels=3
l007_unused_const.sm mdp 4724e2cfe5666280 n=3 levels=3
l007_unused_const_clean.sm dtmc 2cf4038d81919b41 n=3 levels=3
l007_unused_const_clean.sm mdp 4724e2cfe5666280 n=3 levels=3
l008_unused_formula.sm dtmc 2cf4038d81919b41 n=3 levels=3
l008_unused_formula.sm mdp 4724e2cfe5666280 n=3 levels=3
l008_unused_formula_clean.sm dtmc 2cf4038d81919b41 n=3 levels=3
l008_unused_formula_clean.sm mdp 4724e2cfe5666280 n=3 levels=3
l009_unused_variable.sm dtmc b9ac617ae44db5ca n=3 levels=3
l009_unused_variable.sm mdp 90400f1c081b22ab n=3 levels=3
l009_unused_variable_clean.sm dtmc 2cf4038d81919b41 n=3 levels=3
l009_unused_variable_clean.sm mdp 4724e2cfe5666280 n=3 levels=3
l010_trivial_label.sm dtmc 72e739e03268f021 n=3 levels=3
l010_trivial_label.sm mdp f0494c75ac065ea0 n=3 levels=3
l010_trivial_label_clean.sm dtmc 0f76f317b2e71244 n=3 levels=3
l010_trivial_label_clean.sm mdp 8a90aae7fff9bae5 n=3 levels=3
cap dtmc Dtmc("state space exceeds max_states=100")
cap mdp Dtmc("state space exceeds max_states=100")
"#;

#[test]
fn compiled_models_are_bit_identical_to_the_recorded_digests() {
    let actual = actual_table();
    assert!(
        actual == EXPECTED,
        "compiled-model digests drifted; actual table:\n{actual}"
    );
}
