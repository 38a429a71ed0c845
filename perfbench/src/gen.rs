//! Seeded inputs. The seed varies probability constants and horizons, never
//! the shape of a state space, so every seed does the same amount of work
//! on different numbers. The program under test sees only the `.sm` text,
//! property files and HTTP bodies built here.

use std::fmt::Write as _;

/// SplitMix64: small, well mixed, and dependent on nothing but the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream of a seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform integer in `lo..=hi`.
    pub fn pick(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// A probability constant `lo + k·step` (in units of `10^-digits`),
    /// returned as the decimal text written into the model, so the model
    /// and its reference read the very same digits.
    fn constant(&mut self, lo: u64, steps: u64, step: u64, digits: usize) -> String {
        let units = lo + step * self.pick(0, steps);
        format!("0.{units:0digits$}")
    }
}

/// Parses a constant produced by [`Rng::constant`].
pub fn value(text: &str) -> f64 {
    text.parse()
        .expect("generated constants are decimal literals")
}

/// The adversarial-regime MDP: a frame clock `t` ticks to `N` while an error
/// counter `c` saturates at `CMAX`; every tick the adversary picks the quiet
/// or the bursty error rate.
#[derive(Debug, Clone)]
pub struct Regime {
    /// Frames per run (`N`).
    pub frames: u64,
    /// Overflow threshold (`CMAX`).
    pub cmax: u64,
    /// Quiet-regime error probability, as written in the model.
    pub p_quiet: String,
    /// Bursty-regime error probability, as written in the model.
    pub p_burst: String,
}

impl Regime {
    /// Seeded constants over a fixed shape of `(frames + 1)·(cmax + 1)`
    /// (minus a corner of unreachable) states.
    pub fn seeded(rng: &mut Rng, frames: u64, cmax: u64) -> Regime {
        Regime {
            frames,
            cmax,
            p_quiet: rng.constant(45, 10, 1, 4),
            p_burst: rng.constant(200, 10, 5, 3),
        }
    }

    /// The guarded-command source.
    pub fn source(&self) -> String {
        let Regime {
            frames,
            cmax,
            p_quiet,
            p_burst,
        } = self;
        format!(
            "// Adversarial error regimes (generated by perfbench).\n\
             mdp\n\n\
             const int N = {frames};\n\
             const int CMAX = {cmax};\n\
             const double p_quiet = {p_quiet};\n\
             const double p_burst = {p_burst};\n\n\
             module channel\n\
             \x20 t : [0..N] init 0;\n\
             \x20 c : [0..CMAX] init 0;\n\
             \x20 [] t < N -> p_quiet:(t'=t+1)&(c'=min(c+1,CMAX)) + (1-p_quiet):(t'=t+1);\n\
             \x20 [] t < N -> p_burst:(t'=t+1)&(c'=min(c+1,CMAX)) + (1-p_burst):(t'=t+1);\n\
             \x20 [] t = N -> true;\n\
             endmodule\n\n\
             label \"overflow\" = c = CMAX;\n\
             label \"done\" = t = N;\n\n\
             rewards\n\
             \x20 c = CMAX : 1;\n\
             endrewards\n"
        )
    }
}

/// The unbounded family of the regime MDP (what the session caches).
pub const REGIME_FAMILY: [&str; 4] = [
    "Pmax=? [ F overflow ]",
    "Pmin=? [ F overflow ]",
    "Rmax=? [ F done ]",
    "Rmin=? [ F done ]",
];

/// The bounded worst-case query of the regime MDP at horizon `t`.
pub fn regime_bounded(t: u64) -> String {
    format!("Pmax=? [ F<={t} overflow ]")
}

/// A random walk on a `width × width` torus; the target is a 2×2 corner.
#[derive(Debug, Clone)]
pub struct Lattice {
    /// Side length.
    pub width: u64,
    /// East, west, north and south step probabilities, as written.
    pub steps: [String; 4],
    /// Initial cell.
    pub start: (u64, u64),
    /// Horizon of the bounded query.
    pub horizon: u64,
}

impl Lattice {
    /// Seeded step probabilities over a fixed torus; the walker stays put
    /// with the remaining probability (at least 0.2).
    pub fn seeded(rng: &mut Rng, width: u64) -> Lattice {
        Lattice {
            width,
            steps: std::array::from_fn(|_| rng.constant(150, 10, 5, 3)),
            start: (6, 5),
            horizon: 20,
        }
    }

    /// Whether a cell is in the target corner.
    pub fn is_corner(x: u64, y: u64) -> bool {
        x <= 1 && y <= 1
    }

    /// The guarded-command source.
    pub fn source(&self) -> String {
        let (x0, y0) = self.start;
        let mut s = String::from("// Torus random walk (generated by perfbench).\ndtmc\n\n");
        let _ = writeln!(s, "const int W = {};", self.width);
        for (name, p) in ["pe", "pw", "pn", "ps"].iter().zip(&self.steps) {
            let _ = writeln!(s, "const double {name} = {p};");
        }
        let _ = write!(
            s,
            "\nmodule walker\n\
             \x20 x : [0..W-1] init {x0};\n\
             \x20 y : [0..W-1] init {y0};\n\
             \x20 [] true -> pe:(x'=mod(x+1,W)) + pw:(x'=mod(x+W-1,W)) + pn:(y'=mod(y+1,W)) \
             + ps:(y'=mod(y+W-1,W)) + (1-pe-pw-pn-ps):true;\n\
             endmodule\n\n\
             label \"corner\" = x <= 1 & y <= 1;\n"
        );
        s
    }

    /// The bounded query.
    pub fn property(&self) -> String {
        format!("P=? [ F<={} corner ]", self.horizon)
    }
}

/// One `serve` request: which resident model, and the horizon of its
/// uncached bounded query.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// 0 = walk, 1 = the regime MDP.
    pub model: usize,
    /// Horizon of the bounded query.
    pub horizon: u64,
}

/// Horizons of the bounded query a `serve` request carries; short enough
/// that checking stays below the daemon's own per-request cost.
pub const SERVE_HORIZONS: std::ops::RangeInclusive<u64> = 5..=15;

/// The request schedule of one `serve` client: an endless seeded stream.
pub struct Schedule(Rng);

impl Schedule {
    /// Client `client`'s stream for `seed`.
    pub fn new(seed: u64, client: u64) -> Schedule {
        Schedule(Rng::new(seed, 100 + client))
    }
}

impl Iterator for Schedule {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        Some(Request {
            model: self.0.pick(0, 1) as usize,
            horizon: self.0.pick(*SERVE_HORIZONS.start(), *SERVE_HORIZONS.end()),
        })
    }
}

/// The fixed walk model's constants, read back from its source so the
/// references follow the file.
#[derive(Debug, Clone, Copy)]
pub struct WalkConsts {
    /// Frame count `N`.
    pub frames: u64,
    /// Per-frame error probability `perr`.
    pub perr: f64,
}

impl WalkConsts {
    /// Reads `const int N` and `const double perr` from walk.sm.
    pub fn parse(source: &str) -> Option<WalkConsts> {
        let find = |prefix: &str| {
            source.lines().find_map(|l| {
                l.trim()
                    .strip_prefix(prefix)
                    .and_then(|rest| rest.trim().strip_suffix(';'))
                    .map(|v| v.trim().to_string())
            })
        };
        Some(WalkConsts {
            frames: find("const int N =")?.parse().ok()?,
            perr: find("const double perr =")?.parse().ok()?,
        })
    }
}

/// Reads a property file the way `smg check --props` does: one property
/// per line, `//` and `#` comments and blank lines skipped.
pub fn read_props(text: &str) -> Vec<String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//") && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}
