//! Answers do not depend on what the dispatch gate picks. walk.sm with
//! walk.props and a regime MDP are checked again and again with the gate
//! live — fresh sessions, so no cache answers and every dispatch site
//! above its floor runs its sequential and its parallel trials — and every
//! round must equal a `CheckSession::threads(1)` run bit for bit in
//! values, intervals and solver tags, in default and certified mode.

use statguard_mimo::lang::{check, compile_any, parse};
use statguard_mimo::pctl::{parse_property, AnyModel, CheckOptions, CheckResult, CheckSession};

const WALK: &str = include_str!("../examples/models/walk.sm");
const WALK_PROPS: &str = include_str!("../examples/models/walk.props");

/// A 9,990-state adversarial error-regime MDP: 999 frames, a burst
/// counter saturating at 9, and two channel regimes to choose between.
const REGIME: &str = "mdp
const int N = 999;
const int CMAX = 9;
module channel
  t : [0..N] init 0;
  c : [0..CMAX] init 0;
  [] t < N -> 0.05:(t'=t+1)&(c'=min(c+1,CMAX)) + 0.95:(t'=t+1);
  [] t < N -> 0.3:(t'=t+1)&(c'=min(c+1,CMAX)) + 0.7:(t'=t+1);
  [] t = N -> true;
endmodule
label \"overflow\" = c = CMAX;
label \"done\" = t = N;
rewards
  c = CMAX : 1;
endrewards";

const REGIME_PROPS: &str = "Pmax=? [ F overflow ]
Pmin=? [ F overflow ]
Rmax=? [ F done ]
Rmin=? [ F done ]
Pmax=? [ F<=200 overflow ]
Pmin=? [ F<=200 overflow ]";

/// Everything a result reports apart from its timing, as bits.
type Bits = (u64, Option<(u64, u64)>, String);

fn bits(results: &[CheckResult]) -> Vec<Bits> {
    results
        .iter()
        .map(|r| {
            (
                r.value().to_bits(),
                r.interval().map(|(lo, hi)| (lo.to_bits(), hi.to_bits())),
                format!("{:?}", r.solver()),
            )
        })
        .collect()
}

#[test]
fn gated_checks_match_one_lane_bit_for_bit() {
    for (src, props) in [(WALK, WALK_PROPS), (REGIME, REGIME_PROPS)] {
        let model: AnyModel = compile_any(check(parse(src).unwrap()).unwrap())
            .unwrap()
            .into();
        let props: Vec<_> = props
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with("//"))
            .map(|l| parse_property(l).unwrap())
            .collect();
        for opts in [CheckOptions::default(), CheckOptions::certified(1e-6)] {
            let one_lane = CheckSession::new(model.clone())
                .with_options(opts)
                .threads(1)
                .check_all(&props)
                .unwrap();
            for round in 0..5 {
                let gated = CheckSession::new(model.clone())
                    .with_options(opts)
                    .check_all(&props)
                    .unwrap();
                assert_eq!(bits(&gated), bits(&one_lane), "round {round}, {opts:?}");
            }
        }
    }
}
