//! Test helpers shared by the root integration tests.
//!
//! [`SyncProduct`] is the synchronous parallel composition of two
//! *independent* DTMC models: both components advance on every clock edge
//! and their randomness is independent, so the product's transition
//! probability is the product of the components'. It models, e.g., the I
//! and Q rails of a receiver or independent antennas' decoders, and is the
//! native oracle the `.sm` language's multi-module semantics are checked
//! against.
//!
//! Atomic propositions are namespaced `l.<ap>` / `r.<ap>`; the product's
//! reward is the sum of the components' rewards (so an `R=? [I=T]` on the
//! product counts errors across both components).

use statguard_mimo::dtmc::DtmcModel;

/// Synchronous product of two independent DTMC models.
#[derive(Debug, Clone)]
pub struct SyncProduct<L, R> {
    left: L,
    right: R,
}

impl<L: DtmcModel, R: DtmcModel> SyncProduct<L, R> {
    /// Composes two models.
    pub fn new(left: L, right: R) -> Self {
        SyncProduct { left, right }
    }

    fn resolve<'a>(&self, ap: &'a str) -> Option<(bool, &'a str)> {
        if let Some(rest) = ap.strip_prefix("l.") {
            Some((true, rest))
        } else {
            ap.strip_prefix("r.").map(|rest| (false, rest))
        }
    }
}

impl<L: DtmcModel, R: DtmcModel> DtmcModel for SyncProduct<L, R> {
    type State = (L::State, R::State);

    fn initial_states(&self) -> Vec<(Self::State, f64)> {
        let li = self.left.initial_states();
        let ri = self.right.initial_states();
        let mut out = Vec::with_capacity(li.len() * ri.len());
        for (ls, lp) in &li {
            for (rs, rp) in &ri {
                out.push(((ls.clone(), rs.clone()), lp * rp));
            }
        }
        out
    }

    fn transitions(&self, state: &Self::State) -> Vec<(Self::State, f64)> {
        let lt = self.left.transitions(&state.0);
        let rt = self.right.transitions(&state.1);
        let mut out = Vec::with_capacity(lt.len() * rt.len());
        for (ls, lp) in &lt {
            for (rs, rp) in &rt {
                out.push(((ls.clone(), rs.clone()), lp * rp));
            }
        }
        out
    }

    fn atomic_propositions(&self) -> Vec<&'static str> {
        // Namespaced names must be 'static; they are leaked once per call.
        // Collections are tiny (a handful of APs).
        let mut aps = Vec::new();
        for ap in self.left.atomic_propositions() {
            aps.push(&*Box::leak(format!("l.{ap}").into_boxed_str()));
        }
        for ap in self.right.atomic_propositions() {
            aps.push(&*Box::leak(format!("r.{ap}").into_boxed_str()));
        }
        aps
    }

    fn holds(&self, ap: &str, state: &Self::State) -> bool {
        match self.resolve(ap) {
            Some((true, rest)) => self.left.holds(rest, &state.0),
            Some((false, rest)) => self.right.holds(rest, &state.1),
            None => false,
        }
    }

    fn state_reward(&self, state: &Self::State) -> f64 {
        self.left.state_reward(&state.0) + self.right.state_reward(&state.1)
    }
}
