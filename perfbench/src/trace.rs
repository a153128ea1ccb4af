//! Workload inputs, generated from the workload seed alone.
//!
//! Each generator is a pure function of its seed: the same seed gives the
//! same specs, the same request bytes and the same virtual times. The
//! program under test only ever sees what these functions produce.

use netsim::SimRng;
use substrate::rng::RngExt;
use worldgen::WorldSpec;

/// An independent 64-bit value for stream `label`/`index` of `seed`.
pub fn derive(seed: u64, label: &str, index: u64) -> u64 {
    SimRng::new(seed).fork_indexed(label, index).seed()
}

/// World seeds of the study-paper workload, in the order it runs them.
pub fn study_seeds(seed: u64, count: usize) -> Vec<u64> {
    (0..count as u64)
        .map(|i| derive(seed, "world", i))
        .collect()
}

/// Hot specs the gateway-hot workload caches in set-up: the report cache's
/// whole capacity, so nothing is evicted.
pub const HOT_SPECS: usize = 8;
/// Requests in one replay of the hot trace.
pub const HOT_REQUESTS: usize = 4096;
/// Share of hot requests that are `POST`s; the rest `GET` finished bodies.
/// A `POST` hit costs several times a `GET`, so the share is kept well away
/// from one half, and below it: the median then lies inside the `GET`
/// population, whose host times form one narrow peak. `POST` hits do not:
/// on a shared host they fall into a fast and a slow cluster whose weights
/// shift from second to second, so a median among them jumps between the
/// two.
pub const HOT_POST_SHARE: f64 = 0.3;

/// One request of the hot trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotRequest {
    /// Virtual send time, strictly increasing through the trace.
    pub at_ms: u64,
    /// Index into [`HotTrace::specs`].
    pub spec: usize,
    /// `POST` the spec (true) or `GET` its finished study (false).
    pub post: bool,
}

/// The gateway-hot trace: an open loop of requests on virtual time.
#[derive(Debug, Clone)]
pub struct HotTrace {
    /// The hot specs.
    pub specs: Vec<WorldSpec>,
    /// One replay's requests.
    pub requests: Vec<HotRequest>,
}

/// The gateway-hot trace for `seed`.
pub fn hot(seed: u64) -> HotTrace {
    let specs = (0..HOT_SPECS as u64)
        .map(|j| worldgen::smoke_spec(derive(seed, "hot-spec", j)))
        .collect();
    let mut rng = SimRng::new(seed).fork("hot-requests");
    let mut at_ms = 0u64;
    let requests = (0..HOT_REQUESTS)
        .map(|_| {
            at_ms += rng.random_range(1..50u64);
            HotRequest {
                at_ms,
                spec: rng.random_range(0..HOT_SPECS),
                post: rng.random_bool(HOT_POST_SHARE),
            }
        })
        .collect();
    HotTrace { specs, requests }
}

/// Clients in one replay of the churn trace: enough that p95 of their
/// virtual latency has ten clients beyond it.
pub const CHURN_CLIENTS: usize = 220;
/// Share of clients submitting a spec nobody submitted before, as a
/// fraction: exactly 3 in every 5 clients, spread evenly through the trace.
pub const CHURN_UNIQUE: (usize, usize) = (3, 5);
/// A repeating client picks one of this many most recent distinct specs.
pub const CHURN_RECENT: usize = 16;
/// Offered cold studies per study the single virtual server can run.
pub const CHURN_OVERLOAD: f64 = 1.3;

/// A churn client's arrival: when it first posts, and which spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Virtual time of the first `POST`, nondecreasing through the trace.
    pub at_ms: u64,
    /// Index into [`ChurnTrace::specs`].
    pub spec: usize,
}

/// The gateway-churn trace: open-loop arrivals over cold smoke specs.
#[derive(Debug, Clone)]
pub struct ChurnTrace {
    /// Every distinct spec, in first-submission order.
    pub specs: Vec<WorldSpec>,
    /// Clients in arrival order.
    pub clients: Vec<Arrival>,
}

/// The gateway-churn trace for `seed`: one client per slot of an even
/// schedule, each arriving at a random point of its slot, over a window
/// sized so that the unique specs alone offer [`CHURN_OVERLOAD`] times what
/// one virtual server can run. The offered rate and the unique share are
/// properties of the workload, not of the seed; the seed picks arrival
/// points, the specs, and which recent spec each repeat resubmits.
pub fn churn(seed: u64) -> ChurnTrace {
    let cost_ms = tft_serve::Gateway::cold_study_cost().as_millis() as f64;
    let (num, den) = CHURN_UNIQUE;
    let unique = CHURN_CLIENTS * num / den;
    let slot_ms = (unique as f64 * cost_ms / CHURN_OVERLOAD / CHURN_CLIENTS as f64) as u64;
    let root = SimRng::new(seed);

    let mut specs: Vec<WorldSpec> = Vec::new();
    let mut clients = Vec::with_capacity(CHURN_CLIENTS);
    for c in 0..CHURN_CLIENTS {
        let mut r = root.fork_indexed("client", c as u64);
        let at_ms = c as u64 * slot_ms + r.random_range(0..slot_ms);
        let new_spec = (c + 1) * num / den > c * num / den;
        let spec = if specs.is_empty() || new_spec {
            specs.push(worldgen::smoke_spec(derive(
                seed,
                "churn-spec",
                specs.len() as u64,
            )));
            specs.len() - 1
        } else {
            let recent = specs.len().min(CHURN_RECENT);
            specs.len() - 1 - r.random_range(0..recent)
        };
        clients.push(Arrival { at_ms, spec });
    }
    ChurnTrace { specs, clients }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gw::post_request;

    fn hot_bytes(t: &HotTrace) -> Vec<(u64, bool, Vec<u8>)> {
        t.requests
            .iter()
            .map(|r| (r.at_ms, r.post, post_request(&t.specs[r.spec])))
            .collect()
    }

    fn churn_bytes(t: &ChurnTrace) -> Vec<(u64, Vec<u8>)> {
        t.clients
            .iter()
            .map(|c| (c.at_ms, post_request(&t.specs[c.spec])))
            .collect()
    }

    #[test]
    fn traces_are_pure_functions_of_the_seed() {
        assert_eq!(hot_bytes(&hot(5)), hot_bytes(&hot(5)));
        assert_eq!(churn_bytes(&churn(5)), churn_bytes(&churn(5)));
        assert_eq!(study_seeds(5, 4), study_seeds(5, 4));
        assert_ne!(hot_bytes(&hot(5)), hot_bytes(&hot(6)));
        assert_ne!(churn_bytes(&churn(5)), churn_bytes(&churn(6)));
        assert_ne!(study_seeds(5, 4), study_seeds(6, 4));
    }

    #[test]
    fn hot_trace_stays_inside_the_cache() {
        let t = hot(9);
        assert_eq!(t.specs.len(), HOT_SPECS);
        assert_eq!(t.requests.len(), HOT_REQUESTS);
        assert!(t.requests.windows(2).all(|w| w[0].at_ms < w[1].at_ms));
        let posts = t.requests.iter().filter(|r| r.post).count() as f64;
        let share = posts / HOT_REQUESTS as f64;
        assert!((share - HOT_POST_SHARE).abs() < 0.05, "POST share {share}");
    }

    #[test]
    fn churn_trace_is_mostly_unique_and_overloaded() {
        let t = churn(9);
        assert_eq!(t.clients.len(), CHURN_CLIENTS);
        assert!(t.clients.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        let unique = t.specs.len();
        assert!(unique * 2 > CHURN_CLIENTS, "most clients bring a new spec");
        assert!(unique < CHURN_CLIENTS, "some clients repeat a recent spec");
        let cost = tft_serve::Gateway::cold_study_cost().as_millis();
        let span = t.clients.last().expect("clients").at_ms;
        assert!(unique as u64 * cost > span, "offered load exceeds capacity");
    }
}
