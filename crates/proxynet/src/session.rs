//! The super proxy's session table: `-session-N` pins requests to one exit
//! node for 60 seconds after last use (§2.3).

use crate::node::NodeId;
use netsim::{SimDuration, SimTime};
use std::collections::{BTreeMap, HashMap};

/// Session-stickiness window.
pub const SESSION_TTL: SimDuration = SimDuration::from_secs(60);

#[derive(Debug, Clone, Copy)]
struct SessionEntry {
    node: NodeId,
    last_used: SimTime,
}

/// Session table keyed by customer, then by session id, so a lookup or
/// touch borrows the customer instead of allocating a key for it. A study
/// has a handful of customers, which an ordered map holds as cheaply as a
/// hashed one.
///
/// A touch first sweeps out the pins idle past the window, once the table
/// has doubled since its last sweep. Precondition: the times passed to one
/// table never decrease (and the window is set before the first touch). A
/// pin idle past the window at a touch's `now` is then idle past it at
/// every later lookup, so the sweep changes no lookup.
#[derive(Debug, Clone)]
pub struct SessionTable {
    entries: BTreeMap<String, HashMap<u64, SessionEntry>>,
    ttl: SimDuration,
    /// Twice the entries the last sweep kept (0 before the first): the
    /// next touch sweeps once the table holds this many, and at least
    /// [`SWEEP_FLOOR`].
    sweep_at: usize,
}

/// The smallest table a touch sweeps: below it a sweep costs more than the
/// expired pins it frees.
const SWEEP_FLOOR: usize = 64;

impl Default for SessionTable {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionTable {
    /// An empty table with the service's standard 60 s stickiness.
    pub fn new() -> Self {
        SessionTable {
            entries: BTreeMap::new(),
            ttl: SESSION_TTL,
            sweep_at: 0,
        }
    }

    /// Override the stickiness window (0 disables sessions entirely — the
    /// ablation knob; the d1/d2 methodology depends on stickiness).
    pub fn set_ttl(&mut self, ttl: SimDuration) {
        self.ttl = ttl;
    }

    /// The node pinned for this session, if the pin is still fresh.
    pub fn lookup(&self, customer: &str, session: u64, now: SimTime) -> Option<NodeId> {
        if self.ttl.is_zero() {
            return None;
        }
        self.entries
            .get(customer)?
            .get(&session)
            .filter(|e| now.since(e.last_used) <= self.ttl)
            .map(|e| e.node)
    }

    /// Record that this session used `node` at `now` (refreshes the TTL).
    /// Sweeps expired pins first once the table has doubled since the last
    /// sweep, so the sweep costs at most one step per touch.
    pub fn touch(&mut self, customer: &str, session: u64, node: NodeId, now: SimTime) {
        if self.len() >= self.sweep_at.max(SWEEP_FLOOR) {
            self.sweep(now);
            self.sweep_at = 2 * self.len();
        }
        let entry = SessionEntry {
            node,
            last_used: now,
        };
        match self.entries.get_mut(customer) {
            Some(sessions) => {
                sessions.insert(session, entry);
            }
            None => {
                self.entries
                    .insert(customer.to_string(), HashMap::from([(session, entry)]));
            }
        }
    }

    /// Drop the pins idle past the window at `now` (housekeeping;
    /// correctness never depends on it). A pin last used after `now` is
    /// kept.
    pub fn sweep(&mut self, now: SimTime) {
        let ttl = self.ttl;
        for sessions in self.entries.values_mut() {
            sessions.retain(|_, e| {
                now.checked_since(e.last_used)
                    .is_none_or(|idle| idle <= ttl)
            });
        }
    }

    /// Number of stored pins, including expired ones not yet swept: at most
    /// the sweep floor of 64 pins or twice the fresh pins the last sweep
    /// kept.
    pub fn len(&self) -> usize {
        self.entries.values().map(HashMap::len).sum()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_pin_is_returned() {
        let mut t = SessionTable::new();
        t.touch("c", 429, NodeId(7), SimTime::EPOCH);
        assert_eq!(
            t.lookup("c", 429, SimTime::EPOCH + SimDuration::from_secs(59)),
            Some(NodeId(7))
        );
    }

    #[test]
    fn pin_expires_after_sixty_seconds() {
        let mut t = SessionTable::new();
        t.touch("c", 429, NodeId(7), SimTime::EPOCH);
        assert_eq!(
            t.lookup("c", 429, SimTime::EPOCH + SimDuration::from_secs(61)),
            None
        );
    }

    #[test]
    fn touch_refreshes_ttl() {
        let mut t = SessionTable::new();
        t.touch("c", 1, NodeId(3), SimTime::EPOCH);
        let mid = SimTime::EPOCH + SimDuration::from_secs(50);
        t.touch("c", 1, NodeId(3), mid);
        assert_eq!(
            t.lookup("c", 1, mid + SimDuration::from_secs(50)),
            Some(NodeId(3))
        );
    }

    #[test]
    fn sessions_are_scoped_per_customer_and_id() {
        let mut t = SessionTable::new();
        t.touch("alice", 1, NodeId(1), SimTime::EPOCH);
        t.touch("bob", 1, NodeId(2), SimTime::EPOCH);
        t.touch("alice", 2, NodeId(3), SimTime::EPOCH);
        assert_eq!(t.lookup("alice", 1, SimTime::EPOCH), Some(NodeId(1)));
        assert_eq!(t.lookup("bob", 1, SimTime::EPOCH), Some(NodeId(2)));
        assert_eq!(t.lookup("alice", 2, SimTime::EPOCH), Some(NodeId(3)));
        assert_eq!(t.lookup("alice", 3, SimTime::EPOCH), None);
    }

    #[test]
    fn sweep_drops_expired() {
        let mut t = SessionTable::new();
        t.touch("c", 1, NodeId(1), SimTime::EPOCH);
        t.touch(
            "c",
            2,
            NodeId(2),
            SimTime::EPOCH + SimDuration::from_secs(90),
        );
        t.sweep(SimTime::EPOCH + SimDuration::from_secs(100));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn sweep_keeps_a_pin_used_after_the_sweep_time() {
        let mut t = SessionTable::new();
        t.touch(
            "c",
            1,
            NodeId(1),
            SimTime::EPOCH + SimDuration::from_secs(100),
        );
        t.sweep(SimTime::EPOCH + SimDuration::from_secs(50));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn touch_sweep_matches_a_table_that_never_evicts() {
        // Random touches and lookups at non-decreasing times, mostly on
        // fresh session ids as a study draws them, against a reference
        // that keeps every pin forever: every lookup agrees, and the table
        // holds at most SWEEP_FLOOR plus twice the most pins ever fresh at
        // once.
        use netsim::rng::RngExt;
        use netsim::SimRng;

        for seed in 0..8u64 {
            let mut rng = SimRng::new(0x5E55 ^ seed);
            let mut table = SessionTable::new();
            let mut reference: HashMap<(&str, u64), (NodeId, SimTime)> = HashMap::new();
            let mut now = SimTime::EPOCH;
            let mut fresh_id = 0u64;
            let mut peak_fresh = 0usize;
            let mut pinned_lookups = 0;
            for _ in 0..4000 {
                now += SimDuration::from_millis(rng.random_range(0..8_000u64));
                let customer = ["study", "figures"][rng.random_range(0..2usize)];
                let session = if rng.random_bool(0.5) || fresh_id == 0 {
                    fresh_id += 1;
                    fresh_id
                } else {
                    rng.random_range(fresh_id.saturating_sub(24).max(1)..=fresh_id)
                };
                if rng.random_bool(0.5) {
                    let want = reference
                        .get(&(customer, session))
                        .filter(|(_, used)| now.since(*used) <= SESSION_TTL)
                        .map(|(node, _)| *node);
                    pinned_lookups += usize::from(want.is_some());
                    assert_eq!(
                        table.lookup(customer, session, now),
                        want,
                        "seed {seed}: {customer} session {session} at {now:?}"
                    );
                    continue;
                }
                let node = NodeId(rng.random_range(0..50u32));
                table.touch(customer, session, node, now);
                reference.insert((customer, session), (node, now));
                let fresh = reference
                    .values()
                    .filter(|(_, used)| now.since(*used) <= SESSION_TTL)
                    .count();
                peak_fresh = peak_fresh.max(fresh);
                assert!(
                    table.len() <= SWEEP_FLOOR + 2 * peak_fresh,
                    "seed {seed}: {} pins, at most {peak_fresh} ever fresh",
                    table.len()
                );
            }
            assert!(pinned_lookups > 0, "seed {seed}: some lookups find a pin");
        }
    }
}
