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
#[derive(Debug, Clone)]
pub struct SessionTable {
    entries: BTreeMap<String, HashMap<u64, SessionEntry>>,
    ttl: SimDuration,
}

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
    pub fn touch(&mut self, customer: &str, session: u64, node: NodeId, now: SimTime) {
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

    /// Drop expired entries (housekeeping; correctness never depends on it).
    pub fn sweep(&mut self, now: SimTime) {
        let ttl = self.ttl;
        for sessions in self.entries.values_mut() {
            sessions.retain(|_, e| now.since(e.last_used) <= ttl);
        }
    }

    /// Number of live entries (including not-yet-swept expired ones).
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
}
