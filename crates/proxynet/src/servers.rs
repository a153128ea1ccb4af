//! Server-side infrastructure: the measurement web server (with the request
//! log that reveals exit-node IPs and monitor refetches), origin sites for
//! the HTTPS experiment, and ISP landing servers for hijack pages.

use certs::Certificate;
use dnswire::DnsName;
use httpwire::Response;
use netsim::SimTime;
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// One logged HTTP request at the measurement web server. Its strings are
/// shared: a routed request's host and path are the route's own keys (a
/// probe name's host is the name's allocation), a monitor refetch shares
/// the request it repeats, and a user agent is the server's one copy. A
/// routed request's entry costs its inline bytes and three refcounts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WebLogEntry {
    /// Arrival time.
    pub at: SimTime,
    /// Source address (exit node, VPN egress, or monitor infrastructure).
    pub src: Ipv4Addr,
    /// `Host` header, lowercase.
    pub host: Arc<str>,
    /// Request path.
    pub path: Arc<str>,
    /// `User-Agent` header, if any.
    pub user_agent: Option<Arc<str>>,
}

substrate::json_struct!(WebLogEntry {
    at,
    src,
    host,
    path,
    user_agent: None,
});

/// The study's web server: serves probe objects and logs every request.
#[derive(Debug, Default)]
pub struct WebServer {
    /// host → path → response; host keys are stored lowercase.
    routes: HashMap<Arc<str>, HashMap<Arc<str>, Response>>,
    log: Vec<WebLogEntry>,
    /// Route paths and user agents, one allocation each for every route
    /// and log entry that names them.
    interned: HashSet<Arc<str>>,
    /// Reused lowercase-host scratch: route lookups need no owned key.
    host_scratch: String,
}

/// A clone starts with an empty interning table, so a shard world forked
/// from a base never shares a user agent or path allocation with the base
/// or a sibling shard: a refcount that two workers bump on every request
/// would serialize them. Routes and the log are copied as they are; a
/// study's base holds neither, since each shard provisions its own.
impl Clone for WebServer {
    fn clone(&self) -> Self {
        WebServer {
            routes: self.routes.clone(),
            log: self.log.clone(),
            interned: HashSet::new(),
            host_scratch: String::new(),
        }
    }
}

/// `s` from `table`, adding it on first sight.
fn intern(table: &mut HashSet<Arc<str>>, s: &str) -> Arc<str> {
    if let Some(shared) = table.get(s) {
        return Arc::clone(shared);
    }
    let shared: Arc<str> = Arc::from(s);
    table.insert(Arc::clone(&shared));
    shared
}

impl WebServer {
    /// An empty server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lowercase `s` into `scratch` without allocating in steady state.
    fn lower_into(scratch: &mut String, s: &str) {
        scratch.clear();
        scratch.push_str(s);
        scratch.make_ascii_lowercase();
    }

    /// Install content at `host`/`path`.
    pub fn put(&mut self, host: &str, path: &str, response: Response) {
        self.put_at(Arc::from(host.to_ascii_lowercase()), path, response);
    }

    /// Install content at `path` under `name`'s own text (lowercase by
    /// construction), so the log entries of requests for it share the
    /// name's allocation.
    pub fn put_name(&mut self, name: &DnsName, path: &str, response: Response) {
        self.put_at(Arc::clone(name.as_arc()), path, response);
    }

    fn put_at(&mut self, host: Arc<str>, path: &str, response: Response) {
        let path = intern(&mut self.interned, path);
        self.routes.entry(host).or_default().insert(path, response);
    }

    /// Remove content. Returns true if it existed.
    pub fn remove(&mut self, host: &str, path: &str) -> bool {
        Self::lower_into(&mut self.host_scratch, host);
        let Some(paths) = self.routes.get_mut(self.host_scratch.as_str()) else {
            return false;
        };
        let hit = paths.remove(path).is_some();
        if paths.is_empty() {
            // Probe hosts are unique per probe; dropping the emptied inner
            // map keeps a long run's route table from accumulating husks.
            self.routes.remove(self.host_scratch.as_str());
        }
        hit
    }

    /// Handle a request: log it and return the matching route *borrowed*
    /// (`None` on a miss; the caller renders its 404). The hot delivery
    /// path encodes straight from this reference instead of cloning
    /// multi-KB probe objects per request. The log entry comes first, so a
    /// request is logged whether or not its route still exists; it shares
    /// the route's host and path keys, and only a miss allocates them.
    pub fn handle_ref(
        &mut self,
        at: SimTime,
        src: Ipv4Addr,
        host: &str,
        path: &str,
        user_agent: Option<&str>,
    ) -> Option<&Response> {
        Self::lower_into(&mut self.host_scratch, host);
        let paths = self.routes.get_key_value(self.host_scratch.as_str());
        let route = paths.and_then(|(_, paths)| paths.get_key_value(path));
        let entry = WebLogEntry {
            at,
            src,
            host: paths.map_or_else(
                || Arc::from(self.host_scratch.as_str()),
                |(h, _)| Arc::clone(h),
            ),
            path: route.map_or_else(|| Arc::from(path), |(p, _)| Arc::clone(p)),
            user_agent: user_agent.map(|ua| intern(&mut self.interned, ua)),
        };
        self.log.push(entry);
        route.map(|(_, response)| response)
    }

    /// Log a request whose response reaches nobody we observe (a monitor's
    /// refetch), sharing the `host` and `path` of the request it repeats.
    pub(crate) fn log_refetch(
        &mut self,
        at: SimTime,
        src: Ipv4Addr,
        host: Arc<str>,
        path: Arc<str>,
        user_agent: &str,
    ) {
        let user_agent = Some(intern(&mut self.interned, user_agent));
        self.log.push(WebLogEntry {
            at,
            src,
            host,
            path,
            user_agent,
        });
    }

    /// The request log, in arrival order of processing. Monitor refetches
    /// are appended when their event fires, so entries are
    /// chronologically ordered per run; [`WebServer::log_sorted`] guarantees
    /// order when analysis needs it.
    pub fn log(&self) -> &[WebLogEntry] {
        &self.log
    }

    /// The log sorted by arrival time (stable), borrowed: callers clone
    /// only the entries they keep.
    pub fn log_sorted(&self) -> Vec<&WebLogEntry> {
        let mut v: Vec<&WebLogEntry> = self.log.iter().collect();
        v.sort_by_key(|e| e.at);
        v
    }

    /// Requests whose `Host` matches, in log order.
    pub fn requests_for_host<'a>(
        &'a self,
        host: &'a str,
    ) -> impl Iterator<Item = &'a WebLogEntry> + 'a {
        let host = host.to_ascii_lowercase();
        self.log.iter().filter(move |e| *e.host == *host)
    }

    /// Remove and return the whole log (a shard's evidence — see
    /// `World::into_evidence`), in a buffer sized to it: the evidence
    /// carries no spare capacity across the wave.
    pub fn take_log(&mut self) -> Vec<WebLogEntry> {
        self.log.split_off(0)
    }

    /// Swap in `log` and return the old log, moving both buffers without
    /// copying an entry (see `World::clone_without_evidence`).
    pub fn replace_log(&mut self, log: Vec<WebLogEntry>) -> Vec<WebLogEntry> {
        std::mem::replace(&mut self.log, log)
    }

    /// Make room for `additional` more entries, exactly: a merge that knows
    /// its total sizes the log once instead of doubling it.
    pub(crate) fn reserve_log(&mut self, additional: usize) {
        self.log.reserve_exact(additional);
    }

    /// Move `entries` onto the end of the log, leaving `entries` empty
    /// (shard evidence merging — see `World::absorb_evidence`).
    pub fn append_log(&mut self, entries: &mut Vec<WebLogEntry>) {
        self.log.append(entries);
    }
}

/// A third-party origin site (popular site, university, or one of our
/// intentionally-invalid HTTPS sites).
#[derive(Debug, Clone)]
pub struct OriginSite {
    /// Hostname.
    pub host: String,
    /// Server address.
    pub ip: Ipv4Addr,
    /// HTTP body served on `/`.
    pub http_body: Vec<u8>,
    /// Certificate chain presented on :443 (leaf first); empty if the site
    /// has no HTTPS. Immutable and shared: a probe that nobody intercepts
    /// records a refcount on this chain, not a copy.
    pub chain: Arc<[Certificate]>,
    /// Whether the chain validates against the public root store at world
    /// build time (precomputed ground truth used by interceptor logic; the
    /// measurement client recomputes its own verdicts).
    pub chain_valid: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use httpwire::StatusCode;

    #[test]
    fn serves_installed_route_and_logs() {
        let mut ws = WebServer::new();
        ws.put(
            "probe.example",
            "/obj/page.html",
            Response::ok("text/html", b"<html/>".to_vec()),
        );
        let r = ws.handle_ref(
            SimTime::from_millis(5),
            Ipv4Addr::new(11, 0, 0, 9),
            "Probe.Example",
            "/obj/page.html",
            Some("hola/1.0"),
        );
        assert_eq!(r.map(|r| r.status), Some(StatusCode::OK));
        assert_eq!(ws.log().len(), 1);
        assert_eq!(&*ws.log()[0].host, "probe.example");
        assert_eq!(ws.log()[0].user_agent.as_deref(), Some("hola/1.0"));
    }

    #[test]
    fn unknown_route_is_a_miss_but_still_logged() {
        let mut ws = WebServer::new();
        let r = ws.handle_ref(
            SimTime::EPOCH,
            Ipv4Addr::new(1, 1, 1, 1),
            "x",
            "/nope",
            None,
        );
        assert!(r.is_none());
        assert_eq!(ws.log().len(), 1);
    }

    #[test]
    fn log_sorted_orders_by_time() {
        let mut ws = WebServer::new();
        ws.handle_ref(
            SimTime::from_millis(50),
            Ipv4Addr::new(1, 1, 1, 1),
            "h",
            "/",
            None,
        );
        ws.log.push(WebLogEntry {
            at: SimTime::from_millis(10),
            src: Ipv4Addr::new(2, 2, 2, 2),
            host: "h".into(),
            path: "/".into(),
            user_agent: None,
        });
        let sorted = ws.log_sorted();
        assert!(sorted[0].at < sorted[1].at);
    }

    #[test]
    fn host_filter() {
        let mut ws = WebServer::new();
        ws.handle_ref(
            SimTime::EPOCH,
            Ipv4Addr::new(1, 1, 1, 1),
            "a.example",
            "/",
            None,
        );
        ws.handle_ref(
            SimTime::EPOCH,
            Ipv4Addr::new(1, 1, 1, 1),
            "b.example",
            "/",
            None,
        );
        assert_eq!(ws.requests_for_host("a.example").count(), 1);
    }

    #[test]
    fn remove_route() {
        let mut ws = WebServer::new();
        ws.put("h", "/x", Response::ok("text/plain", b"y".to_vec()));
        assert!(ws.remove("h", "/x"));
        assert!(!ws.remove("h", "/x"));
        let r = ws.handle_ref(SimTime::EPOCH, Ipv4Addr::new(1, 1, 1, 1), "h", "/x", None);
        assert!(r.is_none());
        assert_eq!(ws.log().len(), 1);
    }
}
