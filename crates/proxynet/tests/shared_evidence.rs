//! Evidence shares its strings: a probe name is allocated once, by whoever
//! provisions it, and every log entry that names it holds a refcount; a
//! monitor refetch shares the request it repeats; no world forked from a
//! base shares a per-request string with the base or a sibling. The log
//! entries still encode to the same JSON as when they owned their strings.

use dnswire::{DnsName, QType, QueryLogEntry};
use httpwire::{Response, Uri};
use middlebox::{monitor::profiles, MonitorEntity, SourcePattern};
use netsim::SimTime;
use proxynet::{NodeId, UsernameOptions, WebLogEntry, World};
use std::net::Ipv4Addr;
use std::sync::Arc;
use substrate::json::{self, ToJson};

fn smoke_world() -> World {
    worldgen::build(&worldgen::smoke_spec(7)).world
}

/// Provision `label` under the probe apex, routed under the name's text.
fn provision(world: &mut World, label: &str) -> DnsName {
    let name = world.auth_apex().child(label).expect("valid label");
    let web_ip = world.web_ip();
    world
        .auth_server_mut()
        .zone_mut()
        .add_a(name.clone(), web_ip);
    world.web_server_mut().put_name(
        &name,
        "/",
        Response::ok("text/html", b"<html>probe</html>".to_vec()),
    );
    name
}

/// One proxied GET of `http://{name}/`, resolved at the exit node.
fn fetch(world: &mut World, name: &DnsName) {
    let opts = UsernameOptions::new("lab").session(1).dns_remote();
    world
        .proxy_get(&opts, &Uri::http(name.as_str(), "/"))
        .expect("the probe fetch succeeds");
}

#[test]
fn a_probe_names_evidence_is_one_allocation() {
    let mut world = smoke_world();
    let monitor_src = Ipv4Addr::new(203, 0, 113, 99);
    let monitor = world.add_monitor(MonitorEntity {
        name: "TrendMicro".into(),
        source_ips: vec![monitor_src],
        source_pattern: SourcePattern::AnyFromPool,
        model: profiles::trend_micro(),
        user_agent: "TMWRS/5.0".into(),
    });
    for id in 0..world.node_count() as u32 {
        world.node_mut(NodeId(id)).software.monitors.push(monitor);
    }
    let name = provision(&mut world, "share-1");
    fetch(&mut world, &name);

    let request = world.web_server().log()[0].clone();
    assert!(Arc::ptr_eq(&request.host, name.as_arc()), "web-log host");
    let queries: Vec<&QueryLogEntry> = world.auth_server().queries_for(&name).collect();
    assert!(!queries.is_empty(), "the name was resolved");
    for q in queries {
        assert!(
            Arc::ptr_eq(q.qname.as_arc(), name.as_arc()),
            "auth-log qname"
        );
    }

    // The refetches fire after the name and its route are withdrawn, as
    // they are in a study, and still share the request's strings.
    world.auth_server_mut().zone_mut().remove(&name);
    world.web_server_mut().remove(name.as_str(), "/");
    world.run_to_quiescence();
    let refetches: Vec<&WebLogEntry> = world
        .web_server()
        .log()
        .iter()
        .filter(|e| e.src == monitor_src)
        .collect();
    assert_eq!(refetches.len(), 2, "TrendMicro refetches twice");
    for r in &refetches {
        assert!(Arc::ptr_eq(&r.host, &request.host), "refetch host");
        assert!(Arc::ptr_eq(&r.path, &request.path), "refetch path");
    }
    let (a, b) = (&refetches[0].user_agent, &refetches[1].user_agent);
    assert_eq!(a.as_deref(), Some("TMWRS/5.0"));
    assert!(
        Arc::ptr_eq(a.as_ref().unwrap(), b.as_ref().unwrap()),
        "one user agent"
    );
}

#[test]
fn forked_worlds_share_no_string_with_their_base_or_each_other() {
    // The live world has served a request, so its web server has interned
    // the path and the user agent every probe repeats.
    let mut live = smoke_world();
    let name = provision(&mut live, "live");
    fetch(&mut live, &name);
    let base = live.clone_without_evidence();
    let shards: Vec<World> = (0..2)
        .map(|k| {
            let mut shard = base.clone();
            let name = provision(&mut shard, &format!("shard-{k}"));
            fetch(&mut shard, &name);
            shard
        })
        .collect();

    let logs: Vec<&[WebLogEntry]> = std::iter::once(&live)
        .chain(&shards)
        .map(|w| w.web_server().log())
        .collect();
    for (i, a) in logs.iter().enumerate() {
        for b in &logs[i + 1..] {
            for (x, y) in a.iter().flat_map(|x| b.iter().map(move |y| (x, y))) {
                assert_eq!(
                    (&*x.path, x.user_agent.as_deref()),
                    (&*y.path, y.user_agent.as_deref())
                );
                assert!(!Arc::ptr_eq(&x.host, &y.host));
                assert!(!Arc::ptr_eq(&x.path, &y.path));
                assert!(!Arc::ptr_eq(
                    x.user_agent.as_ref().unwrap(),
                    y.user_agent.as_ref().unwrap()
                ));
            }
        }
    }
}

/// The canonical JSON these entries rendered to while they owned their
/// strings, pinned as literals.
#[test]
fn log_entries_encode_as_they_did_with_owned_strings() {
    let with_ua = WebLogEntry {
        at: SimTime::from_millis(86_400_123),
        src: Ipv4Addr::new(11, 0, 0, 9),
        host: "s3-m17.tft-probe.example".into(),
        path: "/".into(),
        user_agent: Some("Hola/1.108".into()),
    };
    let without_ua = WebLogEntry {
        at: SimTime::from_millis(5),
        src: Ipv4Addr::new(203, 0, 113, 99),
        host: "objects.tft-probe.example".into(),
        path: "/obj/page.html".into(),
        user_agent: None,
    };
    let query = QueryLogEntry {
        at: SimTime::from_millis(4_321),
        src: Ipv4Addr::new(74, 125, 3, 9),
        qname: DnsName::parse("s0-d2-41.tft-probe.example").unwrap(),
        qtype: QType::A,
    };
    let goldens = [
        (
            &with_ua,
            r#"{"at":86400123,"host":"s3-m17.tft-probe.example","path":"/","src":"11.0.0.9","user_agent":"Hola/1.108"}"#,
        ),
        (
            &without_ua,
            r#"{"at":5,"host":"objects.tft-probe.example","path":"/obj/page.html","src":"203.0.113.99","user_agent":null}"#,
        ),
    ];
    for (entry, golden) in goldens {
        assert_eq!(entry.to_json().render_canonical(), golden);
        assert_eq!(&json::from_str::<WebLogEntry>(golden).unwrap(), entry);
    }
    let golden = r#"{"at":4321,"qname":"s0-d2-41.tft-probe.example","qtype":1,"src":"74.125.3.9"}"#;
    assert_eq!(query.to_json().render_canonical(), golden);
    assert_eq!(json::from_str::<QueryLogEntry>(golden).unwrap(), query);
}
