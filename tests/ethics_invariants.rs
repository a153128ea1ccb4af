//! The §3.4 commitments, checked as system-level invariants: probe traffic
//! only ever targets study-controlled or allowlisted hosts, and no single
//! node serves more than the per-node byte cap.

use tft::prelude::*;
use tft::tft_core::ethics::{DomainAllowlist, PER_NODE_BYTE_CAP};

#[test]
fn all_dns_queries_target_study_domains_or_allowlisted_sites() {
    let mut built = build(&paper_spec(0.004, 0xE7C5));
    let cfg = StudyConfig::scaled(0.004);
    let _ = run_study(&mut built.world, &cfg);

    let mut allow = DomainAllowlist::new();
    allow.allow_suffix(&built.world.auth_apex().to_string());
    for country in built.world.rankings.countries().collect::<Vec<_>>() {
        let sites: Vec<String> = built
            .world
            .rankings
            .top_sites(country, 20)
            .map(|s| s.to_vec())
            .unwrap_or_default();
        for s in sites {
            allow.allow_exact(&s);
        }
    }
    for u in built.world.rankings.universities().to_vec() {
        allow.allow_exact(&u);
    }

    // Every query our authoritative server ever saw is for a study domain.
    for q in built.world.auth_server().log() {
        assert!(
            allow.permits(&q.qname.to_string()),
            "query for non-study domain {}",
            q.qname
        );
    }
    // Every web request is for a study domain (hosts on our web server are
    // all under the apex).
    for e in built.world.web_server().log() {
        assert!(
            allow.permits(&e.host),
            "web request for non-study host {}",
            e.host
        );
    }
}

#[test]
fn http_experiment_stays_under_per_node_cap() {
    // The four objects total ~309 KB; with the identification fetch a node
    // measured in both phases stays well under 1 MB. Verify the strongest
    // observable proxy: total billing never exceeds nodes × cap.
    let mut built = build(&paper_spec(0.004, 0xCAB));
    let cfg = StudyConfig::scaled(0.004);
    let data = tft::tft_core::http_exp::run(&mut built.world, &cfg);
    let billed = built.world.bytes_billed(&cfg.customer);
    let measured: std::collections::HashSet<_> = data.observations.iter().map(|o| o.zid).collect();
    assert!(
        billed <= (measured.len() as u64 + data.samples_issued as u64) * PER_NODE_BYTE_CAP,
        "billing {billed} exceeds cap envelope"
    );
    // Per-observation check: no node's recorded transfers exceed the cap.
    for obs in &data.observations {
        let bytes: usize = obs.results.iter().map(|r| r.received_len).sum();
        assert!(
            bytes as u64 <= PER_NODE_BYTE_CAP,
            "node {} received {bytes} bytes",
            obs.zid
        );
    }
}

#[test]
fn allowlist_blocks_sensitive_domains() {
    let mut allow = DomainAllowlist::new();
    allow.allow_suffix("tft-probe.example");
    for host in [
        "bank.example",
        "health-records.example",
        "tft-probe.example.evil.example",
    ] {
        assert!(!allow.permits(host), "{host} must not be permitted");
    }
}
