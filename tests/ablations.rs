//! Ablations: remove one design ingredient at a time and show the
//! methodology degrade in the predicted way. These pin down *why* each
//! mechanism exists.

use tft::netsim::{FaultCampaign, FaultInjector, SimDuration};
use tft::prelude::*;
use tft::tft_core::dns_exp::{self, DnsExpOptions};
use tft::tft_core::obs::DnsOutcome;

fn small_world(seed: u64) -> BuiltWorld {
    build(&paper_spec(0.004, seed))
}

fn cfg() -> StudyConfig {
    StudyConfig::scaled(0.004)
}

/// Without session stickiness, d₁ and d₂ land on different exit nodes and
/// the zID cross-check discards the pair: the experiment collapses.
#[test]
fn ablation_session_stickiness() {
    let mut with = small_world(11);
    let with_data = dns_exp::run(&mut with.world, &cfg());
    let with_yield = with_data.observations.len() as f64
        / (with_data.observations.len() + with_data.discarded).max(1) as f64;

    let mut without = small_world(11);
    without.world.set_session_ttl(SimDuration::ZERO);
    let without_data = dns_exp::run(&mut without.world, &cfg());
    let without_yield = without_data.observations.len() as f64
        / (without_data.observations.len() + without_data.discarded).max(1) as f64;

    assert!(with_yield > 0.8, "with sessions: yield {with_yield:.3}");
    assert!(
        without_yield < with_yield / 5.0,
        "without sessions the pair yield should collapse: {without_yield:.3} vs {with_yield:.3}"
    );
}

/// Without retries, residential loss eats a large share of probes; with
/// the service's 5 attempts nearly everything completes.
#[test]
fn ablation_retries_under_loss() {
    let run = |attempts: usize| -> f64 {
        let mut built = small_world(12);
        built
            .world
            .set_fault_campaign(FaultCampaign::uniform(FaultInjector::lossy(0.20)));
        built.world.set_max_attempts(attempts);
        let apex = built.world.auth_apex().clone();
        let host = apex.child("retry-ablation").expect("valid").to_string();
        let web_ip = built.world.web_ip();
        built
            .world
            .auth_server_mut()
            .zone_mut()
            .add_a(apex.child("retry-ablation").expect("valid"), web_ip);
        built.world.web_server_mut().put(
            &host,
            "/",
            tft::httpwire::Response::ok("text/html", b"ok".to_vec()),
        );
        let n = 400;
        let ok = (0..n)
            .filter(|i| {
                let opts = UsernameOptions::new("ablate").session(*i);
                built.world.proxy_get(&opts, &Uri::http(&host, "/")).is_ok()
            })
            .count();
        ok as f64 / n as f64
    };
    let with_retries = run(5);
    let without = run(1);
    assert!(with_retries > 0.98, "5 attempts: {with_retries:.3}");
    assert!(without < 0.90, "1 attempt under 20% loss: {without:.3}");
    assert!(with_retries > without);
}

/// With the naive /16 allow-predicate, every Google-DNS node resolves d₂
/// and is misclassified as hijacked — the footnote-8 trap, quantified.
#[test]
fn ablation_d2_predicate_width() {
    let hijack_rate = |naive: bool| -> (f64, usize) {
        let mut built = small_world(13);
        let data = dns_exp::run_with(
            &mut built.world,
            &cfg(),
            DnsExpOptions {
                naive_google_predicate: naive,
            },
        );
        let hijacked = data
            .observations
            .iter()
            .filter(|o| matches!(o.outcome, DnsOutcome::Hijacked { .. }))
            .count();
        (
            hijacked as f64 / data.observations.len().max(1) as f64,
            data.observations.len(),
        )
    };
    let (correct, n1) = hijack_rate(false);
    let (naive, n2) = hijack_rate(true);
    assert!(n1 > 1000 && n2 > 1000);
    // The calibrated world has ~5% true hijacking and ~5% Google-DNS users;
    // the naive predicate roughly doubles the apparent rate.
    assert!(
        naive > correct + 0.02,
        "naive {naive:.4} should exceed correct {correct:.4} by the Google-user share"
    );
}
