//! Failure paths of the single-flight render: concurrent misses on one
//! key follow a single leader, and when that leader's render fails they
//! answer from the stale store or with the leader's error — never with
//! a second render, never by hanging — while the circuit breaker counts
//! one failure per render, not per request.
//!
//! A binary of its own: its renders are slow on purpose (the followers
//! must arrive while the leader is in flight), and the timing-sensitive
//! saturation tests elsewhere must not share the CPU with them.

use dcnr_core::serve::{self, RenderFaultPlan, ServeOptions};
use dcnr_core::telemetry::prometheus;
use dcnr_server::breaker::BreakerConfig;
use dcnr_server::client;
use std::sync::{Arc, Barrier};
use std::time::Duration;

const TIMEOUT: Option<Duration> = Some(Duration::from_secs(30));

fn get(server: &serve::RunningServer, target: &str) -> client::ClientResponse {
    client::get(&server.addr().to_string(), target, TIMEOUT).expect(target)
}

/// Fetches `/metrics` through the strict text-format validator.
fn validated_metrics(server: &serve::RunningServer) -> String {
    let resp = get(server, "/metrics");
    assert_eq!(resp.status, 200);
    let body = String::from_utf8(resp.body.clone()).expect("metrics are UTF-8");
    prometheus::validate(&body).expect("metrics must satisfy the strict validator");
    body
}

/// Sums the samples of `name` whose label set contains every `(k, v)`
/// pair in `labels`.
fn labeled_total(body: &str, name: &str, labels: &[(&str, &str)]) -> f64 {
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            l.split(&[' ', '{'][..])
                .next()
                .is_some_and(|metric| metric == name)
        })
        .filter(|l| {
            labels
                .iter()
                .all(|(k, v)| l.contains(&format!("{k}=\"{v}\"")))
        })
        .filter_map(|l| l.rsplit_once(' ').and_then(|(_, v)| v.parse::<f64>().ok()))
        .sum()
}

#[test]
fn followers_of_a_failing_render_answer_stale_or_with_its_error() {
    // Render attempts: 0 = fig15@A and 1 = fig15@B succeed (B evicts A
    // from the 1-entry cache and its study from the study cache); every
    // later render runs and then fails. A threshold of 2 would open a
    // breaker that counted each of the 4 requests on a key.
    let server = Arc::new(
        serve::start(&ServeOptions {
            addr: "127.0.0.1:0".into(),
            workers: 8,
            cache_entries: 1,
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_secs(60),
            },
            render_faults: RenderFaultPlan {
                rate: 1.0,
                skip: 2,
                limit: 0,
                ..RenderFaultPlan::default()
            },
            ..ServeOptions::default()
        })
        .unwrap(),
    );
    // A backbone big enough that the rebuild outlasts the clients'
    // arrival, so all of them find the leader in flight.
    let fig15_a = "/artifacts/fig15?seed=31&edges=400";
    let fresh = get(&server, fig15_a);
    assert_eq!(fresh.status, 200);
    assert_eq!(
        get(&server, "/artifacts/fig15?seed=32&edges=400").status,
        200
    );

    let burst = |target: &'static str| -> Vec<client::ClientResponse> {
        let start = Arc::new(Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (server, start) = (server.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    get(&server, target)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("every client returns"))
            .collect()
    };
    // A key with a last-known-good body: everyone is answered stale.
    for resp in burst(fig15_a) {
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("x-dcnr-stale"), Some("render-failed"));
        assert_eq!(resp.body, fresh.body);
    }
    // A key without one: everyone gets the leader's error.
    for resp in burst("/artifacts/fig16?seed=33&edges=400") {
        assert_eq!(resp.status, 500);
        assert!(
            String::from_utf8_lossy(&resp.body).contains("injected render fault"),
            "{:?}",
            String::from_utf8_lossy(&resp.body)
        );
    }

    let metrics = validated_metrics(&server);
    for artifact in ["fig15", "fig16"] {
        let label = [("artifact", artifact)];
        let total = |name| labeled_total(&metrics, name, &label);
        assert_eq!(total("dcnr_server_coalesced_total"), 3.0, "{metrics}");
        assert_eq!(total("dcnr_server_render_failures_total"), 1.0, "{metrics}");
        assert_eq!(total("dcnr_server_breaker_state"), 0.0, "{metrics}");
        assert_eq!(
            labeled_total(
                &metrics,
                "dcnr_server_breaker_transitions_total",
                &[("artifact", artifact), ("to", "open")]
            ),
            0.0,
            "one failure per render must not trip a threshold of 2"
        );
    }
    Arc::try_unwrap(server)
        .unwrap_or_else(|_| panic!("all clients joined"))
        .shutdown_and_join();
}
