//! Quickstart: one search query against each service archetype.
//!
//! Builds a small service world per archetype, issues one query from
//! vantage 0 to its default FE, and prints the paper's measurement
//! vector (`Tstatic`, `Tdynamic`, `Tdelta`) next to the simulator's
//! ground truth, including whether the true FE→BE fetch time lies in
//! the eq. 1 bracket `Tdelta ≤ Tfetch ≤ Tdynamic` built from
//! client-side observables alone.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use fecdn::prelude::*;

/// One query against a full service world, printed with its ground
/// truth.
fn one_query(name: &str, scenario: &Scenario, cfg: ServiceConfig) {
    let world = ServiceWorld::new(cfg, scenario.vantages.clone(), scenario.corpus.clone());
    let mut sim = Sim::new(scenario.seed, world);
    sim.net()
        .trace_mut()
        .set_capture(ServiceWorld::client_capture());
    sim.with(|w, net| {
        w.schedule_query(
            net,
            SimDuration::from_millis(1),
            QuerySpec {
                client: 0,
                keyword: 3,
                fixed_fe: None,
                instant_followup: false,
            },
        );
    });
    let mut queries = run_collect(&mut sim, &Classifier::ByMarker);
    let q = queries.remove(0);
    println!("== {name} ==");
    println!(
        "  vantage 0 → default FE, RTT (handshake est.)  {:>8.2} ms",
        q.params.rtt_ms
    );
    println!(
        "  Tstatic  (t4 − t2)                            {:>8.2} ms",
        q.params.t_static_ms
    );
    println!(
        "  Tdynamic (t5 − t2)                            {:>8.2} ms",
        q.params.t_dynamic_ms
    );
    println!(
        "  Tdelta   (t5 − t4)                            {:>8.2} ms",
        q.params.t_delta_ms
    );
    println!(
        "  overall  (te − tb)                            {:>8.2} ms",
        q.params.overall_ms
    );
    let bounds = FetchBounds::from_params(&q.params);
    println!(
        "  fetch-time bracket (eq. 1)              [{:>7.2}, {:>7.2}] ms",
        bounds.lower_ms, bounds.upper_ms
    );
    if let Some(truth) = q.true_fetch_ms {
        println!(
            "  true fetch time (simulator ground truth)      {:>8.2} ms  → in bracket: {}",
            truth,
            bounds.contains(truth, 12.0)
        );
    }
    println!(
        "  true BE processing time                        {:>8.2} ms",
        q.proc_ms
    );
    println!();
}

fn main() {
    let scenario = Scenario::small(42);
    for (name, cfg) in [
        (
            "bing-like (Akamai FE, public FE↔BE transit)",
            ServiceConfig::bing_like(scenario.seed),
        ),
        (
            "google-like (own FE, private WAN)",
            ServiceConfig::google_like(scenario.seed),
        ),
    ] {
        one_query(name, &scenario, cfg);
    }
    println!("The directly unobservable FE↔BE fetch time is bracketed by the");
    println!("two client-side observables — the paper's Eq. (1) at work.");
}
