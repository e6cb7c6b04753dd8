//! Quickstart: the sim-socket facade end to end, then the full service
//! worlds on the async engine.
//!
//! Part 1 drives `tcpsim::sock` directly — an FE task binds a listener,
//! a client task connects and awaits the split static/dynamic response —
//! and checks the client-observed `Tdelta` (t5 − t4) against the model
//! timeline: with both portions inside one congestion window, the gap
//! between last-static and last-dynamic bytes is exactly the FE's fetch
//! hold time.
//!
//! Part 2 issues one search query against each service archetype on the
//! async facade engine and prints the paper's measurement vector next to
//! the simulator's ground truth, verifying the legacy engine agrees.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use cdnsim::EngineKind;
use fecdn::prelude::*;
use tcpsim::sock::{SimTcpListener, SimTcpStream, SockApp};
use tcpsim::{NodeId, PathParams, TcpOptions};

/// Facade demo parameters: one ideal 40 ms path, a 30 ms FE hold while
/// the dynamic portion is "fetched", and portions small enough that each
/// arrives in a single flight.
const RTT_MS: f64 = 40.0;
const FETCH: SimDuration = SimDuration::from_millis(30);
const REQ_BYTES: u64 = 700;
const STATIC_BYTES: u64 = 4_000;
const DYNAMIC_BYTES: u64 = 6_000;

/// Part 1: raw socket-facade round trip, with the `Tdelta` assertion.
fn facade_demo() {
    let client_node = NodeId(1);
    let fe_node = NodeId(1_000_000);
    let mut sim = Sim::new(7, SockApp::new());
    let rt = sim.with(|app, _| app.host.rt());

    // FE task: bind, accept one connection, serve the split response —
    // static immediately, dynamic after the fetch hold.
    let server_rt = rt.clone();
    sim.with(|app, net| {
        app.spawn_now(net, async move {
            let listener = SimTcpListener::bind(&server_rt, fe_node);
            let (mut conn, _peer) = listener.accept().await;
            conn.wait_marker_total(Marker::Request, REQ_BYTES).await;
            conn.write(STATIC_BYTES, Marker::Static, 11);
            server_rt.sleep(FETCH).await;
            conn.write(DYNAMIC_BYTES, Marker::Dynamic, 22);
            conn.shutdown();
        });
    });

    // Client task: connect, send the request, time the two portions.
    let times: Rc<RefCell<Option<(SimTime, SimTime)>>> = Rc::new(RefCell::new(None));
    let client_rt = rt.clone();
    let client_times = Rc::clone(&times);
    sim.with(|app, net| {
        app.spawn_now(net, async move {
            let mut conn = SimTcpStream::connect(
                &client_rt,
                client_node,
                fe_node,
                PathParams::ideal(RTT_MS),
                TcpOptions::default().with_initial_window(12),
                TcpOptions::default().with_initial_window(12),
                1,
            )
            .await;
            conn.write(REQ_BYTES, Marker::Request, 1);
            conn.wait_marker_total(Marker::Static, STATIC_BYTES).await;
            let t4 = client_rt.now();
            conn.wait_marker_total(Marker::Dynamic, DYNAMIC_BYTES).await;
            let t5 = client_rt.now();
            conn.fin().await;
            *client_times.borrow_mut() = Some((t4, t5));
        });
    });

    sim.run();
    let (t4, t5) = times.borrow().expect("client task must finish");
    let t_delta_ms = t5.saturating_since(t4).as_millis_f64();

    // Model timeline: the request arrives at the FE 1.5·RTT after the
    // SYN; the static portion reaches the client at 2·RTT, the dynamic
    // portion at 2·RTT + fetch (each fits one flight on an ideal path).
    // So Tdelta = t5 − t4 collapses to the fetch hold exactly.
    let model_delta_ms = FETCH.as_millis_f64();
    println!("== socket facade (one FE, one client, ideal path) ==");
    println!(
        "  static done  (t4)                             {:>8.2} ms",
        { t4.as_millis_f64() }
    );
    println!(
        "  dynamic done (t5)                             {:>8.2} ms",
        { t5.as_millis_f64() }
    );
    println!(
        "  Tdelta   (t5 − t4)                            {t_delta_ms:>8.2} ms  (model: {model_delta_ms:.2} ms)"
    );
    // Sub-ms tolerance: per-segment serialization adds microseconds to
    // each flight; the window is sized so neither portion needs a
    // second RTT round.
    assert!(
        (t_delta_ms - model_delta_ms).abs() < 0.5,
        "Tdelta {t_delta_ms} ms must match the model's fetch hold {model_delta_ms} ms"
    );
    println!();
}

/// Part 2: one query against a full service world. Runs on the given
/// engine; returns the processed measurement vector for cross-checks.
fn one_query(
    name: Option<&str>,
    scenario: &Scenario,
    cfg: ServiceConfig,
    engine: EngineKind,
) -> ProcessedQuery {
    let world = ServiceWorld::new(
        cfg.with_engine(engine),
        scenario.vantages.clone(),
        scenario.corpus.clone(),
    );
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
    let Some(name) = name else { return q };
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
    q
}

fn main() {
    facade_demo();

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
        let on_facade = one_query(Some(name), &scenario, cfg.clone(), EngineKind::AsyncFacade);
        // The legacy engine is the equivalence oracle: the measurement
        // vector must match to the bit.
        let on_legacy = one_query(None, &scenario, cfg, EngineKind::Legacy);
        assert_eq!(
            format!("{:?}", on_facade.params),
            format!("{:?}", on_legacy.params),
            "{name}: async facade and legacy engines disagree"
        );
    }
    println!("The directly unobservable FE↔BE fetch time is bracketed by the");
    println!("two client-side observables — the paper's Eq. (1) at work.");
    println!("(Both worlds above ran on the async sim-socket engine; the");
    println!("legacy engine reproduced the same measurements bit-for-bit.)");
}
