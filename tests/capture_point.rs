//! Capture-point equivalence: capturing at the client vantage (the
//! default for worlds built with tracing on) must record exactly the
//! client-side slice of what a capture at every node records, and must
//! leave every result unchanged.
//!
//! The campaign is small and Dataset-B-like, with a lossy access
//! network (so clients see retransmitted segments) and an overloaded
//! FE behind admission control (so shed queries come back as error
//! stubs). It runs once under the default capture and once under
//! [`Capture::All`], set from inside the design before any event runs.

mod common;

use cdnsim::{LoadModel, QueryOutcome, ServiceConfig, ServiceWorld};
use common::{burst_design, execute_raw};
use emulator::dataset_b::DatasetB;
use emulator::{Campaign, Collected, Design, Scenario, StreamReport};
use nettopo::path::PathProfile;
use std::collections::HashSet;
use tcpsim::{Capture, Marker, PktDir, PktEvent, PktKind};

const SEED: u64 = 42;

/// `design` with the world's capture point overridden first.
fn captured_at(design: Design, capture: Capture) -> Design {
    Design::custom(move |sim| {
        sim.net().trace_mut().set_capture(capture);
        design.schedule(sim);
    })
}

/// The campaign under the default capture (`None`) or an override.
fn campaign(capture: Option<Capture>) -> Campaign {
    let mut lossy = PathProfile::wireless_access();
    lossy.loss = 0.03;
    let cells = [
        (
            "b/lossy-access",
            ServiceConfig::google_like(SEED).with_access_override(lossy),
            Design::DatasetB(DatasetB::against(0).with_repeats(2)),
        ),
        (
            "burst/shed",
            ServiceConfig::google_like(SEED)
                .with_load_model(LoadModel {
                    fe_capacity: 2,
                    be_capacity: 4,
                    max_slowdown: 10.0,
                })
                .with_admission_control(1),
            burst_design(8),
        ),
    ];
    let mut c = Campaign::new(Scenario::with_size(SEED, 10, 60));
    for (label, cfg, design) in cells {
        let design = match capture {
            Some(capture) => captured_at(design, capture),
            None => design,
        };
        c.push(label, cfg, design);
    }
    c
}

fn client_events(cq: &cdnsim::CompletedQuery) -> Vec<PktEvent> {
    let client = ServiceWorld::client_node(cq.client);
    cq.trace
        .iter()
        .filter(|e| e.node == client)
        .cloned()
        .collect()
}

/// Asserts the per-query and per-run equivalence of the two captures.
fn assert_equivalent(vantage: &StreamReport<Collected>, all: &StreamReport<Collected>) {
    assert_eq!(vantage.to_tsv(), all.to_tsv(), "campaign TSV must not move");
    for label in ["b/lossy-access", "burst/shed"] {
        let (v, a) = (vantage.output(label), all.output(label));
        assert_eq!(v.queries.len(), a.queries.len());
        for (qv, qa) in v.queries.iter().zip(&a.queries) {
            assert_eq!(qv.qid, qa.qid);
            assert_eq!(qv.params, qa.params, "{label} qid {}", qv.qid);
        }
        assert_eq!(v.raw.len(), a.raw.len());
        for (cv, ca) in v.raw.iter().zip(&a.raw) {
            assert_eq!(cv.qid, ca.qid);
            let client = ServiceWorld::client_node(cv.client);
            assert!(
                cv.trace.iter().all(|e| e.node == client),
                "{label} qid {}: the vantage capture recorded a server-side event",
                cv.qid
            );
            assert_eq!(
                cv.trace,
                client_events(ca),
                "{label} qid {}: vantage trace differs from the filtered All trace",
                cv.qid
            );
        }
    }
}

#[test]
fn vantage_capture_is_the_client_slice_of_the_full_capture() {
    for threads in [1, 4] {
        let vantage = execute_raw(&campaign(None), threads);
        let all = execute_raw(&campaign(Some(Capture::All)), threads);
        assert_equivalent(&vantage, &all);

        // The override took effect: the full capture holds FE/BE events.
        let raw = &all.output("b/lossy-access").raw;
        assert!(raw
            .iter()
            .any(|cq| cq.trace.len() > client_events(cq).len()));

        // The campaign exercised the paths that matter: clients saw
        // retransmitted payload on the lossy access network ...
        let retransmitted = vantage.output("b/lossy-access").raw.iter().any(|cq| {
            let mut seen = HashSet::new();
            cq.trace
                .iter()
                .filter(|e| e.dir == PktDir::Rx && e.kind == PktKind::Data && e.len > 0)
                .any(|e| !seen.insert((e.seq, e.len)))
        });
        assert!(retransmitted, "no client saw a retransmitted segment");
        // ... and shed queries came back as error stubs.
        let shed = &vantage.output("burst/shed").raw;
        assert!(shed.iter().any(|cq| {
            matches!(cq.outcome, QueryOutcome::Shed { .. })
                && cq.trace.iter().any(|e| {
                    e.dir == PktDir::Rx && e.meta.iter().any(|m| m.marker == Marker::Error)
                })
        }));
    }
}
