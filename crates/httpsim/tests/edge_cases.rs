//! Edge cases in message sizing and receive-progress accounting.
//!
//! The serving world detects message completion purely from
//! per-marker delivered totals, so the invariants pinned here — no
//! marker bleeding across segment boundaries, exact totals for sub-MSS
//! and multi-segment portions, zero-expectation semantics — are load
//! bearing.

use httpsim::{RecvProgress, RequestSpec, ResponsePlan};
use tcpsim::{App, ConnId, DeliveredSpan, End, Marker, Net, NodeId, PathParams, Sim, TcpOptions};

// ---------- ResponsePlan construction edges ----------

#[test]
#[should_panic(expected = "static_bytes > 0")]
fn zero_length_static_portion_is_rejected() {
    // A zero-byte portion would make "expected bytes arrived" trivially
    // true before anything was sent; the constructor forbids it and the
    // world models an absent portion with a 1-byte placeholder instead.
    ResponsePlan::new(0, 1, 25_000, 5_000);
}

#[test]
#[should_panic(expected = "static_bytes > 0")]
fn zero_length_dynamic_portion_is_rejected() {
    ResponsePlan::new(8_000, 1, 0, 5_000);
}

#[test]
fn one_byte_portions_are_valid() {
    // The placeholder plans the world records for shed/degraded queries
    // sit exactly on this boundary.
    let p = ResponsePlan::new(1, 1, 1, 5_000);
    assert_eq!(p.total_bytes(), 2);
}

// ---------- RecvProgress zero-expectation semantics ----------

#[test]
fn zero_expectation_is_complete_on_every_class() {
    // When a portion is absent (static served from the FE cache, so
    // nothing rides the BE response), completion checks degenerate to
    // expecting zero bytes — which must hold immediately, on a fresh
    // tracker, for every marker class.
    let p = RecvProgress::new();
    for m in [
        Marker::Request,
        Marker::Static,
        Marker::Dynamic,
        Marker::BeQuery,
        Marker::BeResponse,
        Marker::Error,
        Marker::Other,
    ] {
        assert!(p.complete(m, 0), "zero expectation must hold for {m:?}");
        assert_eq!(p.bytes(m), 0);
    }
    assert_eq!(p.total(), 0);
}

#[test]
fn classes_accumulate_independently() {
    let mut p = RecvProgress::new();
    let span = |len: u32, marker: Marker| DeliveredSpan {
        offset: 0,
        len,
        marker,
        content: 0,
    };
    p.absorb(&[span(10, Marker::Static), span(20, Marker::Dynamic)]);
    assert!(p.complete(Marker::Static, 10));
    // Progress on one class must never satisfy another class's check.
    assert!(!p.complete(Marker::Request, 1));
    assert!(!p.complete(Marker::BeResponse, 1));
    p.reset();
    assert!(!p.complete(Marker::Static, 10), "reset must clear classes");
}

// ---------- End-to-end segment-boundary accounting ----------

/// Client app that records every delivered span and feeds a
/// [`RecvProgress`], mirroring the legacy FE/client receive path.
struct SplitClient {
    req: RequestSpec,
    plan: ResponsePlan,
    srv_progress: RecvProgress,
    progress: RecvProgress,
    spans: Vec<DeliveredSpan>,
    premature_completions: usize,
    replied: bool,
}

impl SplitClient {
    fn new(req: RequestSpec, plan: ResponsePlan) -> SplitClient {
        SplitClient {
            req,
            plan,
            srv_progress: RecvProgress::new(),
            progress: RecvProgress::new(),
            spans: Vec::new(),
            premature_completions: 0,
            replied: false,
        }
    }
}

impl App for SplitClient {
    fn on_established(&mut self, net: &mut Net, conn: ConnId, end: End) {
        if end == End::A {
            self.req.send(net, conn, end);
        }
    }

    fn on_data(&mut self, net: &mut Net, conn: ConnId, end: End, spans: &[DeliveredSpan]) {
        match end {
            End::B => {
                // Server: once the request is in, answer with the split
                // response back to back — static then dynamic in one
                // event, so their boundary lands wherever segmentation
                // puts it.
                self.srv_progress.absorb(spans);
                if self.srv_progress.complete(Marker::Request, self.req.bytes) && !self.replied {
                    self.replied = true;
                    self.plan.send_static(net, conn, End::B);
                    self.plan.send_dynamic(net, conn, End::B);
                    net.close(conn, End::B);
                }
            }
            End::A => {
                for s in spans {
                    self.spans.push(*s);
                }
                self.progress.absorb(spans);
                // A completion check must never fire early.
                if self.progress.bytes(Marker::Static) > 0
                    && !self
                        .progress
                        .complete(Marker::Static, self.plan.static_bytes)
                    && self.progress.bytes(Marker::Dynamic) > 0
                {
                    self.premature_completions += 1;
                }
            }
        }
    }

    fn on_fin(&mut self, net: &mut Net, conn: ConnId, end: End) {
        if end == End::A {
            net.close(conn, End::A);
        }
    }
}

fn run_split(req: RequestSpec, plan: ResponsePlan) -> SplitClient {
    let app = SplitClient::new(req, plan);
    let mut sim = Sim::new(11, app);
    sim.net().open(
        NodeId(1),
        NodeId(2),
        PathParams::ideal(30.0),
        TcpOptions::default(),
        TcpOptions::default(),
        1,
    );
    sim.run();
    sim.into_app()
}

/// Shared postconditions: exact per-marker totals, no marker bleeding
/// within any span, in-order contiguous delivery.
fn check_accounting(c: &SplitClient) {
    assert_eq!(c.srv_progress.bytes(Marker::Request), c.req.bytes);
    assert_eq!(c.progress.bytes(Marker::Static), c.plan.static_bytes);
    assert_eq!(c.progress.bytes(Marker::Dynamic), c.plan.dynamic_bytes);
    assert_eq!(
        c.progress.total(),
        c.plan.total_bytes(),
        "response bytes must be conserved across classes"
    );
    // Spans arrive contiguously and each carries exactly one marker, so
    // the static→dynamic transition happens once, at the exact byte
    // where the portions meet.
    let mut expected_offset = 0u64;
    let mut switched = false;
    for s in &c.spans {
        assert_eq!(s.offset, expected_offset, "delivery must be gapless");
        expected_offset += s.len as u64;
        match s.marker {
            Marker::Static => assert!(!switched, "static span after the dynamic portion began"),
            Marker::Dynamic => switched = true,
            other => panic!("unexpected marker {other:?} in the response stream"),
        }
    }
    assert!(switched, "the dynamic portion must arrive");
    assert_eq!(expected_offset, c.plan.total_bytes());
    assert_eq!(c.premature_completions, 0);
}

#[test]
fn single_segment_response_per_portion() {
    // Both portions fit one MSS: one span each, still two distinct
    // marker classes, boundary exactly at static_bytes.
    let c = run_split(
        RequestSpec::for_query_len(10, 2_000),
        ResponsePlan::new(300, 1, 200, 5_000),
    );
    check_accounting(&c);
    let response_spans: Vec<_> = c.spans.iter().collect();
    assert_eq!(
        response_spans.len(),
        2,
        "sub-MSS portions must arrive as exactly one span each"
    );
    assert_eq!(response_spans[0].len as u64, 300);
    assert_eq!(response_spans[1].len as u64, 200);
}

#[test]
fn portion_boundary_inside_a_window_round() {
    // Static is deliberately MSS-unaligned (1460 + 1 bytes) so the
    // static portion ends mid-window: segmentation must cut a 1-byte
    // tail segment rather than bleed dynamic bytes into a static span.
    let c = run_split(
        RequestSpec::for_query_len(10, 2_000),
        ResponsePlan::new(1_461, 1, 2_900, 5_000),
    );
    check_accounting(&c);
    assert!(
        c.spans
            .iter()
            .any(|s| s.marker == Marker::Static && s.len == 1),
        "the unaligned static tail must arrive as its own 1-byte span"
    );
}

#[test]
fn multi_window_response_completes_only_at_the_last_segment() {
    // Portions far beyond the initial window (4 segs × 1460 B): the
    // static portion needs several congestion-window rounds, so
    // completion must track exact byte counts across many events.
    let c = run_split(
        RequestSpec::for_query_len(10, 2_000),
        ResponsePlan::new(20_000, 1, 30_000, 5_000),
    );
    check_accounting(&c);
    // Static must fully precede dynamic in the byte stream: every byte
    // before the static/dynamic boundary carries the static marker.
    let static_prefix: u64 = c
        .spans
        .iter()
        .take_while(|s| s.marker == Marker::Static)
        .map(|s| s.len as u64)
        .sum();
    assert_eq!(
        static_prefix, 20_000,
        "the static prefix must end exactly at the portion boundary"
    );
    assert!(
        c.spans.len() > 10,
        "a 50 kB response must span many segments (got {})",
        c.spans.len()
    );
}

#[test]
fn request_size_model_rounds_up_encoding() {
    // ceil(chars × 1.2): check the boundary where rounding matters.
    assert_eq!(RequestSpec::for_query_len(0, 2_000).bytes, 310);
    assert_eq!(RequestSpec::for_query_len(1, 2_000).bytes, 310 + 2); // ceil(1.2) = 2
    assert_eq!(RequestSpec::for_query_len(5, 2_000).bytes, 310 + 6);
    assert_eq!(RequestSpec::for_query_len(10, 2_000).bytes, 310 + 12);
}
