//! Scheduler equivalence: the timing-wheel `EventQueue` against the
//! `HeapQueue` reference implementation.
//!
//! The wheel replaces the binary heap on every hot path, and the whole
//! determinism contract (byte-identical goldens at any thread count)
//! rests on the two engines being observationally identical: same pop
//! order, same clock, same lengths, same peeks, for *any* interleaving
//! of `schedule_at` / `schedule_in` / `pop` — including simultaneous
//! timestamps (FIFO tie-break), bucket-boundary timestamps, far-future
//! outliers (overflow parking + promotion), and spreads wide enough to
//! force multi-level cascades at wheel rollover. Keys may also be
//! reserved with `reserve_seq` and scheduled later with
//! `schedule_keyed`, the mechanism behind `LazyTimer`; the lazy timer
//! itself is checked against an eagerly scheduled one.

use proptest::prelude::*;
use simcore::time::{SimDuration, SimTime};
use simcore::{EventQueue, HeapQueue, LazyTimer, TimerPop};

/// Schedules the same payload at the same instant into both engines.
fn sched_at(wheel: &mut EventQueue<u64>, heap: &mut HeapQueue<u64>, t: SimTime, id: u64) {
    wheel.schedule_at(t, id);
    heap.schedule_at(t, id);
}

/// Pops both engines and asserts identical results and clocks.
fn pop_both(wheel: &mut EventQueue<u64>, heap: &mut HeapQueue<u64>) -> bool {
    let a = wheel.pop();
    let b = heap.pop();
    assert_eq!(a, b, "pop streams diverged");
    assert_eq!(wheel.now(), heap.now(), "clocks diverged");
    a.is_some()
}

/// Drains both engines to empty, asserting lock-step equality.
fn drain_both(wheel: &mut EventQueue<u64>, heap: &mut HeapQueue<u64>) {
    while pop_both(wheel, heap) {}
    assert!(wheel.is_empty() && heap.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random interleavings of schedules and pops across every timescale
    /// the simulator uses — sub-bucket, RTT, RTO, fault-window — plus
    /// deliberately colliding timestamps and far-future outliers.
    #[test]
    fn wheel_matches_heap_on_random_interleavings(
        ops in prop::collection::vec((0u64..8, 0u64..u64::MAX), 1..300)
    ) {
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut id = 0u64;
        for &(kind, raw) in &ops {
            match kind {
                // Pops get double weight so queues drain as well as grow.
                0 | 1 => {
                    pop_both(&mut wheel, &mut heap);
                }
                // Heavily colliding offsets: only 8 distinct values, so
                // the FIFO tie-break is exercised constantly.
                2 => {
                    let d = SimDuration::from_nanos((raw % 8) * 500_000);
                    wheel.schedule_in(d, id);
                    heap.schedule_in(d, id);
                    id += 1;
                }
                // Sub-bucket offsets (below the ~2.1 ms level-0 span).
                3 => {
                    let d = SimDuration::from_nanos(raw % 2_100_000);
                    wheel.schedule_in(d, id);
                    heap.schedule_in(d, id);
                    id += 1;
                }
                // RTT/RTO scale (level 1-2 territory).
                4 => {
                    let d = SimDuration::from_nanos(raw % 400_000_000);
                    wheel.schedule_in(d, id);
                    heap.schedule_in(d, id);
                    id += 1;
                }
                // Fault-window scale (minutes): multi-level cascades.
                5 => {
                    let d = SimDuration::from_nanos(raw % 600_000_000_000);
                    wheel.schedule_in(d, id);
                    heap.schedule_in(d, id);
                    id += 1;
                }
                // Exact bucket-boundary timestamps: multiples of the
                // 2^21 ns level-0 span, and their +/-1 neighbours.
                6 => {
                    let base = wheel.now().as_nanos();
                    let k = (base >> 21) + 1 + (raw % 64);
                    let t = ((k << 21) + (raw % 3)).saturating_sub(1).max(base);
                    sched_at(&mut wheel, &mut heap, SimTime::from_nanos(t), id);
                    id += 1;
                }
                // Far-future outliers, up to beyond the top level's
                // window: parks in the overflow, later promoted.
                _ => {
                    let t = wheel
                        .now()
                        .as_nanos()
                        .saturating_add(1u64 << (40 + (raw % 23)));
                    sched_at(&mut wheel, &mut heap, SimTime::from_nanos(t), id);
                    id += 1;
                }
            }
            assert_eq!(wheel.len(), heap.len(), "lengths diverged");
            assert_eq!(wheel.peek_time(), heap.peek_time(), "peeks diverged");
            assert_eq!(wheel.is_empty(), heap.is_empty());
        }
        drain_both(&mut wheel, &mut heap);
    }

    /// Dense simultaneous bursts: many events at exactly the same
    /// instant must pop in insertion order from both engines.
    #[test]
    fn simultaneous_bursts_stay_fifo(
        bursts in prop::collection::vec((0u64..50, 1u64..40), 1..20)
    ) {
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut id = 0u64;
        for &(slot_ms, count) in &bursts {
            let t = SimTime::from_millis(slot_ms);
            for _ in 0..count {
                // Clamp below current time is exercised deliberately in
                // release; under proptest (debug) keep times legal.
                let t = t.max(wheel.now());
                sched_at(&mut wheel, &mut heap, t, id);
                id += 1;
            }
            // Partial drain between bursts.
            for _ in 0..(count / 2) {
                pop_both(&mut wheel, &mut heap);
            }
        }
        drain_both(&mut wheel, &mut heap);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reserved seqs scheduled later, possibly many pops later and at
    /// the current instant, pop at the same place in both engines. Every
    /// payload is its own seq, so the last popped key is known and each
    /// keyed schedule stays after it, as the queue contract requires.
    #[test]
    fn reserved_keys_scheduled_later_match_heap(
        ops in prop::collection::vec((0u64..6, 0u64..u64::MAX), 1..300)
    ) {
        let mut wheel: EventQueue<u64> = EventQueue::new();
        let mut heap: HeapQueue<u64> = HeapQueue::new();
        let mut reserved: Vec<u64> = Vec::new();
        let mut last_popped: Option<u64> = None;
        for &(kind, raw) in &ops {
            match kind {
                0 | 1 => {
                    let a = wheel.pop();
                    prop_assert_eq!(a, heap.pop());
                    if let Some((_, seq)) = a {
                        last_popped = Some(seq);
                    }
                }
                // Plain schedule: takes the next seq in both engines.
                2 => {
                    let d = SimDuration::from_nanos(raw % 300_000_000);
                    let seq = wheel.reserve_seq();
                    prop_assert_eq!(seq, heap.reserve_seq());
                    let at = wheel.now() + d;
                    wheel.schedule_keyed(at, seq, seq);
                    heap.schedule_keyed(at, seq, seq);
                }
                // Reserve a seq now, schedule it later.
                3 => {
                    let seq = wheel.reserve_seq();
                    prop_assert_eq!(seq, heap.reserve_seq());
                    reserved.push(seq);
                }
                // Schedule a reserved seq: at the current instant when
                // its key is still after the last pop, else later.
                _ if !reserved.is_empty() => {
                    let seq = reserved.swap_remove((raw % reserved.len() as u64) as usize);
                    let now_ok = last_popped.is_none_or(|l| seq > l);
                    let ns = match raw % 4 {
                        0 if now_ok => 0,
                        0 | 1 => 1 + raw % 2_100_000,
                        2 => raw % 400_000_000,
                        _ => raw % 20_000_000_000,
                    };
                    let at = wheel.now() + SimDuration::from_nanos(ns);
                    wheel.schedule_keyed(at, seq, seq);
                    heap.schedule_keyed(at, seq, seq);
                }
                _ => {}
            }
            prop_assert_eq!(wheel.len(), heap.len());
            prop_assert_eq!(wheel.peek_time(), heap.peek_time());
            prop_assert_eq!(wheel.now(), heap.now());
        }
        drain_both(&mut wheel, &mut heap);
    }

    /// A `LazyTimer` fires at exactly the instants and in exactly the
    /// order an eagerly scheduled, generation-checked timer does, under
    /// random re-arms (later and earlier), disarms and background
    /// traffic — and never pops more events.
    #[test]
    fn lazy_timers_fire_where_eager_timers_do(
        ops in prop::collection::vec((0u64..4, 0u64..4, 0u64..u64::MAX), 1..200)
    ) {
        let eager = run_timer_script(&ops, false);
        let lazy = run_timer_script(&ops, true);
        prop_assert_eq!(&lazy.log, &eager.log);
        prop_assert!(lazy.pops <= eager.pops, "lazy {} > eager {} pops", lazy.pops, eager.pops);
    }
}

/// A fixed timer script exercises every `TimerPop` branch: timers fire,
/// and the lazy run pops strictly fewer events than the eager one.
#[test]
fn lazy_timer_script_fires_and_saves_pops() {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let ops: Vec<(u64, u64, u64)> = (0..400)
        .map(|_| {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let r = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
            (r % 4, (r >> 8) % 4, r >> 16)
        })
        .collect();
    let eager = run_timer_script(&ops, false);
    let lazy = run_timer_script(&ops, true);
    assert_eq!(lazy.log, eager.log);
    let fires = lazy
        .log
        .iter()
        .filter(|(_, w)| w.starts_with("timer"))
        .count();
    assert!(fires >= 10, "only {fires} timer firings");
    assert!(
        lazy.pops < eager.pops,
        "lazy {} vs eager {} pops",
        lazy.pops,
        eager.pops
    );
}

/// Queue payload of the timer script: background work item `i`, or an
/// event of timer `k` (eager: carrying its generation; lazy: its seq).
#[derive(Clone, Copy, Debug, PartialEq)]
enum Ev {
    Work(usize),
    Timer(usize, u64),
}

/// What a timer script observed: `(time, what)` for every work item and
/// every timer firing, and how many events the queue popped.
struct ScriptRun {
    log: Vec<(SimTime, String)>,
    pops: u64,
}

/// Four timers, lazy or eager. An eager timer schedules an event per
/// arm and discards superseded ones by a generation check.
struct Timers {
    lazy: bool,
    lazies: [LazyTimer; 4],
    /// Eager: (generation, armed) per timer.
    gens: [(u64, bool); 4],
}

impl Timers {
    fn arm(&mut self, q: &mut EventQueue<Ev>, k: usize, delay: SimDuration) {
        let at = q.now() + delay;
        if self.lazy {
            let seq = q.reserve_seq();
            if self.lazies[k].arm(at, seq) {
                q.schedule_keyed(at, seq, Ev::Timer(k, seq));
            }
        } else {
            self.gens[k] = (self.gens[k].0 + 1, true);
            q.schedule_at(at, Ev::Timer(k, self.gens[k].0));
        }
    }

    fn disarm(&mut self, k: usize) {
        self.lazies[k].disarm();
        self.gens[k].1 = false;
    }

    /// True when the popped event of timer `k` fires it.
    fn on_pop(&mut self, q: &mut EventQueue<Ev>, k: usize, tag: u64) -> bool {
        if !self.lazy {
            return self.gens[k] == (tag, true);
        }
        match self.lazies[k].on_pop(tag) {
            TimerPop::Fire => true,
            TimerPop::Requeue(at, seq) => {
                q.schedule_keyed(at, seq, Ev::Timer(k, seq));
                false
            }
            TimerPop::Stale => false,
        }
    }
}

/// Replays `ops` over four timers. Each op becomes a work item spaced
/// 0–3 ms apart; when it pops, it arms (with a delay from
/// sub-millisecond to ~1 s), disarms or leaves alone timer `k`. Every
/// third logged firing re-arms its timer 5 ms out; the others disarm
/// it.
fn run_timer_script(ops: &[(u64, u64, u64)], lazy: bool) -> ScriptRun {
    let mut q: EventQueue<Ev> = EventQueue::new();
    let mut timers = Timers {
        lazy,
        lazies: [LazyTimer::default(); 4],
        gens: [(0, false); 4],
    };
    let mut at = SimTime::ZERO;
    for (i, &(_, _, raw)) in ops.iter().enumerate() {
        at += SimDuration::from_micros(raw % 3_000);
        q.schedule_at(at, Ev::Work(i));
    }
    let mut log = Vec::new();
    while let Some((t, ev)) = q.pop() {
        match ev {
            Ev::Work(i) => {
                let (op, k, raw) = ops[i];
                let k = k as usize;
                log.push((t, format!("work {i}")));
                match op {
                    0 | 1 => {
                        let delay = SimDuration::from_nanos(match raw % 3 {
                            0 => raw % 1_000_000,
                            1 => 200_000_000 + raw % 800_000_000,
                            _ => raw % 40_000_000,
                        });
                        timers.arm(&mut q, k, delay);
                    }
                    2 => timers.disarm(k),
                    _ => {}
                }
            }
            Ev::Timer(k, tag) => {
                if timers.on_pop(&mut q, k, tag) {
                    log.push((t, format!("timer {k}")));
                    if log.len() % 3 == 0 {
                        timers.arm(&mut q, k, SimDuration::from_millis(5));
                    } else {
                        timers.disarm(k);
                    }
                }
            }
        }
    }
    ScriptRun {
        log,
        pops: q.events_processed(),
    }
}

/// Slot-index wraparound: scheduling a stream of events that marches
/// across many multiples of the level-0 window (64 buckets) forces the
/// refill scan to rotate its occupancy bitmaps past the wrap point and
/// to cascade level-1 buckets down as the horizon advances.
#[test]
fn wheel_rollover_cascade_matches_heap() {
    let mut wheel = EventQueue::new();
    let mut heap = HeapQueue::new();
    let bucket_ns = 1u64 << 21;
    // 400 events, one per ~bucket, spanning ~6 level-0 windows; pop two
    // of every three as we go so schedules interleave with refills.
    for i in 0..400u64 {
        let t = SimTime::from_nanos(i * bucket_ns + (i % 7) * 1_000);
        let t = t.max(wheel.now());
        sched_at(&mut wheel, &mut heap, t, i);
        if i % 3 != 0 {
            pop_both(&mut wheel, &mut heap);
        }
    }
    drain_both(&mut wheel, &mut heap);
    assert!(
        wheel.cascade_moves() > 0,
        "a 400-bucket march must cascade at least once"
    );
}

/// Horizon demotion: a far-future first event into an empty queue
/// commits its bucket and drags the horizon hours ahead of `now`; the
/// next near-term schedule must rebase the horizon back down (restoring
/// O(1) bucket inserts instead of growing a sorted-insert hotspot in
/// the ready batch) while keeping exact heap order.
#[test]
fn far_first_event_then_near_traffic_demotes_horizon() {
    let mut wheel = EventQueue::new();
    let mut heap = HeapQueue::new();
    let hour = SimTime::from_nanos(3_600_000_000_000);
    sched_at(&mut wheel, &mut heap, hour, 0);
    assert_eq!(wheel.peek_time(), heap.peek_time());
    // Near-term burst far below the leapt horizon.
    for i in 0..500u64 {
        let d = SimDuration::from_micros(10 + (i * 37) % 5_000);
        wheel.schedule_in(d, 1 + i);
        heap.schedule_in(d, 1 + i);
        assert_eq!(wheel.peek_time(), heap.peek_time());
    }
    assert!(
        wheel.horizon_demotions() >= 1,
        "the leapt horizon must rebase down for near traffic"
    );
    drain_both(&mut wheel, &mut heap);
}

/// Overflow promotion: timers parked beyond the top level's window must
/// re-enter the wheel when the horizon catches up, in exact order.
#[test]
fn overflow_promotion_preserves_order() {
    let mut wheel = EventQueue::new();
    let mut heap = HeapQueue::new();
    // Two sentinels far beyond the wheel's reach, interleaved with near
    // traffic; one pair shares a timestamp to check FIFO across the
    // overflow/wheel divide.
    let far = SimTime::from_nanos(1u64 << 60);
    sched_at(&mut wheel, &mut heap, far, 0);
    sched_at(&mut wheel, &mut heap, SimTime::from_millis(5), 1);
    sched_at(&mut wheel, &mut heap, far, 2);
    sched_at(&mut wheel, &mut heap, SimTime::from_secs(2), 3);
    assert_eq!(wheel.peek_time(), heap.peek_time());
    drain_both(&mut wheel, &mut heap);
    // The first sentinel parks in the overflow and is promoted when the
    // horizon rebases onto it; the second shares its timestamp, so it
    // lands directly in the already-committed span.
    assert!(
        wheel.overflow_promotions() >= 1,
        "the far timer must round-trip through the overflow"
    );

    // After promotion the engines keep working: the clock sits at the
    // sentinel now, and new relative schedules still order correctly.
    wheel.schedule_in(SimDuration::from_millis(3), 10);
    heap.schedule_in(SimDuration::from_millis(3), 10);
    wheel.schedule_in(SimDuration::from_millis(1), 11);
    heap.schedule_in(SimDuration::from_millis(1), 11);
    drain_both(&mut wheel, &mut heap);
}
