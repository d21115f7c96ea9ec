//! The simulation run loop.
//!
//! An [`Engine`] owns a *world* (any user type) and a queue of boxed event
//! closures. Popping an event advances the clock to its timestamp and runs
//! the closure with mutable access to both the world and the [`Scheduler`],
//! so handlers can schedule (or cancel) further events. The loop is strictly
//! sequential and deterministic — see [`crate::queue`] for the ordering
//! guarantees.

use crate::ctx::SimCtx;
use crate::queue::{EventId, EventQueue};
use crate::time::{SimDuration, SimTime};

/// A scheduled event: a one-shot closure over the world.
pub type EventFn<W> = Box<dyn FnOnce(&mut W, SimTime, &mut Scheduler<W>)>;

/// The scheduling facet handed to event handlers.
pub struct Scheduler<W> {
    now: SimTime,
    queue: EventQueue<EventFn<W>>,
}

impl<W> Scheduler<W> {
    fn with_ctx(ctx: &SimCtx) -> Self {
        Scheduler {
            now: SimTime::ZERO,
            queue: EventQueue::with_ctx(ctx),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `f` to run at the absolute instant `at`.
    ///
    /// Panics if `at` is in the past — an event cannot rewrite history.
    pub fn at(&mut self, at: SimTime, f: EventFn<W>) -> EventId {
        assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        self.queue.schedule(at, f)
    }

    /// Schedule `f` to run after the relative delay `d`.
    pub fn after(&mut self, d: SimDuration, f: EventFn<W>) -> EventId {
        self.queue.schedule(self.now + d, f)
    }

    /// Cancel a pending event. Returns true if it was still pending.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// Discrete-event engine: a world plus the event loop driving it.
pub struct Engine<W> {
    world: W,
    sched: Scheduler<W>,
}

impl<W> Engine<W> {
    /// Wrap `world` with an empty event queue at t = 0, reporting into a
    /// fresh private context.
    pub fn new(world: W) -> Self {
        Self::with_ctx(world, &SimCtx::new())
    }

    /// Wrap `world` with an empty event queue at t = 0, streaming queue
    /// counters (events popped and cancelled, peak depth) into `ctx`.
    pub fn with_ctx(world: W, ctx: &SimCtx) -> Self {
        Engine {
            world,
            sched: Scheduler::with_ctx(ctx),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world (for setup and inspection between runs).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Schedule an event from outside the loop (setup code).
    pub fn schedule(&mut self, at: SimTime, f: EventFn<W>) -> EventId {
        self.sched.at(at, f)
    }

    /// Schedule an event a delay from now (setup code).
    pub fn schedule_in(&mut self, d: SimDuration, f: EventFn<W>) -> EventId {
        self.sched.after(d, f)
    }

    /// Cancel a pending event.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.sched.cancel(id)
    }

    /// Run a single event if one is pending; returns false when idle.
    pub fn step(&mut self) -> bool {
        match self.sched.queue.pop() {
            Some((at, f)) => {
                debug_assert!(at >= self.sched.now, "event queue went backwards");
                self.sched.now = at;
                f(&mut self.world, at, &mut self.sched);
                true
            }
            None => false,
        }
    }

    /// Process every event with timestamp ≤ `horizon`, then set the clock to
    /// `horizon`. Events scheduled beyond the horizon stay pending, so a
    /// campaign can be resumed with a later horizon.
    pub fn run_until(&mut self, horizon: SimTime) {
        while let Some(t) = self.sched.queue.peek_time() {
            if t > horizon {
                break;
            }
            self.step();
        }
        if horizon > self.sched.now {
            self.sched.now = horizon;
        }
    }

    /// Run until the queue drains completely. Returns the final time.
    pub fn run_to_idle(&mut self) -> SimTime {
        while self.step() {}
        self.sched.now
    }

    /// Consume the engine, returning the world (end-of-campaign analysis).
    pub fn into_world(self) -> W {
        self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct W {
        log: Vec<(u64, &'static str)>,
    }

    fn ev(tag: &'static str) -> EventFn<W> {
        Box::new(move |w: &mut W, now, _s| w.log.push((now.as_nanos(), tag)))
    }

    #[test]
    fn events_run_in_order_and_clock_advances() {
        let ctx = SimCtx::new();
        let mut e = Engine::with_ctx(W::default(), &ctx);
        e.schedule(SimTime::from_nanos(20), ev("b"));
        e.schedule(SimTime::from_nanos(10), ev("a"));
        e.run_until(SimTime::from_nanos(100));
        assert_eq!(e.world().log, vec![(10, "a"), (20, "b")]);
        assert_eq!(e.now(), SimTime::from_nanos(100));
        assert_eq!(ctx.counters().events_popped, 2);
    }

    #[test]
    fn handlers_can_schedule_more_events() {
        let mut e = Engine::new(W::default());
        e.schedule(
            SimTime::from_nanos(5),
            Box::new(|w: &mut W, now, s| {
                w.log.push((now.as_nanos(), "first"));
                s.after(SimDuration::from_nanos(5), ev("second"));
            }),
        );
        e.run_to_idle();
        assert_eq!(e.world().log, vec![(5, "first"), (10, "second")]);
    }

    #[test]
    fn run_until_leaves_future_events_pending() {
        let mut e = Engine::new(W::default());
        e.schedule(SimTime::from_nanos(10), ev("now"));
        e.schedule(SimTime::from_nanos(1000), ev("later"));
        e.run_until(SimTime::from_nanos(100));
        assert_eq!(e.world().log.len(), 1);
        e.run_until(SimTime::from_nanos(2000));
        assert_eq!(e.world().log.len(), 2);
    }

    #[test]
    fn cancellation_prevents_execution() {
        let mut e = Engine::new(W::default());
        let id = e.schedule(SimTime::from_nanos(10), ev("nope"));
        assert!(e.cancel(id));
        e.run_to_idle();
        assert!(e.world().log.is_empty());
    }

    #[test]
    fn handler_can_cancel_sibling() {
        struct S {
            victim: Option<EventId>,
            fired: bool,
        }
        let mut e = Engine::new(S {
            victim: None,
            fired: false,
        });
        let victim = e.schedule(
            SimTime::from_nanos(20),
            Box::new(|w: &mut S, _, _| w.fired = true),
        );
        e.world_mut().victim = Some(victim);
        e.schedule(
            SimTime::from_nanos(10),
            Box::new(|w: &mut S, _, s| {
                s.cancel(w.victim.take().expect("victim id present"));
            }),
        );
        e.run_to_idle();
        assert!(!e.world().fired);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_past_panics() {
        let mut e = Engine::new(W::default());
        e.schedule(
            SimTime::from_nanos(100),
            Box::new(|_w, _now, s| {
                s.at(SimTime::from_nanos(50), Box::new(|_, _, _| {}));
            }),
        );
        e.run_to_idle();
    }

    #[test]
    fn metrics_count_pops_cancels_and_peak_depth() {
        let ctx = SimCtx::new();
        let mut e = Engine::with_ctx(W::default(), &ctx);
        let a = e.schedule(SimTime::from_nanos(10), ev("a"));
        e.schedule(SimTime::from_nanos(20), ev("b"));
        e.schedule(SimTime::from_nanos(30), ev("c"));
        assert!(e.cancel(a));
        e.run_to_idle();
        let m = ctx.counters();
        assert_eq!(m.events_popped, 2);
        assert_eq!(m.events_cancelled, 1);
        assert_eq!(m.peak_queue_depth, 3);
    }

    #[test]
    fn context_tracks_engine_activity() {
        let ctx = SimCtx::new();
        let mut e = Engine::with_ctx(W::default(), &ctx);
        e.schedule(SimTime::from_nanos(1), ev("x"));
        e.schedule(SimTime::from_nanos(2), ev("y"));
        e.run_to_idle();
        let s = ctx.counters();
        assert_eq!(s.events_popped, 2);
        assert_eq!(s.peak_queue_depth, 2);
    }

    #[test]
    fn two_engines_on_one_thread_keep_independent_counters() {
        let ctx_a = SimCtx::new();
        let ctx_b = SimCtx::new();
        let mut a = Engine::with_ctx(W::default(), &ctx_a);
        let mut b = Engine::with_ctx(W::default(), &ctx_b);
        for i in 1..=3u64 {
            a.schedule(SimTime::from_nanos(i), ev("a"));
        }
        b.schedule(SimTime::from_nanos(1), ev("b"));
        // Interleave the two engines on this thread.
        while a.step() | b.step() {}
        assert_eq!(ctx_a.counters().events_popped, 3);
        assert_eq!(ctx_b.counters().events_popped, 1);
        assert_eq!(ctx_a.counters().peak_queue_depth, 3);
        assert_eq!(ctx_b.counters().peak_queue_depth, 1);
    }

    #[test]
    fn same_time_events_fifo() {
        let mut e = Engine::new(W::default());
        for tag in ["x", "y", "z"] {
            e.schedule(SimTime::from_nanos(7), ev(tag));
        }
        e.run_to_idle();
        let tags: Vec<_> = e.world().log.iter().map(|(_, t)| *t).collect();
        assert_eq!(tags, vec!["x", "y", "z"]);
    }
}
