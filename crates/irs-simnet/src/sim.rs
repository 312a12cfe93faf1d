//! The discrete-event loop.
//!
//! Events are boxed closures over a world type `W`, ordered by (time,
//! sequence number) — the sequence number gives stable FIFO ordering for
//! simultaneous events, which is what makes runs bit-reproducible.

use irs_core::time::{Clock, ManualClock, TimeMs};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

type EventFn<W> = Box<dyn FnOnce(&mut Sim<W>)>;

struct Scheduled<W> {
    at: TimeMs,
    seq: u64,
    run: EventFn<W>,
}

impl<W> PartialEq for Scheduled<W> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<W> Eq for Scheduled<W> {}
impl<W> PartialOrd for Scheduled<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for Scheduled<W> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest (time, seq) pops
        // first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A discrete-event simulation over a world `W`.
pub struct Sim<W> {
    /// The simulated world, freely mutable from event handlers.
    pub world: W,
    clock: ManualClock,
    queue: BinaryHeap<Scheduled<W>>,
    seq: u64,
    executed: u64,
}

impl<W> Sim<W> {
    /// Create a simulation at time zero.
    pub fn new(world: W) -> Sim<W> {
        Sim {
            world,
            clock: ManualClock::new(),
            queue: BinaryHeap::new(),
            seq: 0,
            executed: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> TimeMs {
        self.clock.now()
    }

    /// A clone of the simulation clock, for handing to protocol components
    /// that take `Arc<dyn Clock>`-style dependencies.
    pub fn clock(&self) -> ManualClock {
        self.clock.clone()
    }

    /// Schedule `f` to run `delay_ms` after the current time.
    pub fn schedule_in(&mut self, delay_ms: u64, f: impl FnOnce(&mut Sim<W>) + 'static) {
        let at = self.now().plus(delay_ms);
        self.schedule_at(at, f);
    }

    /// Schedule `f` at an absolute time (clamped to now if in the past).
    pub fn schedule_at(&mut self, at: TimeMs, f: impl FnOnce(&mut Sim<W>) + 'static) {
        let at = at.max(self.now());
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled {
            at,
            seq,
            run: Box::new(f),
        });
    }

    /// Run one event; returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now(), "time cannot run backwards");
        self.clock.set(ev.at);
        self.executed += 1;
        (ev.run)(self);
        true
    }

    /// Run until the queue is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Sim::new(Vec::<u32>::new());
        sim.schedule_in(30, |s| s.world.push(3));
        sim.schedule_in(10, |s| s.world.push(1));
        sim.schedule_in(20, |s| s.world.push(2));
        sim.run();
        assert_eq!(sim.world, vec![1, 2, 3]);
        assert_eq!(sim.now(), TimeMs(30));
        assert_eq!(sim.executed(), 3);
    }

    #[test]
    fn simultaneous_events_run_fifo() {
        let mut sim = Sim::new(Vec::<u32>::new());
        for i in 0..10u32 {
            sim.schedule_in(5, move |s| s.world.push(i));
        }
        sim.run();
        assert_eq!(sim.world, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Sim::new(Vec::<(u64, &str)>::new());
        sim.schedule_in(10, |s| {
            let t = s.now().0;
            s.world.push((t, "first"));
            s.schedule_in(15, |s| {
                let t = s.now().0;
                s.world.push((t, "second"));
            });
        });
        sim.run();
        assert_eq!(sim.world, vec![(10, "first"), (25, "second")]);
    }

    #[test]
    fn schedule_at_past_clamps_to_now() {
        let mut sim = Sim::new(Vec::<u64>::new());
        sim.schedule_in(20, |s| {
            // Try to schedule in the past; it must run "now" instead.
            s.schedule_at(TimeMs(5), |s| {
                let t = s.now().0;
                s.world.push(t);
            });
        });
        sim.run();
        assert_eq!(sim.world, vec![20]);
    }

    #[test]
    fn shared_clock_tracks_sim_time() {
        use irs_core::time::Clock;
        let mut sim = Sim::new(());
        let clock = sim.clock();
        sim.schedule_in(42, |_| {});
        sim.run();
        assert_eq!(clock.now(), TimeMs(42));
    }

    #[test]
    fn deterministic_replay() {
        fn run() -> Vec<u32> {
            let mut sim = Sim::new(Vec::new());
            for i in 0..50u32 {
                sim.schedule_in((i as u64 * 7) % 13, move |s| s.world.push(i));
            }
            sim.run();
            sim.world
        }
        assert_eq!(run(), run());
    }
}
