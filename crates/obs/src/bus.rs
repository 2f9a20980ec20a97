//! Broadcast event bus: the live leg of the event stream.
//!
//! The file-artifact event stream ([`crate::event`]) buffers everything
//! per thread and drains once at the end of a run. That is the right
//! shape for post-mortem artifacts but useless for a live consumer — a
//! telemetry endpoint, a future `maskfrac serve` job watcher — that
//! wants events *while the run is going*.
//!
//! This module adds a process-global publish/subscribe layer next to
//! the capture buffers:
//!
//! * **Publishers never block.** `publish` is called from worker
//!   threads on the fracture hot path; it takes only bounded
//!   `try_lock`s on subscriber rings (a few spins, never a park). A
//!   persistently contended or full ring means the event is *dropped
//!   for that subscriber* and `obs.bus.dropped` is incremented — a
//!   stalled scraper can never stall a worker.
//! * **Each subscriber owns a bounded ring.** `subscribe_with_capacity`
//!   hands back a `BusSubscriber` with its own FIFO of cloned events;
//!   slow consumers only ever lose their *own* events.
//! * **Zero cost when idle.** With no live subscribers the fast path
//!   is a single relaxed atomic load ([`has_subscribers`]) and the
//!   event is never even constructed by the emission sites in
//!   [`crate::event`].
//!
//! Accounting: `obs.bus.published` counts events accepted by the bus
//! (once per event, independent of fan-out); `obs.bus.dropped` counts
//! per-subscriber delivery failures. With one subscriber and no drops
//! the two deltas match.
//!
//! Subscribing activates event *emission* even when file capture
//! (`--events-out` / `--trace-out`) is off, but bus-only events never
//! land in the capture buffers, so file artifacts and their
//! [`crate::event::validate`] invariants are unaffected.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, RwLock};
use std::time::{Duration, Instant};

use crate::counter;
use crate::event::Event;

/// One subscriber's bounded FIFO plus its wakeup signal.
struct Ring {
    queue: Mutex<VecDeque<Event>>,
    wakeup: Condvar,
    capacity: usize,
    /// Cleared when the owning [`BusSubscriber`] is dropped; inactive
    /// rings are skipped by publishers and pruned on the next
    /// subscribe.
    active: AtomicBool,
}

impl Ring {
    /// Locks the queue, tolerating poison: a panicking consumer must
    /// not wedge the publishers.
    fn queue(&self) -> MutexGuard<'_, VecDeque<Event>> {
        self.queue.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Bounded lock acquisition for publishers. A consumer's critical
    /// sections are sub-microsecond (popping or draining a bounded
    /// ring), so a few spins absorb nearly every collision; anything
    /// longer means a wedged consumer, and the caller drops the event
    /// rather than waiting.
    fn try_queue_briefly(&self) -> Option<MutexGuard<'_, VecDeque<Event>>> {
        for _ in 0..PUBLISH_SPIN_ATTEMPTS {
            match self.queue.try_lock() {
                Ok(guard) => return Some(guard),
                Err(std::sync::TryLockError::Poisoned(p)) => return Some(p.into_inner()),
                Err(std::sync::TryLockError::WouldBlock) => std::hint::spin_loop(),
            }
        }
        None
    }
}

/// How many `try_lock` attempts a publisher makes before dropping the
/// event for that subscriber.
const PUBLISH_SPIN_ATTEMPTS: u32 = 64;

/// The process-global bus: the subscriber list plus a count of live
/// subscribers that publishers can check with one relaxed load.
struct Bus {
    rings: RwLock<Vec<Arc<Ring>>>,
    live: AtomicUsize,
}

fn bus() -> &'static Bus {
    static BUS: OnceLock<Bus> = OnceLock::new();
    BUS.get_or_init(|| Bus {
        rings: RwLock::new(Vec::new()),
        live: AtomicUsize::new(0),
    })
}

/// True when at least one `BusSubscriber` is alive.
///
/// This is the emission gate checked (alongside file capture) by the
/// span/point sinks in [`crate::event`]; it is a single relaxed atomic
/// load, cheap enough for the per-shape hot path.
#[inline]
pub fn has_subscribers() -> bool {
    live_subscribers() > 0
}

/// The number of live [`BusSubscriber`]s (reported by `/healthz`).
#[inline]
pub(crate) fn live_subscribers() -> usize {
    bus().live.load(Ordering::Relaxed)
}

/// Subscribes with an explicit ring capacity (clamped to ≥ 1).
///
/// Once the ring holds `capacity` undrained events, further events
/// are dropped for this subscriber (and counted in
/// `obs.bus.dropped`) until it drains.
pub(crate) fn subscribe_with_capacity(capacity: usize) -> BusSubscriber {
    let capacity = capacity.max(1);
    let ring = Arc::new(Ring {
        queue: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
        wakeup: Condvar::new(),
        capacity,
        active: AtomicBool::new(true),
    });
    let b = bus();
    {
        let mut rings = b.rings.write().unwrap_or_else(|p| p.into_inner());
        // Prune rings whose subscribers have dropped; their `live`
        // decrement already happened in BusSubscriber::drop.
        rings.retain(|r| r.active.load(Ordering::Relaxed));
        rings.push(Arc::clone(&ring));
    }
    b.live.fetch_add(1, Ordering::Relaxed);
    BusSubscriber { ring }
}

/// Publishes one event to every live subscriber without ever blocking.
///
/// A no-op (and uncounted) when there are no subscribers. Otherwise
/// `obs.bus.published` is incremented once, and for each subscriber
/// whose ring is full or momentarily contended the event is dropped
/// and `obs.bus.dropped` incremented instead of waiting.
pub(crate) fn publish(event: &Event) {
    let b = bus();
    if b.live.load(Ordering::Relaxed) == 0 {
        return;
    }
    counter!("obs.bus.published").incr();
    // A publisher must never wait on the subscriber list either; the
    // write lock is only held for microseconds during (rare)
    // subscribes, but if we do hit that window the event is dropped
    // once rather than the worker parking.
    let rings = match b.rings.try_read() {
        Ok(rings) => rings,
        Err(_) => {
            counter!("obs.bus.dropped").incr();
            return;
        }
    };
    for ring in rings.iter() {
        if !ring.active.load(Ordering::Relaxed) {
            continue;
        }
        // Clone before locking: the clone allocates, and every
        // instruction under the lock widens the window in which a
        // concurrent publisher's `try_lock` fails and drops.
        let event = event.clone();
        match ring.try_queue_briefly() {
            Some(mut queue) => {
                if queue.len() < ring.capacity {
                    queue.push_back(event);
                    drop(queue);
                    ring.wakeup.notify_one();
                } else {
                    counter!("obs.bus.dropped").incr();
                }
            }
            // The subscriber held its lock past the spin budget
            // (wedged mid-drain): drop, don't wait.
            None => counter!("obs.bus.dropped").incr(),
        }
    }
}

/// A handle on one bounded subscription ring.
///
/// Dropping the subscriber deactivates the ring; publishers skip it
/// from then on and it is pruned from the list on the next subscribe.
#[derive(Debug)]
pub(crate) struct BusSubscriber {
    ring: Arc<Ring>,
}

// The Mutex/Condvar internals have no useful Debug form.
impl std::fmt::Debug for Ring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("capacity", &self.capacity)
            .field("active", &self.active.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl BusSubscriber {
    /// Takes every queued event without waiting. The queue is swapped
    /// for an empty one allocated beforehand, so the lock is held for a
    /// pointer swap rather than for collecting the events.
    pub(crate) fn try_drain(&self) -> Vec<Event> {
        let mut taken = VecDeque::with_capacity(self.ring.capacity.min(1024));
        std::mem::swap(&mut *self.ring.queue(), &mut taken);
        taken.into()
    }

    /// Waits up to `timeout` for the next event.
    ///
    /// Returns `None` on timeout. The wait holds only this ring's
    /// lock; publishers contending with it drop to this subscriber
    /// only during the brief dequeue windows, not for the whole wait
    /// (the condvar releases the lock while parked).
    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Option<Event> {
        let deadline = Instant::now() + timeout;
        let mut queue = self.ring.queue();
        loop {
            if let Some(event) = queue.pop_front() {
                return Some(event);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, _timed_out) = self
                .ring
                .wakeup
                .wait_timeout(queue, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            queue = next;
        }
    }
}

impl Drop for BusSubscriber {
    fn drop(&mut self) {
        self.ring.active.store(false, Ordering::Relaxed);
        bus().live.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind};
    use crate::metrics::counter;
    use std::collections::BTreeMap;

    fn ping(name: &'static str) -> Event {
        Event {
            ts_us: 1,
            thread: 0,
            span_id: 0,
            parent_id: 0,
            name: name.to_owned(),
            kind: EventKind::Point,
            fields: BTreeMap::new(),
        }
    }

    #[test]
    fn publish_without_subscribers_is_a_noop() {
        // No subscriber owned by *this* test; other tests may hold
        // one concurrently, so only check that publish returns and
        // never panics.
        publish(&ping("t.bus.noop"));
    }

    #[test]
    fn subscriber_receives_published_events() {
        let sub = subscribe_with_capacity(64);
        publish(&ping("t.bus.delivered"));
        let got = sub.try_drain();
        assert!(
            got.iter().any(|e| e.name == "t.bus.delivered"),
            "expected the published event in the ring, got {got:?}"
        );
    }

    #[test]
    fn recv_timeout_wakes_on_publish() {
        let sub = subscribe_with_capacity(64);
        let waiter = std::thread::spawn(move || {
            let mut seen = Vec::new();
            // Other tests' events may share the ring; wait until ours
            // shows up (bounded by the per-recv timeouts).
            for _ in 0..200 {
                if let Some(e) = sub.recv_timeout(Duration::from_millis(50)) {
                    let hit = e.name == "t.bus.wakeup";
                    seen.push(e);
                    if hit {
                        return (true, seen);
                    }
                }
            }
            (false, seen)
        });
        std::thread::sleep(Duration::from_millis(20));
        publish(&ping("t.bus.wakeup"));
        let (hit, seen) = waiter.join().expect("waiter thread");
        assert!(hit, "recv_timeout never saw the event; saw {seen:?}");
    }

    #[test]
    fn stalled_subscriber_drops_instead_of_blocking() {
        let published0 = counter("obs.bus.published").get();
        let dropped0 = counter("obs.bus.dropped").get();
        let sub = subscribe_with_capacity(4);
        let start = Instant::now();
        for _ in 0..100 {
            publish(&ping("t.bus.stalled"));
        }
        let elapsed = start.elapsed();
        // 100 publishes against a full 4-slot ring must return
        // essentially immediately — the whole point of drop-not-block.
        assert!(
            elapsed < Duration::from_secs(5),
            "publishing to a stalled subscriber took {elapsed:?}"
        );
        assert!(
            counter("obs.bus.published").get() >= published0 + 100,
            "published counter did not advance"
        );
        assert!(
            counter("obs.bus.dropped").get() >= dropped0 + 96,
            "expected >= 96 drops against a 4-slot ring"
        );
        // The first `capacity` events were retained in order.
        let kept = sub.try_drain();
        assert!(kept.len() >= 4, "ring should hold its capacity");
    }

    #[test]
    fn dropped_subscriber_stops_receiving() {
        let sub = subscribe_with_capacity(8);
        let ring = Arc::clone(&sub.ring);
        drop(sub);
        assert!(!ring.active.load(Ordering::Relaxed));
        publish(&ping("t.bus.after_drop"));
        assert!(
            ring.queue().iter().all(|e| e.name != "t.bus.after_drop"),
            "inactive ring must not receive events"
        );
    }
}
