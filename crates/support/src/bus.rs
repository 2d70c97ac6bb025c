//! The habitat message bus.
//!
//! "A habitat itself consists of many modules and pieces of equipment, which
//! are independent but have to be orchestrated to deliver certain
//! functionality." The bus is the orchestration fabric: topic-based
//! publish/subscribe between system units (sensor aggregators, analysis
//! units, alert sinks, the Earth-link gateway). Each subscription is a
//! mutex-guarded queue, so units can run on their own threads while tests
//! drive them synchronously.

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::{
    Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard, Weak,
};

/// A bus topic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Topic {
    /// Raw sensor observations.
    Sensors,
    /// Analysis results (occupancy, speech, meetings).
    Analysis,
    /// Alerts raised for the crew.
    Alerts,
    /// Traffic to/from mission control.
    EarthLink,
    /// System-management messages (heartbeats, takeovers, approvals).
    Control,
    /// Ingest-plane health: backpressure shedding, queue depths, failovers.
    Ingest,
    /// Fleet-scheduler health: shard scorecards, availability drills.
    Fleet,
}

impl Topic {
    /// All topics.
    pub const ALL: [Topic; 7] = [
        Topic::Sensors,
        Topic::Analysis,
        Topic::Alerts,
        Topic::EarthLink,
        Topic::Control,
        Topic::Ingest,
        Topic::Fleet,
    ];
}

/// A bus message: topic plus an opaque payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Message {
    /// Publisher identity.
    pub from: String,
    /// Payload (JSON-encoded by convention; the bus does not interpret it).
    pub payload: String,
}

/// One subscriber's queue: owned by its [`Subscription`], held weakly by
/// the bus so a dropped subscription is pruned at the next publish.
type Queue = Arc<Mutex<VecDeque<Message>>>;

/// Every update of a queue or of the bus counters is one push, pop or
/// increment, so a holder that panicked left the data valid: the guard is
/// recovered rather than poisoning the bus for every other unit.
fn lock(queue: &Mutex<VecDeque<Message>>) -> MutexGuard<'_, VecDeque<Message>> {
    queue.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A handle for receiving messages of one subscription.
#[derive(Debug)]
pub struct Subscription {
    queue: Queue,
}

impl Subscription {
    /// Non-blocking receive.
    #[must_use]
    pub fn try_recv(&self) -> Option<Message> {
        lock(&self.queue).pop_front()
    }

    /// Drains everything currently queued.
    #[must_use]
    pub fn drain(&self) -> Vec<Message> {
        lock(&self.queue).drain(..).collect()
    }

    /// Number of queued messages.
    #[must_use]
    pub fn len(&self) -> usize {
        lock(&self.queue).len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        lock(&self.queue).is_empty()
    }
}

#[derive(Debug)]
struct Subscriber {
    queue: Weak<Mutex<VecDeque<Message>>>,
    /// Most messages the queue may hold (`usize::MAX` when unbounded).
    capacity: usize,
}

#[derive(Debug, Default)]
struct Inner {
    subscribers: HashMap<Topic, Vec<Subscriber>>,
    published: HashMap<Topic, u64>,
    /// Messages dropped because a bounded subscriber's queue was full.
    dropped: HashMap<Topic, u64>,
}

/// The shared bus. Cheap to clone (an `Arc` inside).
#[derive(Debug, Clone, Default)]
pub struct Bus {
    inner: Arc<RwLock<Inner>>,
}

impl Bus {
    /// Creates an empty bus.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn write(&self) -> RwLockWriteGuard<'_, Inner> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn read(&self) -> RwLockReadGuard<'_, Inner> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn attach(&self, topic: Topic, capacity: usize) -> Subscription {
        let queue = Queue::default();
        self.write()
            .subscribers
            .entry(topic)
            .or_default()
            .push(Subscriber {
                queue: Arc::downgrade(&queue),
                capacity,
            });
        Subscription { queue }
    }

    /// Subscribes to a topic with an unbounded queue.
    #[must_use]
    pub fn subscribe(&self, topic: Topic) -> Subscription {
        self.attach(topic, usize::MAX)
    }

    /// Subscribes to a topic with a queue holding at most `capacity`
    /// messages. When the queue is full, new messages for this subscriber
    /// are dropped and counted in [`Bus::dropped_count`] — a slow consumer
    /// sheds load visibly instead of stalling the habitat fabric or growing
    /// without bound.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn subscribe_bounded(&self, topic: Topic, capacity: usize) -> Subscription {
        assert!(capacity > 0, "bounded subscription needs capacity > 0");
        self.attach(topic, capacity)
    }

    /// Publishes to a topic; returns the number of subscribers reached.
    /// Dead subscriptions are pruned lazily; full bounded subscriptions
    /// count the loss instead of silently swallowing it.
    pub fn publish(&self, topic: Topic, message: Message) -> usize {
        let mut inner = self.write();
        *inner.published.entry(topic).or_default() += 1;
        let mut delivered = 0;
        let mut dropped = 0u64;
        inner.subscribers.entry(topic).or_default().retain(|sub| {
            let Some(queue) = sub.queue.upgrade() else {
                return false;
            };
            let mut queue = lock(&queue);
            if queue.len() < sub.capacity {
                queue.push_back(message.clone());
                delivered += 1;
            } else {
                dropped += 1;
            }
            true
        });
        if dropped > 0 {
            *inner.dropped.entry(topic).or_default() += dropped;
        }
        delivered
    }

    /// Total messages ever published to a topic.
    #[must_use]
    pub fn published_count(&self, topic: Topic) -> u64 {
        *self.read().published.get(&topic).unwrap_or(&0)
    }

    /// Messages dropped on a topic because a bounded subscriber was full.
    #[must_use]
    pub fn dropped_count(&self, topic: Topic) -> u64 {
        *self.read().dropped.get(&topic).unwrap_or(&0)
    }

    /// Current subscriber count on a topic.
    #[must_use]
    pub fn subscriber_count(&self, topic: Topic) -> usize {
        self.read().subscribers.get(&topic).map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(from: &str, payload: &str) -> Message {
        Message {
            from: from.to_string(),
            payload: payload.to_string(),
        }
    }

    #[test]
    fn fan_out_to_all_subscribers() {
        let bus = Bus::new();
        let a = bus.subscribe(Topic::Alerts);
        let b = bus.subscribe(Topic::Alerts);
        let delivered = bus.publish(Topic::Alerts, msg("engine", "dehydration:D"));
        assert_eq!(delivered, 2);
        assert_eq!(a.try_recv().unwrap().payload, "dehydration:D");
        assert_eq!(b.try_recv().unwrap().payload, "dehydration:D");
        assert!(a.try_recv().is_none());
    }

    #[test]
    fn topics_are_isolated() {
        let bus = Bus::new();
        let alerts = bus.subscribe(Topic::Alerts);
        bus.publish(Topic::Sensors, msg("badge", "scan"));
        assert!(alerts.is_empty());
        assert_eq!(bus.published_count(Topic::Sensors), 1);
        assert_eq!(bus.published_count(Topic::Alerts), 0);
    }

    #[test]
    fn dropped_subscribers_are_pruned() {
        let bus = Bus::new();
        {
            let _tmp = bus.subscribe(Topic::Control);
            assert_eq!(bus.subscriber_count(Topic::Control), 1);
        }
        // Subscription dropped: next publish prunes it.
        let delivered = bus.publish(Topic::Control, msg("x", "y"));
        assert_eq!(delivered, 0);
        assert_eq!(bus.subscriber_count(Topic::Control), 0);
    }

    #[test]
    fn drain_collects_backlog() {
        let bus = Bus::new();
        let sub = bus.subscribe(Topic::Analysis);
        for i in 0..5 {
            bus.publish(Topic::Analysis, msg("pipeline", &format!("r{i}")));
        }
        let all = sub.drain();
        assert_eq!(all.len(), 5);
        assert_eq!(all[4].payload, "r4");
    }

    #[test]
    fn bounded_subscriber_sheds_load_and_counts_drops() {
        let bus = Bus::new();
        let slow = bus.subscribe_bounded(Topic::Sensors, 3);
        let fast = bus.subscribe(Topic::Sensors);
        for i in 0..10 {
            bus.publish(Topic::Sensors, msg("badge", &i.to_string()));
        }
        // The bounded queue kept the three oldest; the rest were dropped
        // and the loss is visible, not silent.
        assert_eq!(slow.len(), 3);
        assert_eq!(bus.dropped_count(Topic::Sensors), 7);
        assert_eq!(fast.drain().len(), 10, "unbounded peer sees everything");
        // Draining frees capacity for later publishes.
        let _ = slow.drain();
        bus.publish(Topic::Sensors, msg("badge", "fresh"));
        assert_eq!(slow.try_recv().unwrap().payload, "fresh");
        assert_eq!(bus.dropped_count(Topic::Sensors), 7);
        assert_eq!(bus.dropped_count(Topic::Alerts), 0);
    }

    #[test]
    fn bus_works_across_threads() {
        let bus = Bus::new();
        let sub = bus.subscribe(Topic::Sensors);
        let bus2 = bus.clone();
        let handle = std::thread::spawn(move || {
            for i in 0..100 {
                bus2.publish(Topic::Sensors, msg("t", &i.to_string()));
            }
        });
        handle.join().unwrap();
        assert_eq!(sub.drain().len(), 100);
    }
}
