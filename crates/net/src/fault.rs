//! Deterministic transport fault injection.
//!
//! [`NetFaultPlan`] extends the runtime's [`FaultPlan`](alps_runtime::FaultPlan)
//! idea to the network boundary: drops, delays, duplicates, byte
//! corruption, and forced disconnects, all driven by a seeded xorshift
//! stream so a 256-seed sweep (and the strategy explorer riding on it)
//! replays the same failures from the same seed.
//!
//! The plan is *schedule-free*: it decides per frame, at the link's send
//! and receive points ([`FaultyLink`](crate::link::FaultyLink)), so the
//! same plan composes with either executor — virtual delays under the
//! sim, real sleeps under threads.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;

/// What should happen to a frame about to be sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendPlan {
    /// Silently drop the frame (the peer never sees it).
    Drop,
    /// Kill the link mid-call: the send fails and the connection dies.
    Disconnect,
    /// Deliver, possibly late / twice / damaged.
    Deliver {
        /// Ticks to sleep before handing the frame to the real link.
        delay_ticks: u64,
        /// Send the frame a second time (exercises receiver dedup).
        dup: bool,
        /// Flip the low bits of one byte: `(offset_seed, xor_mask)`.
        /// The offset seed is reduced modulo the frame's *body* span so
        /// the length prefix is never damaged — corrupting the length
        /// field would desync the stream framing itself, which reads as
        /// a disconnect, a different (already covered) fault.
        corrupt: Option<(u64, u8)>,
    },
}

/// What should happen to a frame just received.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvPlan {
    /// Pretend it never arrived.
    Drop,
    /// Deliver after a delay (0 = immediately).
    Deliver {
        /// Ticks to sleep before surfacing the frame.
        delay_ticks: u64,
    },
}

/// Probabilities and triggers for transport faults. All rates are in
/// `[0, 1]`; `0.0` disables that fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetFaultPlan {
    /// Seed for the fault decision stream.
    pub seed: u64,
    /// Probability a sent frame is silently dropped.
    pub drop_send: f64,
    /// Probability a received frame is silently dropped.
    pub drop_recv: f64,
    /// Probability a frame is delayed.
    pub delay_rate: f64,
    /// Maximum delay in ticks (uniform in `[1, max]`).
    pub delay_max_ticks: u64,
    /// Probability a sent frame is duplicated.
    pub dup_rate: f64,
    /// Probability a sent frame has one byte corrupted.
    pub corrupt_rate: f64,
    /// Probability a send tears the connection down instead.
    pub disconnect_rate: f64,
    /// Deterministically disconnect after every N sends (0 = off).
    /// Unlike `disconnect_rate` this guarantees the reconnect path runs
    /// even on seeds where the dice never come up.
    pub disconnect_every: u64,
}

impl NetFaultPlan {
    /// A quiet plan (no faults) with the given seed.
    pub fn seeded(seed: u64) -> NetFaultPlan {
        NetFaultPlan {
            seed,
            drop_send: 0.0,
            drop_recv: 0.0,
            delay_rate: 0.0,
            delay_max_ticks: 0,
            dup_rate: 0.0,
            corrupt_rate: 0.0,
            disconnect_rate: 0.0,
            disconnect_every: 0,
        }
    }

    /// The default sweep mix: a little of everything, scaled by `seed`
    /// only through the decision stream (the rates are fixed so every
    /// seed explores the same regime with different timing).
    pub fn chaos(seed: u64) -> NetFaultPlan {
        NetFaultPlan {
            seed,
            drop_send: 0.05,
            drop_recv: 0.05,
            delay_rate: 0.10,
            delay_max_ticks: 200,
            dup_rate: 0.05,
            corrupt_rate: 0.02,
            disconnect_rate: 0.01,
            disconnect_every: 40,
        }
    }
}

/// xorshift64* — the same tiny deterministic generator the sim executor
/// uses, kept private to the fault stream so fault decisions never
/// perturb (or depend on) scheduling randomness.
#[derive(Debug)]
struct FaultRng {
    state: u64,
}

impl FaultRng {
    fn new(seed: u64) -> FaultRng {
        FaultRng {
            state: seed | 1, // xorshift must not start at 0
        }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Live fault state for one link: the plan plus the seeded decision
/// stream and the send counter driving `disconnect_every`.
#[derive(Debug)]
pub struct NetFault {
    plan: NetFaultPlan,
    rng: Mutex<FaultRng>,
    sends: AtomicU64,
    dead: AtomicBool,
}

impl NetFault {
    /// Build fault state from a plan.
    pub fn new(plan: NetFaultPlan) -> NetFault {
        NetFault {
            rng: Mutex::new(FaultRng::new(plan.seed)),
            plan,
            sends: AtomicU64::new(0),
            dead: AtomicBool::new(false),
        }
    }

    /// The plan this state was built from.
    pub fn plan(&self) -> &NetFaultPlan {
        &self.plan
    }

    /// Reset the forced-disconnect latch (the client calls this when it
    /// reconnects, so the *new* link gets its own fault budget).
    pub fn revive(&self) {
        self.dead.store(false, Ordering::Relaxed);
    }

    /// Decide the fate of an outgoing frame.
    pub fn on_send(&self) -> SendPlan {
        if self.dead.swap(false, Ordering::Relaxed) {
            // A prior decision latched a disconnect; honour it once.
            return SendPlan::Disconnect;
        }
        let n = self.sends.fetch_add(1, Ordering::Relaxed) + 1;
        let mut rng = self.rng.lock();
        if self.plan.disconnect_every != 0 && n.is_multiple_of(self.plan.disconnect_every) {
            return SendPlan::Disconnect;
        }
        if self.plan.disconnect_rate > 0.0 && rng.unit() < self.plan.disconnect_rate {
            return SendPlan::Disconnect;
        }
        if self.plan.drop_send > 0.0 && rng.unit() < self.plan.drop_send {
            return SendPlan::Drop;
        }
        let delay_ticks = if self.plan.delay_rate > 0.0 && rng.unit() < self.plan.delay_rate {
            1 + rng.next() % self.plan.delay_max_ticks.max(1)
        } else {
            0
        };
        let dup = self.plan.dup_rate > 0.0 && rng.unit() < self.plan.dup_rate;
        let corrupt = if self.plan.corrupt_rate > 0.0 && rng.unit() < self.plan.corrupt_rate {
            let offset_seed = rng.next();
            let mask = (rng.next() as u8) | 1; // never a 0 mask (a no-op flip)
            Some((offset_seed, mask))
        } else {
            None
        };
        SendPlan::Deliver {
            delay_ticks,
            dup,
            corrupt,
        }
    }

    /// Decide the fate of an incoming frame.
    pub fn on_recv(&self) -> RecvPlan {
        let mut rng = self.rng.lock();
        if self.plan.drop_recv > 0.0 && rng.unit() < self.plan.drop_recv {
            return RecvPlan::Drop;
        }
        let delay_ticks = if self.plan.delay_rate > 0.0 && rng.unit() < self.plan.delay_rate {
            1 + rng.next() % self.plan.delay_max_ticks.max(1)
        } else {
            0
        };
        RecvPlan::Deliver { delay_ticks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_always_delivers() {
        let f = NetFault::new(NetFaultPlan::seeded(42));
        for _ in 0..100 {
            assert_eq!(
                f.on_send(),
                SendPlan::Deliver {
                    delay_ticks: 0,
                    dup: false,
                    corrupt: None
                }
            );
            assert_eq!(f.on_recv(), RecvPlan::Deliver { delay_ticks: 0 });
        }
    }

    #[test]
    fn same_seed_same_decisions() {
        let a = NetFault::new(NetFaultPlan::chaos(7));
        let b = NetFault::new(NetFaultPlan::chaos(7));
        for _ in 0..200 {
            assert_eq!(a.on_send(), b.on_send());
            assert_eq!(a.on_recv(), b.on_recv());
        }
    }

    #[test]
    fn disconnect_every_fires_deterministically() {
        let mut plan = NetFaultPlan::seeded(1);
        plan.disconnect_every = 5;
        let f = NetFault::new(plan);
        let mut disconnects = 0;
        for i in 1..=20u64 {
            if f.on_send() == SendPlan::Disconnect {
                disconnects += 1;
                assert_eq!(i % 5, 0, "disconnect off-schedule at send {i}");
            }
        }
        assert_eq!(disconnects, 4);
    }
}
