//! The per-pass correctness digest: a 64-bit FNV-1a hash over everything a
//! pass must reproduce exactly — containment, alerts, custody, the per-kind
//! communication bill and the transport counters.

use rfid_dist::{DistributedOutcome, MessageKind};

/// FNV-1a, 64 bit: small, dependency-free and stable across builds.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }
}

/// Digest of one distributed outcome.
pub fn digest(outcome: &DistributedOutcome) -> u64 {
    let mut h = Fnv::new();
    h.u64(outcome.containment.len() as u64);
    for (object, container) in outcome.containment.iter() {
        h.u64(object.raw());
        h.u64(container.raw());
    }
    h.u64(outcome.alerts.len() as u64);
    for alert in &outcome.alerts {
        h.bytes(alert.query.as_bytes());
        h.u64(alert.tag.raw());
        h.u64(u64::from(alert.since.0));
        h.u64(u64::from(alert.at.0));
    }
    h.u64(outcome.ons.len() as u64);
    for (tag, site) in outcome.ons.iter() {
        h.u64(tag.raw());
        h.u64(u64::from(site.0));
    }
    for kind in MessageKind::ALL {
        h.u64(outcome.comm.bytes_of_kind(kind) as u64);
        h.u64(outcome.comm.messages_of_kind(kind) as u64);
    }
    let t = &outcome.transport;
    for counter in [
        t.envelopes,
        t.transmissions,
        t.retransmissions,
        t.acks,
        t.duplicates_dropped,
        t.reconciled,
        t.stale_dropped,
        t.abandoned,
        t.resyncs,
        t.quarantined,
    ] {
        h.u64(counter);
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_dist::{DistributedConfig, DistributedDriver, MigrationStrategy};
    use rfid_sim::presets;

    #[test]
    fn digest_is_executor_independent_and_strategy_sensitive() {
        let chain = presets::smoke_chain(900, 3, None);
        let run = |strategy, workers| {
            DistributedDriver::new(DistributedConfig {
                strategy,
                num_workers: workers,
                ..Default::default()
            })
            .run(&chain)
        };
        let sequential = digest(&run(MigrationStrategy::CollapsedWeights, 1));
        assert_eq!(
            sequential,
            digest(&run(MigrationStrategy::CollapsedWeights, 2))
        );
        assert_ne!(sequential, digest(&run(MigrationStrategy::None, 1)));
    }
}
