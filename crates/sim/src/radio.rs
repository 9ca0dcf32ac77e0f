//! Radio model: unit-disk connectivity with per-node bandwidth, latency,
//! jitter and loss.
//!
//! The paper motivates its QoS requirements with "limited bandwidth and
//! transmission power of Mobile Nodes" (§abstract). The model here captures
//! the consequences the protocol layer sees:
//!
//! * **unit-disk connectivity** — a frame reaches exactly the nodes within
//!   `range` metres;
//! * **serialised transmissions** — each node's radio transmits one frame at
//!   a time at `bitrate_bps`, so queued control traffic delays data (this is
//!   the mechanism behind hot-spot formation on shared-tree baselines);
//! * **per-hop latency and jitter** — propagation plus MAC overhead;
//! * **loss** — independent Bernoulli frame loss per receiver.

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Radio parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RadioConfig {
    /// Transmission range (metres); unit-disk model.
    pub range: f64,
    /// Link bitrate in bits/second (802.11b-era 2 Mb/s by default, the
    /// common choice in 2005 MANET evaluations).
    pub bitrate_bps: f64,
    /// Fixed per-hop latency (propagation + MAC handshake).
    pub latency: SimDuration,
    /// Upper bound of uniform random extra delay per transmission.
    pub jitter: SimDuration,
    /// Independent frame-loss probability per receiver.
    pub loss_prob: f64,
    /// MAC-level retransmissions for *unicast* frames, all of which go
    /// through [`crate::ParCtx::send_reliable`]: up to `mac_retries` extra
    /// attempts after a lost frame, mirroring the IEEE 802.11 ACK/retry
    /// loop (broadcast frames have no MAC recovery, as in the real MAC).
    /// 0 makes every unicast a single attempt. Every attempt occupies the
    /// radio and is counted as overhead.
    pub mac_retries: u32,
    /// Transmit-queue cap (send-queue pacing): a send attempted while the
    /// node's radio already holds more than this much queued airtime is
    /// refused at the interface — never transmitted, counted in
    /// [`crate::Stats::drops_queue_full`] — modelling a finite interface
    /// queue. `ZERO` (the default) disables the cap: backlog grows
    /// unboundedly, exactly the pre-traffic-plane behaviour.
    pub max_queue: SimDuration,
}

impl Default for RadioConfig {
    fn default() -> Self {
        RadioConfig {
            range: 250.0,
            bitrate_bps: 2_000_000.0,
            latency: SimDuration::from_micros(500),
            jitter: SimDuration::from_micros(200),
            loss_prob: 0.0,
            mac_retries: 3,
            max_queue: SimDuration::ZERO,
        }
    }
}

impl RadioConfig {
    /// Time the radio is occupied transmitting a frame of `bytes` bytes.
    #[inline]
    pub fn tx_time(&self, bytes: usize) -> SimDuration {
        SimDuration(((bytes as f64 * 8.0 / self.bitrate_bps) * 1e6) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_scales_with_size() {
        let r = RadioConfig::default();
        // 2 Mb/s: 250 bytes = 2000 bits = 1 ms.
        assert_eq!(r.tx_time(250), SimDuration::from_millis(1));
        assert_eq!(r.tx_time(500).0, 2 * r.tx_time(250).0);
        assert_eq!(r.tx_time(0), SimDuration::ZERO);
    }

    #[test]
    fn default_is_2005_manet_ish() {
        let r = RadioConfig::default();
        assert_eq!(r.range, 250.0);
        assert_eq!(r.bitrate_bps, 2_000_000.0);
        assert_eq!(r.loss_prob, 0.0);
    }
}
