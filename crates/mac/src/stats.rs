//! Per-device counters.

/// Counters a device accumulates over a run. These are the MAC-level
//  ground truth the capture-based analyses are validated against.
#[derive(Clone, Copy, Debug, Default)]
pub struct DevStats {
    /// Frames transmitted (all classes).
    pub frames_tx: u64,
    /// Data PPDUs transmitted (including retransmissions).
    pub data_tx: u64,
    /// Data PPDUs that were retransmissions.
    pub data_retx: u64,
    /// MPDUs delivered to this device.
    pub mpdus_rx: u64,
    /// Payload bytes delivered to this device.
    pub bytes_rx: u64,
    /// ACKs received (as transmitter).
    pub acks_rx: u64,
    /// ACK timeouts experienced (frame presumed lost).
    pub ack_timeouts: u64,
    /// MPDU batches dropped after the retry limit.
    pub drops: u64,
    /// TXOP attempts deferred because the medium was sensed busy.
    pub cs_defers: u64,
    /// Frames that arrived with a failed PER draw (corrupted).
    pub rx_corrupted: u64,
    /// Beacons transmitted.
    pub beacons_tx: u64,
    /// Discovery sweeps transmitted.
    pub discovery_sweeps: u64,
    /// Beam retrainings performed (association + realignments).
    pub retrains: u64,
    /// Cumulative airtime of transmitted frames (all classes), ns.
    pub tx_airtime_ns: u64,
}

impl DevStats {
    /// Frame loss ratio among transmitted data PPDUs.
    pub fn data_loss_ratio(&self) -> f64 {
        if self.data_tx == 0 {
            0.0
        } else {
            self.ack_timeouts as f64 / self.data_tx as f64
        }
    }
}

/// A folded MAC-level measurement the transport layer reads per flow —
/// the off-datapath congestion plane's view of the link (airtime burned,
/// loss streak, association state). Snapshotted by
/// [`crate::Net::mac_measurement`]; the transport stack folds it into the
/// flow's next congestion report.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MacMeasurement {
    /// Fraction of elapsed run time this device spent transmitting.
    pub airtime_share: f64,
    /// Consecutive ACK timeouts at the MAC (loss-streak; resets on any
    /// delivered frame).
    pub ack_loss_streak: u8,
    /// True while the device holds a trained association.
    pub associated: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero() {
        let s = DevStats::default();
        assert_eq!(s.data_loss_ratio(), 0.0);
    }

    #[test]
    fn ratios_compute() {
        let s = DevStats {
            data_tx: 10,
            ack_timeouts: 2,
            data_retx: 3,
            ..Default::default()
        };
        assert!((s.data_loss_ratio() - 0.2).abs() < 1e-12);
    }
}
