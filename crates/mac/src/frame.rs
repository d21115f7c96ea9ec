//! Frames and their airtime.
//!
//! The paper never decodes a frame — it sees durations and amplitudes. The
//! model therefore keeps payloads abstract (byte counts and transport
//! tags) but computes airtime exactly: PHY overhead plus payload bits at
//! the frame's rate, which is what makes the ~5 µs single-MPDU /
//! 15–25 µs aggregated split of Fig. 9 fall out of MCS arithmetic.

use crate::params::{
    CONTROL_PHY_OVERHEAD, DATA_PHY_OVERHEAD, MPDU_OVERHEAD_BYTES, WIHD_PHY_RATE_BPS,
};
use mmwave_sim::time::SimDuration;

/// One MPDU queued for transmission: an opaque payload with a transport
/// cookie that rides along to the receiver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mpdu {
    /// Payload bytes (e.g. one TCP segment).
    pub bytes: u32,
    /// Transport-layer cookie, returned on delivery.
    pub tag: u64,
}

/// Coarse frame class recorded in the transmission log; this is the
/// ground-truth analogue of what the paper distinguishes by eye and by
/// amplitude in its traces.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum FrameClass {
    /// WiGig beacon (control PHY, quasi-omni).
    Beacon,
    /// One sub-element of a discovery sweep.
    DiscoverySub,
    /// RTS or CTS.
    Control,
    /// Data PPDU (possibly aggregated).
    Data,
    /// Acknowledgement.
    Ack,
    /// WiHD sink beacon.
    WihdBeacon,
    /// WiHD video data frame.
    WihdData,
    /// Association / sector-sweep handshake frames.
    Training,
}

impl FrameClass {
    /// The control-PHY classes, sent "with higher power" (§3.2). RTS/CTS
    /// (`Control`) and ACKs go out at MCS 1 and data power.
    pub fn uses_control_phy(self) -> bool {
        matches!(
            self,
            Self::Beacon | Self::DiscoverySub | Self::Training | Self::WihdBeacon
        )
    }

    /// Transmit power of a frame of this class over its device's data
    /// power, dB: the control-PHY classes carry [`CONTROL_POWER_OFFSET_DB`],
    /// the rest nothing. `Net::start_tx` applies it to every frame it
    /// sends, and analyses that recompute a logged frame's power read it
    /// here.
    pub fn extra_power_db(self) -> f64 {
        if self.uses_control_phy() {
            CONTROL_POWER_OFFSET_DB
        } else {
            0.0
        }
    }

    /// Stable numeric tag for capture-trace ground truth.
    pub fn as_u8(self) -> u8 {
        match self {
            FrameClass::Beacon => 0,
            FrameClass::DiscoverySub => 1,
            FrameClass::Control => 2,
            FrameClass::Data => 3,
            FrameClass::Ack => 4,
            FrameClass::WihdBeacon => 5,
            FrameClass::WihdData => 6,
            FrameClass::Training => 7,
        }
    }
}

/// What is being transmitted.
#[derive(Clone, Debug)]
pub enum FrameKind {
    /// WiGig beacon.
    Beacon,
    /// One sub-element of a discovery sweep, with its codebook index.
    DiscoverySub {
        /// Quasi-omni codebook entry used for this sub-element.
        pattern_idx: usize,
    },
    /// Request to send.
    Rts,
    /// Clear to send.
    Cts,
    /// Aggregated data PPDU.
    Data {
        /// The MPDUs on board.
        mpdus: Vec<Mpdu>,
        /// MCS index used.
        mcs: u8,
        /// Retry round (0 = first attempt).
        retry: u8,
    },
    /// Block acknowledgement.
    Ack,
    /// WiHD sink beacon.
    WihdBeacon,
    /// WiHD video data frame.
    WihdData {
        /// Payload bytes.
        bytes: u32,
    },
    /// Association handshake frame.
    Training,
}

impl FrameKind {
    /// The coarse class for logging.
    pub fn class(&self) -> FrameClass {
        match self {
            FrameKind::Beacon => FrameClass::Beacon,
            FrameKind::DiscoverySub { .. } => FrameClass::DiscoverySub,
            FrameKind::Rts | FrameKind::Cts => FrameClass::Control,
            FrameKind::Data { .. } => FrameClass::Data,
            FrameKind::Ack => FrameClass::Ack,
            FrameKind::WihdBeacon => FrameClass::WihdBeacon,
            FrameKind::WihdData { .. } => FrameClass::WihdData,
            FrameKind::Training => FrameClass::Training,
        }
    }
}

/// A frame on the air.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Transmitting device index.
    pub src: usize,
    /// Destination device index (None = broadcast-style).
    pub dst: Option<usize>,
    /// Content.
    pub kind: FrameKind,
    /// Monotonic sequence number (per network).
    pub seq: u64,
}

/// Control-PHY bit rate (27.5 Mb/s) used by beacons.
pub const CONTROL_PHY_BPS: u64 = 27_500_000;
/// MCS-1 rate used for RTS/CTS/ACK (robust short frames).
pub const BASE_RATE_BPS: u64 = 385_000_000;
/// Power boost of control/beacon/discovery frames over data frames, dB
/// (§3.2: control frames are "transmitted with higher power"). Read only
/// through [`FrameClass::extra_power_db`].
pub const CONTROL_POWER_OFFSET_DB: f64 = 6.0;

/// Airtime of a data PPDU with `mpdus` aggregated MPDUs at `rate_bps`.
pub fn data_airtime(mpdus: &[Mpdu], rate_bps: u64) -> SimDuration {
    DATA_PHY_OVERHEAD + SimDuration::for_bits(data_bits(mpdus), rate_bps)
}

/// Airtime of each frame kind; a discovery sub-element lasts its
/// device's `discovery_sub_dur`.
pub fn airtime(kind: &FrameKind, discovery_sub_dur: SimDuration) -> SimDuration {
    match kind {
        FrameKind::Beacon => CONTROL_PHY_OVERHEAD + SimDuration::for_bits(30 * 8, CONTROL_PHY_BPS),
        FrameKind::DiscoverySub { .. } => discovery_sub_dur,
        FrameKind::Rts => DATA_PHY_OVERHEAD + SimDuration::for_bits(20 * 8, BASE_RATE_BPS),
        FrameKind::Cts => DATA_PHY_OVERHEAD + SimDuration::for_bits(16 * 8, BASE_RATE_BPS),
        FrameKind::Data { mpdus, mcs, .. } => {
            let rate = mmwave_phy::McsTable::ieee_802_11ad().get(*mcs).rate_bps;
            data_airtime(mpdus, rate)
        }
        FrameKind::Ack => DATA_PHY_OVERHEAD + SimDuration::for_bits(14 * 8, BASE_RATE_BPS),
        FrameKind::WihdBeacon => {
            CONTROL_PHY_OVERHEAD + SimDuration::for_bits(24 * 8, CONTROL_PHY_BPS)
        }
        FrameKind::WihdData { bytes } => {
            DATA_PHY_OVERHEAD + SimDuration::for_bits(*bytes as u64 * 8, WIHD_PHY_RATE_BPS)
        }
        FrameKind::Training => {
            CONTROL_PHY_OVERHEAD + SimDuration::for_bits(25 * 8, CONTROL_PHY_BPS)
        }
    }
}

/// Total bits a data frame carries (for PER length scaling).
pub fn data_bits(mpdus: &[Mpdu]) -> u64 {
    mpdus
        .iter()
        .map(|m| (m.bytes + MPDU_OVERHEAD_BYTES) as u64 * 8)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mpdu_1500() -> Mpdu {
        Mpdu {
            bytes: 1500,
            tag: 0,
        }
    }

    #[test]
    fn single_mpdu_at_mcs11_is_about_5us() {
        // 1542 B = 12336 bits at 3.85 Gb/s ≈ 3.2 µs + 1.9 µs overhead ≈
        // 5.1 µs — the paper's "short" frame population.
        let kind = FrameKind::Data {
            mpdus: vec![mpdu_1500()],
            mcs: 11,
            retry: 0,
        };
        let d = airtime(&kind, SimDuration::from_micros(30));
        assert!((d.as_micros_f64() - 5.1).abs() < 0.3, "{d}");
    }

    #[test]
    fn max_aggregation_stays_within_25us() {
        // 7 MPDUs at MCS 11 ≈ 24.3 µs ≤ the observed 25 µs ceiling.
        let kind = FrameKind::Data {
            mpdus: vec![mpdu_1500(); 7],
            mcs: 11,
            retry: 0,
        };
        let d = airtime(&kind, SimDuration::from_micros(30));
        assert!(d <= SimDuration::from_micros(25), "{d}");
        assert!(d > SimDuration::from_micros(20), "{d}");
    }

    #[test]
    fn airtime_scales_with_mcs() {
        let hi = FrameKind::Data {
            mpdus: vec![mpdu_1500(); 2],
            mcs: 11,
            retry: 0,
        };
        let lo = FrameKind::Data {
            mpdus: vec![mpdu_1500(); 2],
            mcs: 6,
            retry: 0,
        };
        let sub = SimDuration::from_micros(30);
        assert!(airtime(&lo, sub) > airtime(&hi, sub) * 2);
    }

    #[test]
    fn control_frames_are_short() {
        let sub = SimDuration::from_micros(30);
        for kind in [FrameKind::Rts, FrameKind::Cts, FrameKind::Ack] {
            let d = airtime(&kind, sub);
            assert!(d < SimDuration::from_micros(3), "{d}");
            assert!(d > SimDuration::from_micros(1));
        }
    }

    #[test]
    fn beacon_duration() {
        // 30 B at 27.5 Mb/s + 3 µs ≈ 11.7 µs — prominent in the traces.
        let d = airtime(&FrameKind::Beacon, SimDuration::from_micros(30));
        assert!((d.as_micros_f64() - 11.7).abs() < 0.5, "{d}");
    }

    #[test]
    fn discovery_sub_uses_configured_duration() {
        let d = airtime(
            &FrameKind::DiscoverySub { pattern_idx: 5 },
            SimDuration::from_micros(30),
        );
        assert_eq!(d, SimDuration::from_micros(30));
    }

    #[test]
    fn wihd_data_at_fixed_phy_rate() {
        // 12 kB at 1.925 Gb/s ≈ 49.9 µs + 1.9 ≈ 51.8 µs.
        let d = airtime(
            &FrameKind::WihdData { bytes: 12_000 },
            SimDuration::from_micros(30),
        );
        assert!((d.as_micros_f64() - 51.8).abs() < 1.0, "{d}");
    }

    #[test]
    fn frame_classes_are_distinct() {
        use std::collections::HashSet;
        let kinds = [
            FrameKind::Beacon,
            FrameKind::DiscoverySub { pattern_idx: 0 },
            FrameKind::Rts,
            FrameKind::Data {
                mpdus: vec![],
                mcs: 1,
                retry: 0,
            },
            FrameKind::Ack,
            FrameKind::WihdBeacon,
            FrameKind::WihdData { bytes: 1 },
            FrameKind::Training,
        ];
        let tags: HashSet<u8> = kinds.iter().map(|k| k.class().as_u8()).collect();
        assert_eq!(tags.len(), 8);
    }

    #[test]
    fn data_bits_counts_overhead() {
        let bits = data_bits(&[mpdu_1500(), mpdu_1500()]);
        assert_eq!(bits, 2 * (1500 + 42) * 8);
    }
}
