//! Protocol timing and policy constants.
//!
//! Everything the paper measures directly — Table 1's frame periodicities,
//! the 2 ms TXOP cap, the ~5 µs single-MPDU and ≤ 25 µs aggregated frame
//! durations — is pinned here as a constant of the consumer hardware, next
//! to the MAC policy values calibrated once against those anchors. The only
//! per-device settings left are [`WigigConfig`]'s, where the dock and the
//! laptop differ.

use mmwave_sim::time::SimDuration;

// ---------------------------------------------------------------------
// Timing shared by all 802.11ad-style devices
// ---------------------------------------------------------------------

/// Short interframe space.
pub const SIFS: SimDuration = SimDuration::from_micros(3);
/// Backoff slot time.
pub const SLOT: SimDuration = SimDuration::from_micros(5);
/// AIFS: the idle period required before contending (SIFS + 2 slots).
pub const AIFS: SimDuration = SimDuration::from_nanos(SIFS.as_nanos() + 2 * SLOT.as_nanos());
/// PHY preamble + header of a data-PHY frame.
pub const DATA_PHY_OVERHEAD: SimDuration = SimDuration::from_nanos(1_900);
/// PHY preamble + header of a control-PHY frame.
pub const CONTROL_PHY_OVERHEAD: SimDuration = SimDuration::from_micros(3);
/// MAC framing overhead per MPDU, bytes (header + FCS + delimiter).
pub const MPDU_OVERHEAD_BYTES: u32 = 42;
/// ACK wait after a data frame before declaring loss.
pub const ACK_TIMEOUT: SimDuration = SimDuration::from_micros(12);
/// Maximum retransmissions per MPDU batch before dropping.
pub const RETRY_LIMIT: u8 = 7;
/// Contention window a WiGig device opens with, and returns to after a
/// delivered ACK, slots.
pub const CW_MIN: u32 = 16;
/// Maximum contention window, slots.
pub const CW_MAX: u32 = 128;
/// Contention window both ends of a torn-down link restart with, slots.
/// It sits below [`CW_MIN`]; whether a re-associating link should back off
/// less than a fresh one is an open model question.
pub const CW_AFTER_LINK_BREAK: u32 = 8;
/// Energy threshold above which a WiGig device defers, dBm: the value
/// every device starts with in `Device::cs_threshold_dbm`.
pub const CS_THRESHOLD_DBM: f64 = -68.0;
/// Receiver-side clear-channel threshold for granting a CTS, dBm.
/// A receiver that senses strong foreign energy refuses the CTS; this
/// is how two mutually-hidden D5000 links share the medium through
/// their laptops (§3.2: "The Dell D5000 systems do not interfere with
/// each other since they use CSMA/CA"), and how WiHD bursts carve the
/// enlarged transmission gaps of Fig. 21. Weak foreign energy below
/// this level is *tolerated* — those overlaps are what produce the
/// paper's collision/retransmission regime.
pub const CTS_GRANT_THRESHOLD_DBM: f64 = -70.0;
/// Minimum SNR (dB) a WiGig link must sustain; below this the devices
/// drop the association instead of riding low MCS levels. The value is
/// the MCS-3 selection point (threshold + rate-adapter margin): the
/// dock's wireless-bus tunneling needs ≈ 1 Gb/s of PHY rate, so links
/// that cannot hold MCS 3 disconnect — reproducing §4.1's "links …
/// often break before the transmitter switches to rates below 1 gbps"
/// and the abrupt per-run throughput fall of Fig. 13.
pub const MIN_LINK_SNR_DB: f64 = 8.5;

// ---------------------------------------------------------------------
// WiGig (D5000 / laptop)
// ---------------------------------------------------------------------

/// Device-discovery sweep period (Table 1: 102.4 ms).
pub const WIGIG_DISCOVERY_INTERVAL: SimDuration = SimDuration::from_micros(102_400);
/// Sub-elements per discovery frame (Fig. 3: 32).
pub const WIGIG_DISCOVERY_SUB_ELEMENTS: usize = 32;
/// Duration of one discovery sub-element (frame ≈ 1 ms total).
pub const WIGIG_DISCOVERY_SUB_DURATION: SimDuration = SimDuration::from_micros(30);
/// Beacon exchange period when associated (Table 1: 1.1 ms).
pub const WIGIG_BEACON_INTERVAL: SimDuration = SimDuration::from_micros(1_100);
/// Hard PHY ceiling on one data PPDU's airtime (a safety net; the
/// operative limit is [`WigigConfig::max_aggregation`]). The paper's
/// observed 25 µs maximum is the 7-MPDU count limit *at MCS 11*; at lower
/// MCS the same 7 MPDUs take longer, which is what keeps an 8 m link at
/// full GigE throughput in Fig. 13.
pub const MAX_PPDU_DURATION: SimDuration = SimDuration::from_micros(160);
/// Longest a queued MPDU may wait for its batch to fill
/// ([`WigigConfig::min_aggregation`]).
pub const MAX_QUEUE_WAIT: SimDuration = SimDuration::from_micros(45);
/// Conducted power of a WiGig device relative to the shared link budget,
/// dB: the value `Device::tx_power_offset_db` starts with.
pub const WIGIG_TX_POWER_OFFSET_DB: f64 = 0.0;

/// WiGig device policy: the values where the dock and the laptop differ.
#[derive(Clone, Copy, Debug)]
pub struct WigigConfig {
    /// Maximum burst (TXOP) duration (§4.1: 2 ms).
    pub txop_max: SimDuration,
    /// Maximum MPDUs aggregated into one PPDU. The dock aggregates
    /// aggressively (7 × 1500 B ≈ 25 µs at MCS 11 — Fig. 9's ceiling); the
    /// laptop's WBE tunnel minimizes delay and caps at 2 (§4.4: "instead
    /// of aggregating data …, the transmitter sends a larger number of
    /// packets").
    pub max_aggregation: usize,
    /// Batch service: a data PPDU is launched only once this many MPDUs
    /// are queued *or* the head of the queue has waited [`MAX_QUEUE_WAIT`].
    /// This is what produces the paper's load-dependent aggregation
    /// (§4.1): at kb/s rates every frame is a lone MPDU; near the GigE cap
    /// almost every frame is full. The laptop sets 1 (no batching — §4.4's
    /// delay-minimizing WBE behaviour).
    pub min_aggregation: usize,
}

impl WigigConfig {
    /// The docking-station personality.
    pub fn dock() -> WigigConfig {
        WigigConfig {
            txop_max: SimDuration::from_millis(2),
            max_aggregation: 7,
            min_aggregation: 5,
        }
    }

    /// The laptop personality: delay-minimizing (no batching, low
    /// aggregation, short service bursts). §4.4: "instead of aggregating
    /// data to reduce the medium usage, the transmitter sends a larger
    /// number of packets" — each short burst re-arbitrates the channel,
    /// which is what exposes the laptop-to-dock flow to interference.
    pub fn laptop() -> WigigConfig {
        WigigConfig {
            txop_max: SimDuration::from_micros(300),
            max_aggregation: 2,
            min_aggregation: 1,
        }
    }
}

// ---------------------------------------------------------------------
// WiHD (DVDO Air-3c)
// ---------------------------------------------------------------------

/// Device-discovery period when unpaired (Table 1: 20 ms).
pub const WIHD_DISCOVERY_INTERVAL: SimDuration = SimDuration::from_millis(20);
/// Sub-elements per WiHD discovery frame (order shuffled every frame).
pub const WIHD_DISCOVERY_SUB_ELEMENTS: usize = 16;
/// Duration of one WiHD discovery sub-element.
pub const WIHD_DISCOVERY_SUB_DURATION: SimDuration = SimDuration::from_micros(25);
/// Sink beacon period (Table 1: 0.224 ms).
pub const WIHD_BEACON_INTERVAL: SimDuration = SimDuration::from_micros(224);
/// Longest single video data frame on air.
pub const WIHD_MAX_DATA_DURATION: SimDuration = SimDuration::from_micros(60);
/// Gap between consecutive data frames in a burst.
pub const WIHD_SBIFS: SimDuration = SimDuration::from_micros(1);
/// Guard left free before the next sink beacon.
pub const WIHD_BEACON_GUARD: SimDuration = SimDuration::from_micros(12);
/// The MCS whose error model prices WiHD video frames.
pub const WIHD_MCS: u8 = 7;
/// Fixed PHY rate of the video stream, bits/s: [`WIHD_MCS`]'s rate.
pub const WIHD_PHY_RATE_BPS: u64 = 1_925_000_000;
/// Mean video bitrate, bits/s (VBR around this).
pub const WIHD_VIDEO_RATE_BPS: u64 = 800_000_000;
/// Video frame cadence.
pub const WIHD_VIDEO_FRAME_INTERVAL: SimDuration = SimDuration::from_micros(16_667);
/// Conducted power of a WiHD device relative to the shared budget, dB —
/// WiHD modules run notably hotter than WiGig docks. The value
/// `Device::tx_power_offset_db` starts with.
pub const WIHD_TX_POWER_OFFSET_DB: f64 = 8.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_periodicities() {
        assert_eq!(WIGIG_DISCOVERY_INTERVAL, SimDuration::from_micros(102_400));
        assert_eq!(WIGIG_BEACON_INTERVAL, SimDuration::from_micros(1_100));
        assert_eq!(WIHD_DISCOVERY_INTERVAL, SimDuration::from_millis(20));
        assert_eq!(WIHD_BEACON_INTERVAL, SimDuration::from_micros(224));
    }

    #[test]
    fn discovery_frame_is_about_a_millisecond() {
        let total = WIGIG_DISCOVERY_SUB_DURATION * WIGIG_DISCOVERY_SUB_ELEMENTS as u32;
        assert_eq!(total, SimDuration::from_micros(960));
    }

    #[test]
    fn aifs_value() {
        assert_eq!(AIFS, SimDuration::from_micros(13));
        assert_eq!(AIFS, SIFS + SLOT * 2);
    }

    #[test]
    fn laptop_aggregates_less_than_dock() {
        assert!(WigigConfig::laptop().max_aggregation < WigigConfig::dock().max_aggregation);
    }

    #[test]
    fn wihd_duty_cycle_target() {
        // Video airtime + beacons must land near the measured 46 %
        // standalone utilization (§4.4).
        let video_duty = WIHD_VIDEO_RATE_BPS as f64 / WIHD_PHY_RATE_BPS as f64;
        let beacon_air = 10e-6; // ≈ beacon duration in seconds
        let beacon_duty = beacon_air / WIHD_BEACON_INTERVAL.as_secs_f64();
        let duty = video_duty + beacon_duty;
        assert!((0.40..=0.52).contains(&duty), "duty {duty}");
    }

    #[test]
    fn wihd_phy_rate_is_its_mcs_rate() {
        let mcs = mmwave_phy::McsTable::ieee_802_11ad();
        assert_eq!(WIHD_PHY_RATE_BPS, mcs.get(WIHD_MCS).rate_bps);
    }
}
