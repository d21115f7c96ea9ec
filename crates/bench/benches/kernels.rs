//! Microbenchmarks of the simulation kernels every experiment leans on:
//! the event queue, the image-method ray tracer, phased-array synthesis,
//! pattern lookups, the PER model, the frame detector and the TCP pump.

use mmwave_bench::{bench, black_box, CountingAlloc};
use mmwave_capture::trace::{SegmentTag, TraceSegment};
use mmwave_capture::{
    detect_frames, detect_frames_reference, DetectorConfig, SampleScratch, SignalTrace,
};
use mmwave_geom::{trace_paths, trace_paths_reference, Angle, Material, Point, Room, TraceConfig};
use mmwave_phy::{ArrayConfig, Codebook, McsTable, PhasedArray, SynthScratch};
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::queue::EventQueue;
use mmwave_sim::rng::SimRng;
use mmwave_sim::time::{SimDuration, SimTime};

/// Count heap-allocation events per iteration — the zero-steady-state
/// assertions below depend on this (`allocs_per_iter` in the JSON).
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn bench_event_queue() {
    // Each row reuses one queue across iterations, so its heap buffer is
    // warm. Allocation events are deterministic, so the budget is exact,
    // like IDLE_LINK_ALLOCS: a warm queue never allocates.
    const WARM_QUEUE_ALLOCS: f64 = 0.0;
    let ctx = SimCtx::new();
    let mut q = EventQueue::with_ctx(&ctx);
    let r = bench("event_queue/schedule_pop_10k", || {
        for i in 0..10_000u64 {
            q.schedule(SimTime::from_nanos((i * 7919) % 100_000), i);
        }
        let mut acc = 0u64;
        while let Some((_, v)) = q.pop() {
            acc = acc.wrapping_add(v);
        }
        acc
    });
    assert!(
        r.allocs_per_iter <= WARM_QUEUE_ALLOCS,
        "event_queue/schedule_pop_10k: {} allocations per iteration, budget {WARM_QUEUE_ALLOCS}",
        r.allocs_per_iter
    );
    // The idle-link beacon exchange that makes up all of `fig14`'s
    // events: the dock's beacon tick starts its beacon (scheduling the
    // frame end) and re-arms itself one beacon interval ahead; the
    // beacon's end schedules the station's reply a SIFS later, and the
    // reply's start schedules its own end. At most two events are
    // pending, and every event but the far beacon tick sorts first.
    let mut q = EventQueue::with_ctx(&ctx);
    let r = bench("event_queue/mac_exchange", || {
        const BEACON_INTERVAL: SimDuration = SimDuration::from_micros(1_100);
        const BEACON_AIR: SimDuration = SimDuration::from_micros(10);
        const SIFS: SimDuration = SimDuration::from_micros(3);
        // Payload: 0 beacon tick, 1 beacon end, 2 reply start, 3 reply end.
        q.schedule(SimTime::ZERO, 0u64);
        let mut acc = 0u64;
        for _ in 0..10_000u32 {
            let Some((t, kind)) = q.pop() else { break };
            acc = acc.wrapping_add(t.as_nanos() ^ kind);
            match kind {
                0 => {
                    q.schedule(t + BEACON_AIR, 1);
                    q.schedule(t + BEACON_INTERVAL, 0);
                }
                1 => q.schedule(t + SIFS, 2),
                2 => q.schedule(t + BEACON_AIR, 3),
                _ => {}
            }
        }
        while let Some((_, kind)) = q.pop() {
            acc = acc.wrapping_add(kind);
        }
        acc
    });
    assert!(
        r.allocs_per_iter <= WARM_QUEUE_ALLOCS,
        "event_queue/mac_exchange: {} allocations per iteration, budget {WARM_QUEUE_ALLOCS}",
        r.allocs_per_iter
    );
    // Dense interleaved timers across 64 flows, in the MAC's exchange
    // shape: each send arms a timeout tagged with the send's sequence
    // number, and the reply, due first, supersedes it by clearing the
    // flow's pending sequence. The superseded timeout still pops and is
    // dropped by the sequence check, as `Net` drops a stale CTS or ACK
    // timeout; every 16th reply is lost, so some timeouts fire for real.
    // With a MAC slot boundary per flow this keeps about 192 events
    // pending: deeper than any paper experiment except `enterprise`.
    let mut q = EventQueue::with_ctx(&ctx);
    let r = bench("event_queue/dense_timers_64flows", || {
        const FLOWS: u64 = 64;
        const IDLE: u64 = u64::MAX;
        // Payload: (seq << 8) | (flow << 2) | kind; kind 0 send, 1 reply,
        // 2 timeout, 3 MAC slot boundary.
        let ev = |seq: u64, f: u64, kind: u64| seq << 8 | f << 2 | kind;
        let mut pending = [IDLE; FLOWS as usize];
        let mut next_seq = 0u64;
        for f in 0..FLOWS {
            q.schedule(SimTime::from_nanos(1_000 + f * 37), ev(0, f, 0));
            q.schedule(SimTime::from_nanos(5_000 + f * 53), ev(0, f, 3));
        }
        let mut acc = 0u64;
        for _ in 0..20_000u32 {
            let Some((t, v)) = q.pop() else { break };
            acc = acc.wrapping_add(v);
            let (seq, f) = (v >> 8, v >> 2 & (FLOWS - 1));
            match v & 3 {
                0 => {
                    let sent = next_seq;
                    next_seq += 1;
                    pending[f as usize] = sent;
                    q.schedule(t + SimDuration::from_nanos(1_500), ev(sent, f, 2));
                    if sent % 16 != 15 {
                        q.schedule(t + SimDuration::from_nanos(1_000), ev(sent, f, 1));
                    }
                }
                1 => {
                    pending[f as usize] = IDLE;
                    q.schedule(t + SimDuration::from_nanos(357), ev(0, f, 0));
                }
                2 if pending[f as usize] == seq => {
                    // Timeout actually fired (lost reply): back off.
                    pending[f as usize] = IDLE;
                    q.schedule(t + SimDuration::from_nanos(2_357), ev(0, f, 0));
                }
                2 => {} // superseded by the reply
                _ => {
                    q.schedule(t + SimDuration::from_nanos(4_096 + f * 17), v);
                }
            }
        }
        while let Some((_, v)) = q.pop() {
            acc = acc.wrapping_add(v);
        }
        acc
    });
    assert!(
        r.allocs_per_iter <= WARM_QUEUE_ALLOCS,
        "event_queue/dense_timers_64flows: {} allocations per iteration, budget {WARM_QUEUE_ALLOCS}",
        r.allocs_per_iter
    );
}

fn bench_raytrace() {
    let room = Room::rectangular(
        9.0,
        3.25,
        (
            Material::Wood,
            Material::Glass,
            Material::Brick,
            Material::Brick,
        ),
    );
    let cfg = TraceConfig::default();
    bench("raytrace/conference_room_order2", || {
        trace_paths(
            &room,
            black_box(Point::new(0.5, 1.3)),
            black_box(Point::new(8.5, 1.3)),
            &cfg,
        )
    });
    // Dense-deployment shape: 100 distinct links through one room. The
    // mirror expansion is shared — the image tree is built on the first
    // pair and every later pair only pays candidate walk + validation,
    // which is what makes multi-link floors affordable.
    bench("raytrace/shared_tree_100links", || {
        let mut acc = 0usize;
        for i in 0..100u32 {
            let t = 0.08 + (i as f64) * 0.084;
            let src = Point::new(0.3 + t, 0.4 + (i % 7) as f64 * 0.35);
            let dst = Point::new(8.7 - t, 2.8 - (i % 5) as f64 * 0.45);
            acc += trace_paths(&room, black_box(src), black_box(dst), &cfg).len();
        }
        acc
    });
    // Same-phase oracle row: the per-pair reference enumeration on the
    // identical 100 links. The shared_tree/reference median ratio within
    // one run is the phase-independent speedup evidence (absolute medians
    // swing with host performance phase; see DESIGN.md).
    bench("raytrace/reference_100links", || {
        let mut acc = 0usize;
        for i in 0..100u32 {
            let t = 0.08 + (i as f64) * 0.084;
            let src = Point::new(0.3 + t, 0.4 + (i % 7) as f64 * 0.35);
            let dst = Point::new(8.7 - t, 2.8 - (i % 5) as f64 * 0.45);
            acc += trace_paths_reference(&room, black_box(src), black_box(dst), &cfg).len();
        }
        acc
    });
}

fn bench_array_synthesis() {
    let array = PhasedArray::new(ArrayConfig::wigig_2x8(13));
    bench("phy/steered_pattern", || {
        array.steered_pattern(black_box(Angle::from_degrees(17.0)))
    });
    // Same-phase oracle row: the scalar reference synthesis on identical
    // weights. The steered_pattern/reference ratio within one run is the
    // phase-independent speedup evidence.
    let w = array.steering_weights(Angle::from_degrees(17.0));
    bench("phy/steered_pattern_reference", || {
        array.pattern_from_weights_reference(black_box(&w))
    });
    // Steady-state synthesis into reused scratch and output: after the
    // warm-up call every buffer has its final capacity, so the kernel must
    // never touch the allocator again.
    {
        let mut scratch = SynthScratch::default();
        let mut out = vec![0.0f64; mmwave_phy::AntennaPattern::DEFAULT_SAMPLES];
        array.pattern_samples_into(&mut scratch, &w, &mut out);
        let r = bench("phy/pattern_samples_into_warm", || {
            array.pattern_samples_into(&mut scratch, black_box(&w), &mut out);
            out[0]
        });
        assert_eq!(
            r.allocs_per_iter, 0.0,
            "pattern_samples_into allocated in steady state"
        );
    }
    // Hit path: after the first iteration every call is a cache lookup
    // plus an `Arc` clone of the sector table.
    let ctx = SimCtx::new();
    bench("phy/directional_codebook_32", || {
        Codebook::directional_default(&ctx, &array)
    });
    // Cold path: a fresh context each iteration has an empty codebook
    // cache, so this measures raw 32-sector synthesis through the
    // steering basis.
    bench("phy/directional_codebook_32_cold", || {
        Codebook::directional_default(&SimCtx::new(), &array)
    });
    let pattern = array.steered_pattern(Angle::ZERO);
    let mut deg = 0.0;
    bench("phy/pattern_gain_lookup", move || {
        deg += 0.37;
        pattern.gain_dbi(Angle::from_degrees(deg))
    });
}

fn bench_per() {
    let table = McsTable::ieee_802_11ad();
    let mut snr = 0.0;
    bench("phy/per_evaluation", move || {
        snr += 0.01;
        table.get(11).per(10.0 + (snr % 15.0), 86_352, -71.5)
    });
}

fn bench_detector() {
    // A 1 ms trace with 20 frames, sampled at 100 MS/s.
    let mut trace = SignalTrace::new(SimTime::ZERO, SimTime::from_millis(1), 0.01);
    for i in 0..20u64 {
        trace.push(TraceSegment {
            start: SimTime::from_micros(i * 50 + 5),
            end: SimTime::from_micros(i * 50 + 25),
            amplitude_v: 0.3,
            tag: SegmentTag {
                source: 0,
                class: 3,
            },
        });
    }
    let mut rng = SimRng::root(1).stream("bench");
    let (period, samples) = trace.sample(1e8, &mut rng);
    bench("capture/detect_100k_samples", || {
        detect_frames(
            black_box(&samples),
            period,
            SimTime::ZERO,
            0.01,
            &DetectorConfig::default(),
        )
    });
    // Same-phase oracle row for the chunked detector.
    bench("capture/detect_reference_100k_samples", || {
        detect_frames_reference(
            black_box(&samples),
            period,
            SimTime::ZERO,
            0.01,
            &DetectorConfig::default(),
        )
    });
    // Steady-state sampling into reused scratch and output buffers: must
    // stay allocation-free once the buffers reached their final capacity.
    {
        let mut rng3 = SimRng::root(3).stream("bench3");
        let mut scratch = SampleScratch::default();
        let mut out = Vec::new();
        trace.sample_into(1e8, &mut rng3, &mut scratch, &mut out);
        let r = bench("capture/sample_into_warm", || {
            trace.sample_into(1e8, &mut rng3, &mut scratch, &mut out);
            out.len()
        });
        assert_eq!(
            r.allocs_per_iter, 0.0,
            "SignalTrace::sample_into allocated in steady state"
        );
    }
    // Same-phase oracle row for the chunked sampler.
    let mut rng_ref = SimRng::root(2).stream("bench2");
    bench("capture/sample_1ms_trace_reference", || {
        trace.sample_reference(1e8, &mut rng_ref)
    });
    let mut rng2 = SimRng::root(2).stream("bench2");
    let r = bench("capture/sample_1ms_trace", move || {
        trace.sample(1e8, &mut rng2)
    });
    // The trace spans 1 ms of simulated time; a software scope that can't
    // synthesize samples at least as fast as the signal it models makes
    // capture experiments the campaign bottleneck. Hard-fail the bench
    // run rather than silently committing a below-real-time baseline.
    assert!(
        r.median_ns <= 1_000_000.0,
        "capture/sample_1ms_trace below real time: median {:.0} ns for 1 ms of trace",
        r.median_ns
    );
}

/// The radiometric link-gain cache around `Medium::begin_tx` and beam
/// training. Four `begin_tx` variants isolate the cache states: a cold
/// cache (fresh medium, paths untraced), a warm cache (every gain is one
/// table lookup), bypass mode (identical bookkeeping, gains recomputed
/// from the interned paths on every call — the uncached "before"
/// number), and the refill right after a full invalidation.
fn bench_link_cache() {
    use mmwave_channel::{CacheMode, Environment, LinkGainCache};
    use mmwave_mac::frame::{FrameKind, Mpdu};
    use mmwave_mac::medium::Medium;
    use mmwave_mac::{training, Device, Frame, PatKey};

    let room = Room::rectangular(
        9.0,
        3.25,
        (
            Material::Wood,
            Material::Glass,
            Material::Brick,
            Material::Brick,
        ),
    );
    let env = Environment::new(room);
    let ctx = SimCtx::new();
    let devices = vec![
        Device::wigig_dock(&ctx, "dock", Point::new(0.5, 1.0), Angle::ZERO, 13),
        Device::wigig_laptop(
            &ctx,
            "l1",
            Point::new(6.0, 1.5),
            Angle::from_degrees(180.0),
            11,
        ),
        Device::wigig_laptop(
            &ctx,
            "l2",
            Point::new(3.0, 2.5),
            Angle::from_degrees(-90.0),
            11,
        ),
        Device::wigig_laptop(
            &ctx,
            "l3",
            Point::new(8.0, 0.5),
            Angle::from_degrees(150.0),
            11,
        ),
    ];
    let offs = vec![0.0; devices.len()];
    let frame = || Frame {
        src: 0,
        dst: Some(1),
        kind: FrameKind::Data {
            mpdus: vec![Mpdu {
                bytes: 1500,
                tag: 0,
            }],
            mcs: 11,
            retry: 0,
        },
        seq: 1,
    };
    let one_tx = |m: &mut Medium| {
        let id = m.begin_tx(
            &env,
            &devices,
            frame(),
            PatKey::Dir(16),
            0.0,
            SimTime::ZERO,
            SimTime::from_micros(5),
            &offs,
        );
        m.finish_tx(id, |_| -68.0).expect("tx exists").power_at[1]
    };

    bench("link/begin_tx_cold_fresh_medium", || {
        let mut m = Medium::with_ctx(&SimCtx::new());
        one_tx(&mut m)
    });

    let mut warm = Medium::with_ctx(&SimCtx::new());
    one_tx(&mut warm);
    bench("link/begin_tx_warm", move || one_tx(&mut warm));

    // The same warm cycle with every buffer recycled: the finished
    // transmission's power vector goes back to the medium's pool and the
    // MPDU vector shuttles between frame and bench, so a steady-state
    // begin_tx/finish_tx round trip never touches the allocator.
    {
        let (env_r, dev_r, offs_r) = (&env, &devices, &offs);
        let mut recycled = Medium::with_ctx(&SimCtx::new());
        one_tx(&mut recycled);
        let mut mpdus = vec![Mpdu {
            bytes: 1500,
            tag: 0,
        }];
        let r = bench("link/begin_tx_warm_recycled", move || {
            let id = recycled.begin_tx(
                env_r,
                dev_r,
                Frame {
                    src: 0,
                    dst: Some(1),
                    kind: FrameKind::Data {
                        mpdus: std::mem::take(&mut mpdus),
                        mcs: 11,
                        retry: 0,
                    },
                    seq: 1,
                },
                PatKey::Dir(16),
                0.0,
                SimTime::ZERO,
                SimTime::from_micros(5),
                offs_r,
            );
            let tx = recycled.finish_tx(id, |_| -68.0).expect("tx exists");
            let p = tx.power_at[1];
            if let FrameKind::Data { mpdus: m, .. } = tx.frame.kind {
                mpdus = m;
            }
            recycled.recycle_power(tx.power_at);
            p
        });
        assert_eq!(
            r.allocs_per_iter, 0.0,
            "warm begin_tx/finish_tx cycle allocated in steady state"
        );
    }

    let bypass_ctx = SimCtx::with_cache_mode(CacheMode::Bypass);
    let mut bypass = Medium::with_ctx(&bypass_ctx);
    one_tx(&mut bypass);
    bench("link/begin_tx_bypass", move || one_tx(&mut bypass));

    let mut inval = Medium::with_ctx(&SimCtx::new());
    one_tx(&mut inval);
    bench("link/begin_tx_after_invalidate_all", move || {
        inval.link_cache_mut().invalidate_all();
        one_tx(&mut inval)
    });

    // Beam training: a warm retrain is one memoized sector-table lookup;
    // bypass rebuilds the full 32×32 table every sweep.
    let (env_ref, a, b) = (&env, &devices[0], &devices[1]);
    let mut cache = LinkGainCache::with_ctx(&SimCtx::new());
    training::best_pair_with(&mut cache, env_ref, a, 0, b, 1);
    bench("training/best_pair_warm", move || {
        training::best_pair_with(&mut cache, env_ref, a, 0, b, 1).rx_dbm
    });
    let mut scratch = LinkGainCache::with_ctx(&bypass_ctx);
    bench("training/best_pair_bypass", move || {
        training::best_pair_with(&mut scratch, env_ref, a, 0, b, 1).rx_dbm
    });
}

/// The spatial interference graph under steady device motion: every
/// iteration moves one station (grid re-bucket + zone re-derivation) and
/// runs one `begin_tx` over a 32-station floor, where the grid walk
/// evaluates only the in-room neighborhood and bulk-prunes the rest.
fn bench_spatial() {
    use mmwave_channel::spatial::{PruneMode, SpatialConfig};
    use mmwave_channel::Environment;
    use mmwave_geom::Segment;
    use mmwave_mac::frame::{FrameKind, Mpdu};
    use mmwave_mac::medium::Medium;
    use mmwave_mac::{Device, Frame, PatKey};

    // Four closed brick offices in a row, eight stations each.
    let mut room = Room::open_space();
    for r in 0..4 {
        let x0 = r as f64 * 4.4;
        let (x1, y1) = (x0 + 4.0, 3.0);
        let corners = [
            (Point::new(x0, 0.0), Point::new(x1, 0.0)),
            (Point::new(x1, 0.0), Point::new(x1, y1)),
            (Point::new(x1, y1), Point::new(x0, y1)),
            (Point::new(x0, y1), Point::new(x0, 0.0)),
        ];
        for (i, (a, b)) in corners.into_iter().enumerate() {
            room.add_obstacle(Segment::new(a, b), Material::Brick, format!("o{r}-{i}"));
        }
        room.add_zone(Point::new(x0, 0.0), Point::new(x1, y1));
    }
    let env = Environment::new(room);
    let ctx = SimCtx::new();
    let mut devices = Vec::new();
    let mut positions = Vec::new();
    for r in 0..4 {
        let x0 = r as f64 * 4.4;
        for k in 0..8 {
            let p = Point::new(x0 + 0.5 + (k % 4) as f64 * 0.9, 0.6 + (k / 4) as f64 * 1.8);
            devices.push(Device::wigig_laptop(
                &ctx,
                &format!("s{r}-{k}"),
                p,
                Angle::ZERO,
                11,
            ));
            positions.push(p);
        }
    }
    let offs = vec![0.0; devices.len()];
    let mut medium = Medium::with_ctx(&ctx);
    medium.enable_spatial(
        &env,
        &SpatialConfig::default(),
        PruneMode::Enforce,
        &positions,
    );
    let mut flip = false;
    bench("medium/interference_graph_update", move || {
        flip = !flip;
        let p = if flip {
            Point::new(1.1, 2.4)
        } else {
            Point::new(2.9, 0.6)
        };
        medium.note_device_position(&env, 0, p);
        let id = medium.begin_tx(
            &env,
            &devices,
            Frame {
                src: 0,
                dst: Some(1),
                kind: FrameKind::Data {
                    mpdus: vec![Mpdu {
                        bytes: 1500,
                        tag: 0,
                    }],
                    mcs: 11,
                    retry: 0,
                },
                seq: 1,
            },
            PatKey::Dir(16),
            0.0,
            SimTime::ZERO,
            SimTime::from_micros(5),
            &offs,
        );
        medium.finish_tx(id, |_| -68.0).expect("tx exists").power_at[1]
    });
}

/// One frame on the `enterprise` floor: 228 stations in 18 closed
/// offices (absorber walls and a metal cabinet each, six dock–laptop
/// links per office and a WiHD pair in every third), the medium spatially
/// pruned. The source's coupled set and its link gains are warm and its
/// power buffer is recycled, so a frame costs its own office's receivers
/// and never touches the allocator.
fn bench_dense_floor() {
    use mmwave_channel::spatial::{PruneMode, SpatialConfig};
    use mmwave_channel::Environment;
    use mmwave_geom::Segment;
    use mmwave_mac::frame::{FrameKind, Mpdu};
    use mmwave_mac::medium::Medium;
    use mmwave_mac::{Device, Frame, PatKey};

    let mut room = Room::open_space();
    let ctx = SimCtx::new();
    let mut devices = Vec::new();
    for ry in 0..3 {
        for rx in 0..6 {
            let (x0, y0) = (rx as f64 * 6.4, ry as f64 * 4.4);
            let (x1, y1) = (x0 + 6.0, y0 + 4.0);
            let corners = [
                (Point::new(x0, y0), Point::new(x1, y0)),
                (Point::new(x1, y0), Point::new(x1, y1)),
                (Point::new(x1, y1), Point::new(x0, y1)),
                (Point::new(x0, y1), Point::new(x0, y0)),
            ];
            for (i, (a, b)) in corners.into_iter().enumerate() {
                room.add_obstacle(
                    Segment::new(a, b),
                    Material::Absorber,
                    format!("o{rx}{ry}-{i}"),
                );
            }
            room.add_obstacle(
                Segment::new(
                    Point::new(x0 + 0.15, y0 + 1.2),
                    Point::new(x0 + 0.15, y0 + 2.8),
                ),
                Material::Metal,
                format!("cabinet{rx}{ry}"),
            );
            room.add_zone(Point::new(x0, y0), Point::new(x1, y1));
            for k in 0..6 {
                let x = x0 + 0.8 + k as f64 * 0.88;
                let up = Angle::from_degrees(90.0);
                devices.push(Device::wigig_dock(
                    &ctx,
                    "d",
                    Point::new(x, y0 + 0.6),
                    up,
                    13,
                ));
                let down = Angle::from_degrees(-90.0);
                let p = Point::new(x + 0.3, y1 - 0.6);
                devices.push(Device::wigig_laptop(&ctx, "l", p, down, 11));
            }
            if (rx + ry) % 3 == 0 {
                let (p, q) = (
                    Point::new(x0 + 1.0, y0 + 2.0),
                    Point::new(x1 - 0.8, y0 + 2.0),
                );
                devices.push(Device::wihd_source(&ctx, "s", p, Angle::ZERO, 5));
                let west = Angle::from_degrees(180.0);
                devices.push(Device::wihd_sink(&ctx, "k", q, west, 7));
            }
        }
    }
    assert_eq!(devices.len(), 228);
    let env = Environment::new(room);
    let positions: Vec<Point> = devices.iter().map(|d| d.node.position).collect();
    let offs = vec![0.0; devices.len()];
    let mut medium = Medium::with_ctx(&ctx);
    medium.enable_spatial(
        &env,
        &SpatialConfig::default(),
        PruneMode::Enforce,
        &positions,
    );
    let mut mpdus = vec![Mpdu {
        bytes: 1500,
        tag: 0,
    }];
    let mut one_frame = || {
        let id = medium.begin_tx(
            &env,
            &devices,
            Frame {
                src: 0,
                dst: Some(1),
                kind: FrameKind::Data {
                    mpdus: std::mem::take(&mut mpdus),
                    mcs: 11,
                    retry: 0,
                },
                seq: 1,
            },
            PatKey::Dir(16),
            0.0,
            SimTime::ZERO,
            SimTime::from_micros(5),
            &offs,
        );
        let tx = medium.finish_tx(id, |_| -68.0).expect("tx exists");
        let p = tx.power_at[1];
        if let FrameKind::Data { mpdus: m, .. } = tx.frame.kind {
            mpdus = m;
        }
        medium.recycle_power(tx.power_at);
        p
    };
    one_frame();
    let r = bench("medium/begin_tx_dense_floor", one_frame);
    assert_eq!(
        r.allocs_per_iter, 0.0,
        "medium/begin_tx_dense_floor allocated in steady state"
    );
}

fn bench_mac_second() {
    use mmwave_channel::Environment;
    use mmwave_mac::{Device, Net, NetConfig};
    // One context across iterations: what we measure is the MAC idle
    // link, not codebook synthesis (bench_array_synthesis covers cold).
    let ctx = SimCtx::new();
    let r = bench("mac/idle_link_100ms", move || {
        let mut net = Net::with_ctx(
            Environment::new(Room::open_space()),
            NetConfig {
                seed: 1,
                enable_fading: false,
                ..NetConfig::default()
            },
            &ctx,
        );
        let dock = net.add_device(Device::wigig_dock(
            net.ctx(),
            "d",
            Point::new(0.0, 0.0),
            Angle::ZERO,
            13,
        ));
        let laptop = net.add_device(Device::wigig_laptop(
            net.ctx(),
            "l",
            Point::new(2.0, 0.0),
            Angle::from_degrees(180.0),
            11,
        ));
        net.associate_instantly(dock, laptop);
        net.run_until(SimTime::from_millis(100));
        net.txlog().len()
    });
    // Allocation events are deterministic, so the budget is exact: a new
    // `Net` plus 100 ms of beacons costs IDLE_LINK_ALLOCS and no more (the
    // event queue's heap reuses its buffer).
    const IDLE_LINK_ALLOCS: f64 = 45.0;
    assert!(
        r.allocs_per_iter <= IDLE_LINK_ALLOCS,
        "mac/idle_link_100ms: {} allocations per iteration, budget {IDLE_LINK_ALLOCS}",
        r.allocs_per_iter
    );
}

fn bench_tcp_second() {
    use mmwave_channel::Environment;
    use mmwave_mac::{Device, Net, NetConfig};
    use mmwave_transport::{CcKind, Stack, TcpConfig};
    // One kernel per congestion algorithm plus the historical default
    // (Reno via the config default). The default and the explicit Reno
    // kernel must track each other: any gap is trait-dispatch overhead.
    //
    // Allocation events are deterministic, so each budget is exact, like
    // IDLE_LINK_ALLOCS: building the `Net` and `Stack` plus 100 ms of
    // saturated TCP. The data path itself reuses its MPDU, power and
    // delivery buffers, so a 1 s run allocates about as often as a 100 ms
    // one.
    let variants: [(&'static str, Option<CcKind>, f64); 4] = [
        ("transport/tcp_100ms_full_rate", None, 60.0),
        ("transport/tcp_100ms_reno", Some(CcKind::Reno), 60.0),
        ("transport/tcp_100ms_cubic", Some(CcKind::Cubic), 60.0),
        (
            "transport/tcp_100ms_rate_probe",
            Some(CcKind::RateProbe),
            52.0,
        ),
    ];
    for (name, cc, budget) in variants {
        let ctx = SimCtx::new();
        let r = bench(name, move || {
            let mut net = Net::with_ctx(
                Environment::new(Room::open_space()),
                NetConfig {
                    seed: 1,
                    enable_fading: false,
                    ..NetConfig::default()
                },
                &ctx,
            );
            net.txlog_mut().set_enabled(false);
            let dock = net.add_device(Device::wigig_dock(
                net.ctx(),
                "d",
                Point::new(0.0, 0.0),
                Angle::ZERO,
                13,
            ));
            let laptop = net.add_device(Device::wigig_laptop(
                net.ctx(),
                "l",
                Point::new(2.0, 0.0),
                Angle::from_degrees(180.0),
                11,
            ));
            net.associate_instantly(dock, laptop);
            let mut stack = Stack::new(net);
            let flow = stack.add_flow(TcpConfig {
                cc,
                ..TcpConfig::bulk(dock, laptop, 256 * 1024)
            });
            stack.run_until(SimTime::from_millis(100));
            stack.flow_stats(flow).bytes_acked
        });
        assert!(
            r.allocs_per_iter <= budget,
            "{name}: {} allocations per iteration, budget {budget}",
            r.allocs_per_iter
        );
    }
}

fn bench_campaign() {
    use mmwave_campaign::json::Json;
    use mmwave_campaign::{artifact, manifest, RunRecord, RunStatus};
    use mmwave_sim::metrics::EngineCounters;
    // Per-chunk costs of the control plane on one representative chunk:
    // the encoder (every executed task, and every record again in the
    // summary render), the decoder (every chunk a --resume skips) and the
    // FNV-1a hash (once on append, once per --resume verify). The chunk
    // is rendered once outside the hash and decode loops, so each row
    // measures one layer only.
    let record = RunRecord {
        experiment: "fig23".into(),
        title: "TCP loss under reflected interference".into(),
        seed: 7,
        quick: false,
        scenario: "office-floor".into(),
        status: RunStatus::Pass,
        violations: Vec::new(),
        output: "series loss_pct: 19.7 18.9 21.2 20.4\n".repeat(40),
        panic_message: None,
        wall_ms: 1234.5,
        engine: EngineCounters {
            events_popped: 4_812_331,
            peak_queue_depth: 911,
            link_gain_hits: 88_104,
            ..EngineCounters::default()
        },
    };
    let chunk = artifact::run_to_json(&record).render();
    bench("campaign/decode_chunk", || {
        let doc = Json::parse(black_box(&chunk)).expect("rendered chunk parses");
        artifact::run_from_json(&doc).expect("rendered chunk decodes")
    });
    bench("campaign/encode_chunk", || {
        artifact::run_to_json(black_box(&record)).render()
    });
    bench("campaign/manifest_hash_chunk", move || {
        manifest::fnv1a64(black_box(chunk.as_bytes()))
    });
}

fn main() {
    bench_event_queue();
    bench_raytrace();
    bench_array_synthesis();
    bench_per();
    bench_detector();
    bench_link_cache();
    bench_spatial();
    bench_dense_floor();
    bench_mac_second();
    bench_tcp_second();
    bench_campaign();

    // Machine-readable trajectory at the repo root, committed alongside
    // the code so perf history travels with `git log`. `BENCH_OUT` lets
    // the regression gate write a scratch file without clobbering the
    // committed baseline it compares against.
    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| default_out.to_string());
    match mmwave_bench::write_json(std::path::Path::new(&out)) {
        Ok(()) => println!("\nwrote {out}"),
        Err(e) => eprintln!("\nfailed to write {out}: {e}"),
    }
}
