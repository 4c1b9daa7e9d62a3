//! Protocol state-machine micro-benchmarks: how many frames per second
//! each endpoint can process (relevant because the paper's links run at
//! 300 Mbps–1 Gbps: at 1 kB frames that is 36k–120k frames/s each way).
//! (The wire codec kernel lives in `bench_suite`'s micro suite.)

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use lams_dlc::{
    CheckPoint, ControlFrame, Frame, LamsConfig, PacketId, Receiver, Resequencer, RxStatus, Sender,
};
use sim_core::{Duration, Instant};
use std::hint::black_box;

const CYCLE: u64 = 256;

/// One LAMS sender cycle: push + transmit `CYCLE` frames, then process
/// the covering checkpoint.
fn lams_sender_cycle(c: &mut Criterion) {
    let mut g = c.benchmark_group("lams_sender");
    g.throughput(Throughput::Elements(CYCLE));
    let payload = Bytes::from(vec![0u8; 1024]);
    g.bench_function("push_tx_ack_256", |b| {
        b.iter_batched(
            || {
                let mut s = Sender::new(LamsConfig::paper_default());
                s.start(Instant::ZERO);
                s
            },
            |mut s| {
                let mut now = Instant::ZERO;
                for i in 0..CYCLE {
                    s.push(PacketId(i), payload.clone()).unwrap();
                }
                for _ in 0..CYCLE {
                    if let Some(t) = s.poll_timeout() {
                        now = now.max(t);
                    }
                    black_box(s.poll_transmit(now));
                }
                let cp = Frame::Control(ControlFrame::CheckPoint(CheckPoint {
                    index: 1,
                    covered: CYCLE,
                    naks: vec![],
                    enforced: false,
                    probe: None,
                    stop_go: lams_dlc::StopGo::Go,
                }));
                s.handle_frame(now + Duration::from_millis(30), cp, RxStatus::Ok);
                while black_box(s.poll_event()).is_some() {}
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// One LAMS receiver cycle: accept `CYCLE` frames, emit a checkpoint,
/// drain deliveries.
fn lams_receiver_cycle(c: &mut Criterion) {
    let mut g = c.benchmark_group("lams_receiver");
    g.throughput(Throughput::Elements(CYCLE));
    let payload = Bytes::from(vec![0u8; 1024]);
    g.bench_function("rx_deliver_cp_256", |b| {
        b.iter_batched(
            || {
                let mut r = Receiver::new(LamsConfig::paper_default());
                r.start(Instant::ZERO);
                r
            },
            |mut r| {
                let mut now = Instant::ZERO;
                for i in 1..=CYCLE {
                    now += Duration::from_micros(27);
                    r.handle_frame(
                        now,
                        Frame::Info(lams_dlc::InfoFrame {
                            seq: i,
                            packet_id: PacketId(i),
                            payload: payload.clone(),
                        }),
                        RxStatus::Ok,
                    );
                }
                r.on_timeout(now + Duration::from_millis(5));
                black_box(r.poll_transmit(now));
                let t = now + Duration::from_millis(10);
                while black_box(r.poll_deliver(t)).is_some() {}
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn hdlc_sender_cycle(c: &mut Criterion) {
    let mut g = c.benchmark_group("hdlc_sender");
    g.throughput(Throughput::Elements(CYCLE));
    let payload = Bytes::from(vec![0u8; 1024]);
    g.bench_function("push_tx_ack_256", |b| {
        b.iter_batched(
            || {
                let mut s = hdlc::SrSender::new(hdlc::HdlcConfig::paper_default());
                s.start(Instant::ZERO);
                s
            },
            |mut s| {
                let mut now = Instant::ZERO;
                for i in 0..CYCLE {
                    s.push(i, payload.clone());
                }
                for _ in 0..CYCLE {
                    if let Some(t) = s.poll_timeout() {
                        now = now.max(t);
                    }
                    black_box(s.poll_transmit(now));
                }
                s.handle_frame(
                    now + Duration::from_millis(30),
                    hdlc::HdlcFrame::Rr {
                        nr: CYCLE,
                        fin: true,
                    },
                    hdlc::RxStatus::Ok,
                );
                while black_box(s.poll_event()).is_some() {}
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn resequencer(c: &mut Criterion) {
    let mut g = c.benchmark_group("resequencer");
    g.throughput(Throughput::Elements(1024));
    g.bench_function("reorder_1k_stride", |b| {
        b.iter(|| {
            let mut r = Resequencer::new(0);
            let mut out = Vec::new();
            // Worst-ish case: arrive in two interleaved halves.
            for i in (0..1024u64).step_by(2) {
                r.offer_into(PacketId(i), Bytes::new(), &mut out);
            }
            for i in (1..1024u64).step_by(2) {
                r.offer_into(PacketId(i), Bytes::new(), &mut out);
            }
            black_box(out);
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    lams_sender_cycle,
    lams_receiver_cycle,
    hdlc_sender_cycle,
    resequencer
);
criterion_main!(benches);
