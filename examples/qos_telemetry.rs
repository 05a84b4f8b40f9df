//! Transmission semantics under full observability (§3.1.2 + psc-telemetry).
//!
//! A sensor node feeds a monitoring station over a slow link:
//!
//! - routine readings are `Timely` — stale data is worthless, so a reading
//!   whose TTL runs out in transit is dropped by the station on arrival;
//! - alarms are `Prioritary` — they leave ahead of the readings published
//!   with them;
//! - audit records are `Certified` — they must survive the station
//!   crashing and recovering.
//!
//! The whole run records into one `psc-telemetry` registry and tracer:
//! at the end the example prints the live metric snapshot (stack-wide
//! counters, including the codec's global-registry instrumentation) and
//! replays the causal hop-by-hop path of the alarm's wire-carried trace id.
//!
//! Run with `cargo run --example qos_telemetry`.

use std::sync::{Arc, Mutex};

use javaps::dace::{DaceConfig, DaceNode};
use javaps::obvent::builtin::{Certified, Prioritary, Timely};
use javaps::pubsub::{obvent, FilterSpec};
use javaps::simnet::{Duration, LatencyModel, NodeId, SimConfig, SimNet, SimTime};
use javaps::telemetry::{Registry, TraceStage, Tracer};

obvent! {
    /// Routine reading: expires `ttl_ms` after it is published.
    pub class Reading implements [Timely] {
        sensor: String,
        value: f64,
        ttl_ms: u64,
        birth_ms: u64,
    }
}

obvent! {
    /// Alarm: sent ahead of lower-priority obvents.
    pub class Alarm implements [Prioritary] {
        sensor: String,
        message: String,
        priority: i32,
    }
}

obvent! {
    /// Audit record: certified delivery across crashes.
    pub class AuditRecord implements [Certified] {
        seq: u64,
        entry: String,
    }
}

fn main() {
    // Opt the process-global registry in: the codec's encode/decode
    // counters start accumulating from here on.
    javaps::telemetry::set_global_enabled(true);

    // One registry and one tracer for the whole deployment — both nodes
    // record into them, so a single snapshot covers the full run and a
    // trace id can be followed across the sensor→station hop.
    let telemetry = Arc::new(Registry::new());
    let tracer = Arc::new(Tracer::default());

    // Every message takes 10 ms from sensor to station: a very slow link.
    let config = DaceConfig::default();
    let mut sim = SimNet::new(SimConfig {
        latency: LatencyModel::Fixed(Duration::from_millis(10)),
        ..SimConfig::with_seed(7)
    });
    let ids: Vec<NodeId> = vec![NodeId(0), NodeId(1)];
    for name in ["sensor", "station"] {
        sim.add_node(
            name,
            DaceNode::factory_with_telemetry(
                ids.clone(),
                config.clone(),
                Arc::clone(&telemetry),
                Arc::clone(&tracer),
            ),
        );
    }
    let (sensor, station) = (ids[0], ids[1]);

    let readings: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
    let arrivals: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let audits: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let (r, a, au) = (readings.clone(), arrivals.clone(), audits.clone());
    let a2 = arrivals.clone();
    DaceNode::drive(&mut sim, station, move |domain| {
        let s1 = domain.subscribe(FilterSpec::accept_all(), move |x: Reading| {
            r.lock().unwrap().push(*x.value());
            a.lock().unwrap().push(format!("reading {}", x.value()));
        });
        s1.activate().unwrap();
        s1.detach();
        let s2 = domain.subscribe(FilterSpec::accept_all(), move |x: Alarm| {
            a2.lock().unwrap().push(format!("ALARM {}", x.message()));
        });
        s2.activate().unwrap();
        s2.detach();
        let s3 = domain.subscribe(FilterSpec::accept_all(), move |x: AuditRecord| {
            au.lock().unwrap().push(*x.seq());
        });
        s3.activate_with_id(1).unwrap();
        s3.detach();
    });
    sim.run_until(SimTime::from_millis(10));

    // Burst of readings, then an alarm published last but needed first:
    // the alarm leaves first. Readings alternate a 5 ms and a 25 ms TTL,
    // so the 10 ms link outlasts exactly the short ones.
    DaceNode::drive(&mut sim, sensor, |domain| {
        for i in 0..5u64 {
            let ttl_ms = if i % 2 == 0 { 5 } else { 25 };
            domain
                .publish(Reading::new("temp".into(), 20.0 + i as f64, ttl_ms, 0))
                .unwrap();
        }
        domain
            .publish(Alarm::new("temp".into(), "overheat".into(), 100))
            .unwrap();
    });
    // The alarm was the sensor's most recent publish: capture its
    // wire-carried trace id before anything else is published.
    let alarm_trace = DaceNode::last_trace_of(&mut sim, sensor);
    assert!(!alarm_trace.is_none(), "the publish must have minted a trace id");
    sim.run_until(SimTime::from_millis(400));

    let order = arrivals.lock().unwrap().clone();
    println!("arrival order at the station: {order:?}");
    assert!(
        order.first().is_some_and(|first| first.starts_with("ALARM")),
        "the prioritary alarm must arrive first"
    );
    let delivered_readings = readings.lock().unwrap().len();
    // Counted by the station, whose on-arrival check drops them.
    let expired = telemetry.snapshot().counter("dace.expired");
    println!("readings delivered: {delivered_readings}/5, expired in transit: {expired}");
    assert!(delivered_readings < 5, "some readings must expire");
    assert_eq!(delivered_readings, 2, "exactly the 25 ms readings arrive");
    assert_eq!(expired as usize, 5 - delivered_readings);

    // One traced publish path: every hop of the alarm, across both nodes,
    // in virtual-time order — publish at the sensor, filter evaluation,
    // transmit-queue entry, arrival and handler dispatch at the station.
    println!("\ntrace of the alarm ({alarm_trace}):");
    let path = tracer.events_for(alarm_trace);
    print!("{}", tracer.render_path(alarm_trace));
    assert!(
        path.iter().any(|e| e.stage == TraceStage::Publish),
        "trace must start at the publish hop"
    );
    assert!(
        path.iter().any(|e| e.stage == TraceStage::Deliver),
        "trace must reach the station's handler dispatch"
    );

    // Audit records survive a station crash.
    DaceNode::drive(&mut sim, sensor, |domain| {
        domain.publish(AuditRecord::new(1, "calibration".into())).unwrap();
    });
    sim.run_until(sim.now() + Duration::from_millis(100));
    sim.crash(station);
    DaceNode::drive(&mut sim, sensor, |domain| {
        domain
            .publish(AuditRecord::new(2, "fault detected".into()))
            .unwrap();
    });
    sim.run_until(sim.now() + Duration::from_millis(200));
    sim.recover(station);
    let audits_after: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let au2 = audits_after.clone();
    DaceNode::drive(&mut sim, station, move |domain| {
        let s = domain.subscribe(FilterSpec::accept_all(), move |x: AuditRecord| {
            au2.lock().unwrap().push(*x.seq());
        });
        s.activate_with_id(1).unwrap();
        s.detach();
    });
    sim.run_until(sim.now() + Duration::from_secs(2));

    println!(
        "\naudit records before crash: {:?}, recovered after crash: {:?}",
        audits.lock().unwrap(),
        audits_after.lock().unwrap()
    );
    assert_eq!(*audits.lock().unwrap(), vec![1]);
    assert_eq!(
        *audits_after.lock().unwrap(),
        vec![2],
        "the certified record published during the crash must arrive"
    );

    // Live metric snapshot: the registry survived the station's crash (it
    // models an external collector), so the counters cover the whole run.
    let snapshot = telemetry.snapshot();
    println!("\nstack metrics (registry snapshot):");
    print!("{}", snapshot.render_text());
    assert_eq!(snapshot.counter("dace.published"), 8, "5 readings + 1 alarm + 2 audits");
    assert_eq!(snapshot.counter("dace.channel.qos_telemetry::Alarm.published"), 1);
    assert!(snapshot.counter("dace.expired") >= 1, "some readings expired");
    assert!(
        snapshot.counter("group.reliable.retransmits") > 0,
        "the audit published into the crash must have been retransmitted"
    );

    // The codec's counters live in the process-global registry.
    let global = javaps::telemetry::global().snapshot();
    println!(
        "codec: {} encodes / {} bytes, {} decodes / {} bytes",
        global.counter("codec.encodes"),
        global.counter("codec.encode_bytes"),
        global.counter("codec.decodes"),
        global.counter("codec.decode_bytes"),
    );
    assert!(global.counter("codec.encodes") > 0);

    println!("\nqos_telemetry OK");
}
