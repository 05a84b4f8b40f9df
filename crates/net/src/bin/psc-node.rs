//! `psc-node` — one DACE cluster member on the socket transport.
//!
//! Static-cluster deployment CLI: every process gets the same
//! `--cluster 0=host:port,1=host:port,…` map plus its own `--id`. The
//! node joins the cluster, optionally subscribes and publishes, then
//! reports what it saw — scripted mode is what the CI loopback smoke
//! drives; `--interactive` gives a small REPL for poking a live cluster by
//! hand.
//!
//! ```text
//! psc-node --id 0 --cluster 0=127.0.0.1:7900,1=127.0.0.1:7901,2=127.0.0.1:7902 \
//!     --subscribe --run-ms 2000
//! psc-node --id 1 --cluster … --publish 10 --run-ms 2000
//! ```
//!
//! Scripted mode prints one machine-readable line at exit:
//! `RESULT node=<id> published=<n> delivered=<n>`.

use std::io::BufRead;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration as StdDuration;

use psc_dace::DaceConfig;
use psc_filter::rfilter;
use psc_net::{ClusterSpec, DaceEndpoint};
use psc_obvent::builtin::{Certified, Reliable};
use psc_obvent::declare_obvent_model;
use psc_simnet::{Duration, NodeId};
use pubsub_core::FilterSpec;

declare_obvent_model! {
    /// The cluster's demo obvent: a tagged value, reliably disseminated.
    pub class NetEvent implements [Reliable] { tag: u64, value: i64 }
}
declare_obvent_model! {
    /// The durable demo obvent: certified delivery, so with `--data-dir`
    /// a killed and restarted subscriber resumes the stream exactly once.
    pub class CertEvent implements [Certified] { tag: u64, value: i64 }
}

struct Args {
    id: u64,
    cluster: String,
    subscribe: bool,
    filter: String,
    publish: u64,
    pub_interval_ms: u64,
    run_ms: u64,
    snapshot: Option<String>,
    inspect: bool,
    interactive: bool,
    certified: bool,
    data_dir: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: psc-node --id <n> --cluster <id=host:port,...> [options]\n\
         \n\
         options:\n\
           --subscribe              install a NetEvent subscription\n\
           --filter <none|negative|large>  content filter for --subscribe (default none)\n\
           --publish <n>            publish n NetEvents (tag=0..n, value=tag-50)\n\
           --pub-interval-ms <ms>   spacing between publishes (default 20)\n\
           --run-ms <ms>            scripted run length after connect (default 2000)\n\
           --snapshot <path>        write the final telemetry snapshot JSON to <path>\n\
           --inspect                print the node+transport state report at exit\n\
           --interactive            REPL on stdin: sub | pub <value> | snapshot | metrics |\n\
                                    inspect | quit (snapshot = consistent cluster cut,\n\
                                    metrics = telemetry counters)\n\
           --certified              use certified CertEvents; --subscribe becomes a durable\n\
                                    subscription (durable id = 100 + node id)\n\
           --data-dir <path>        persist the write-ahead log under <path>: a killed and\n\
                                    restarted process resumes its durable channels"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        id: u64::MAX,
        cluster: String::new(),
        subscribe: false,
        filter: "none".to_string(),
        publish: 0,
        pub_interval_ms: 20,
        run_ms: 2000,
        snapshot: None,
        inspect: false,
        interactive: false,
        certified: false,
        data_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let value = |it: &mut dyn Iterator<Item = String>| {
            it.next().unwrap_or_else(|| usage())
        };
        match arg.as_str() {
            "--id" => args.id = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--cluster" => args.cluster = value(&mut it),
            "--subscribe" => args.subscribe = true,
            "--filter" => args.filter = value(&mut it),
            "--publish" => args.publish = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--pub-interval-ms" => {
                args.pub_interval_ms = value(&mut it).parse().unwrap_or_else(|_| usage())
            }
            "--run-ms" => args.run_ms = value(&mut it).parse().unwrap_or_else(|_| usage()),
            "--snapshot" => args.snapshot = Some(value(&mut it)),
            "--inspect" => args.inspect = true,
            "--interactive" => args.interactive = true,
            "--certified" => args.certified = true,
            "--data-dir" => args.data_dir = Some(value(&mut it)),
            _ => usage(),
        }
    }
    if args.id == u64::MAX || args.cluster.is_empty() {
        usage();
    }
    args
}

fn filter_spec(name: &str) -> FilterSpec<NetEvent> {
    match name {
        "none" => FilterSpec::accept_all(),
        "negative" => FilterSpec::remote(rfilter!(value < 0)),
        "large" => FilterSpec::remote(rfilter!(value > 50)),
        other => {
            eprintln!("unknown filter {other:?}");
            usage();
        }
    }
}

fn install_subscription(endpoint: &DaceEndpoint, filter: String) -> Arc<AtomicU64> {
    let delivered = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&delivered);
    endpoint.with_domain(move |domain| {
        let sub = domain.subscribe(filter_spec(&filter), move |_e: NetEvent| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        sub.activate().expect("activate subscription");
        sub.detach();
    });
    delivered
}

/// Durable subscription to the certified demo class: re-attaching under
/// the same durable id after a restart resumes the stream exactly once.
fn install_durable_subscription(endpoint: &DaceEndpoint, durable_id: u64) -> Arc<AtomicU64> {
    let delivered = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&delivered);
    endpoint.with_domain(move |domain| {
        let sub = domain.subscribe(FilterSpec::accept_all(), move |_e: CertEvent| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        sub.activate_with_id(durable_id).expect("activate durable subscription");
        sub.detach();
    });
    delivered
}

fn publish_one(endpoint: &DaceEndpoint, certified: bool, tag: u64, value: i64) {
    endpoint.with_domain(move |domain| {
        if certified {
            domain.publish(CertEvent::new(tag, value)).expect("publish CertEvent");
        } else {
            domain.publish(NetEvent::new(tag, value)).expect("publish NetEvent");
        }
    });
}

fn main() {
    let args = parse_args();
    let spec = match ClusterSpec::parse(&args.cluster) {
        Ok(spec) => spec,
        Err(err) => {
            eprintln!("psc-node: {err}");
            std::process::exit(2);
        }
    };
    let id = NodeId(args.id);
    let mut net = match spec.config_for(id) {
        Ok(net) => net,
        Err(err) => {
            eprintln!("psc-node: {err}");
            std::process::exit(2);
        }
    };
    net.data_dir = args.data_dir.as_ref().map(std::path::PathBuf::from);
    // Keep the default simulation-tuned intervals: a subscription-set
    // digest every 200ms (and a pull on mismatch) keeps late joiners and
    // restarted peers converging on a real wire too.
    let dace = DaceConfig {
        watchdog: Some(Duration::from_millis(200)),
        ..DaceConfig::default()
    };
    let endpoint = match DaceEndpoint::start(net, spec.ids(), dace) {
        Ok(endpoint) => endpoint,
        Err(err) => {
            eprintln!("psc-node: bind failed: {err}");
            std::process::exit(1);
        }
    };
    eprintln!("psc-node: n{} listening on {}", args.id, endpoint.local_addr());
    if !endpoint.wait_connected(StdDuration::from_secs(30)) {
        eprintln!("psc-node: peers not reachable after 30s; continuing (reconnect stays on)");
    }

    let delivered = if args.subscribe && args.certified {
        Some(install_durable_subscription(&endpoint, 100 + args.id))
    } else if args.subscribe {
        Some(install_subscription(&endpoint, args.filter.clone()))
    } else {
        None
    };

    if args.interactive {
        interactive(&endpoint, delivered.as_ref());
        return;
    }

    // Let subscription announcements propagate before the first publish.
    std::thread::sleep(StdDuration::from_millis(300));
    for tag in 0..args.publish {
        publish_one(&endpoint, args.certified, tag, tag as i64 - 50);
        std::thread::sleep(StdDuration::from_millis(args.pub_interval_ms));
    }
    std::thread::sleep(StdDuration::from_millis(args.run_ms));

    if args.inspect {
        println!("{}", endpoint.inspect());
    }
    if let Some(path) = &args.snapshot {
        let json = endpoint.metrics().render_json();
        if let Err(err) = std::fs::write(path, json) {
            eprintln!("psc-node: snapshot write failed: {err}");
        }
    }
    let delivered_count = delivered.map(|d| d.load(Ordering::SeqCst)).unwrap_or(0);
    println!(
        "RESULT node={} published={} delivered={}",
        args.id, args.publish, delivered_count
    );
    endpoint.shutdown();
}

fn interactive(endpoint: &DaceEndpoint, delivered: Option<&Arc<AtomicU64>>) {
    let counter = delivered.cloned().unwrap_or_else(|| {
        install_subscription(endpoint, "none".to_string())
    });
    let stdin = std::io::stdin();
    let mut next_tag = 0u64;
    eprintln!(
        "psc-node: interactive — sub | pub <value> | snapshot | metrics | inspect | quit"
    );
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(line) => line,
            Err(_) => break,
        };
        let mut words = line.split_whitespace();
        match words.next() {
            Some("pub") => {
                let value: i64 = words.next().and_then(|w| w.parse().ok()).unwrap_or(0);
                publish_one(endpoint, false, next_tag, value);
                next_tag += 1;
                println!("published tag={} value={}", next_tag - 1, value);
            }
            Some("sub") => {
                println!("delivered so far: {}", counter.load(Ordering::SeqCst));
            }
            Some("snapshot") => {
                // A cluster-wide Chandy–Lamport cut: this node initiates
                // the wave and prints the assembled byte-stable image.
                match endpoint.snapshot_capture(std::time::Duration::from_secs(5)) {
                    Some(render) => print!("{render}"),
                    None => println!("snapshot: wave did not complete within 5s"),
                }
            }
            Some("metrics") => print!("{}", endpoint.metrics().render_text()),
            Some("inspect") => println!("{}", endpoint.inspect()),
            Some("quit") | Some("exit") => break,
            Some(other) => println!("unknown command {other:?}"),
            None => {}
        }
    }
    endpoint.shutdown();
}
