//! Prints the canonical report of one seed (first argument, default 11)
//! for every dimension in the table, then what the driver reports for a
//! failing seed: the durable dimension on disks that drop their fsyncs.
//! Run it twice and `cmp` the outputs to check the determinism contract.

use psc_harness::dimension;
use psc_harness::durable::Durable;

fn main() {
    let seed = std::env::args().nth(1).map_or(11, |arg| arg.parse().expect("seed is a u64"));
    for row in dimension::table() {
        println!("==== {} seed {seed} ====\n{}", row.name, (row.replay)(seed).0);
    }
    let broken = Durable { drop_syncs: true };
    println!("==== broken control ====\n{}", dimension::check(&broken, 0).unwrap_err());
}
