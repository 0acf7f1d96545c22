//! The transport schedule of every tree-shaped collective, pinned.
//!
//! Each case runs one collective on a traced 7-rank world with the default
//! (fault-free) plan and compares the rendered event stream — every send
//! with its destination, tag and fault flags, every receive with its source
//! — plus the per-rank results against constants recorded from the
//! reference implementation. A change to a tree, a merge order, a tag or a
//! send order shows up here as a diff, not as a silent change of bits.
//!
//! Streams whose receives are all directed are a pure function of the
//! script and are pinned whole. Where the root takes partials in arrival
//! order (the flat reduce, and the ping/partial phases of every `ft_*`
//! run), each non-root rank's events are still pinned exactly, the root's
//! sends are pinned in order, and the root's receives are pinned as a
//! sorted multiset without their logical timestamps.

use repro_mpisim::collectives::{self, ReduceConfig, ReduceTopology};
use repro_mpisim::{FaultError, FaultPlan, World};
use repro_obs::Event;
use repro_select::Tolerance;
use repro_sum::Algorithm;
use std::fmt::Debug;

const SIZE: usize = 7;

fn chunk(rank: usize) -> Vec<f64> {
    let values = repro_gen::zero_sum_with_range(SIZE * 40, 24, 7);
    values[rank * 40..(rank + 1) * 40].to_vec()
}

/// Integer data: exact in any merge order, so runs whose root merges in
/// arrival order still have pinnable results.
fn int_chunk(rank: usize) -> Vec<f64> {
    (0..40).map(|i| (rank * 40 + i) as f64).collect()
}

fn cfg(topology: ReduceTopology) -> ReduceConfig {
    ReduceConfig {
        topology,
        ..Default::default()
    }
}

/// Run `f` on a traced fault-free world; return its events and the
/// per-rank results rendered one per line.
fn traced<R: Debug + Send>(
    f: impl Fn(&mut repro_mpisim::Comm) -> Result<R, FaultError> + Sync,
) -> (Vec<Event>, String) {
    let (report, events) =
        World::run_report_traced(SIZE, &FaultPlan::default(), true, f).expect("valid world");
    let results = report
        .results
        .iter()
        .enumerate()
        .map(|(rank, r)| format!("rank{rank}: {r:?}\n"))
        .collect();
    (events, results)
}

/// The whole stream, then the results.
fn whole(events: &[Event], results: &str) -> String {
    repro_obs::render_jsonl(events) + results
}

/// Non-root ranks' events exactly; the root's sends in order and its
/// receives as a sorted multiset with `seq` left out; any other root event
/// exactly; then the results.
fn arrival_tolerant(events: &[Event], root: usize, results: &str) -> String {
    let root_sub = format!("rank{root}");
    let mut others = String::new();
    let mut root_sends = String::new();
    let mut root_recvs = Vec::new();
    let mut root_rest = String::new();
    for e in events {
        let json = e.to_json() + "\n";
        if e.sub != root_sub {
            others += &json;
        } else if e.kind == "send" {
            root_sends += &json;
        } else if e.kind == "recv" {
            root_recvs.push(json.replacen(&format!(",\"seq\":{}", e.seq), "", 1));
        } else {
            root_rest += &json;
        }
    }
    root_recvs.sort();
    format!(
        "{others}-- root sends\n{root_sends}-- root recvs\n{}-- root other\n{root_rest}{results}",
        root_recvs.concat()
    )
}

#[track_caller]
fn check(name: &str, actual: &str, expected: &str) {
    if actual != expected {
        panic!("{name}: schedule changed; actual:\n{actual}");
    }
}

fn blocking_reduce(topology: ReduceTopology, root: usize) -> (Vec<Event>, String) {
    traced(|c| {
        let mine = chunk(c.rank());
        let out = collectives::reduce_sum(c, &mine, Algorithm::Standard, root, &cfg(topology));
        Ok(out.map(f64::to_bits))
    })
}

fn ft_reduce(topology: ReduceTopology) -> (Vec<Event>, String) {
    traced(|c| {
        let mine = match topology {
            ReduceTopology::FlatArrival => int_chunk(c.rank()),
            _ => chunk(c.rank()),
        };
        let out = collectives::ft_reduce_sum(c, &mine, Algorithm::Standard, 0, &cfg(topology))?;
        Ok((out.value.map(f64::to_bits), out.survivors, out.rounds))
    })
}

#[test]
fn reduce_binomial_root0() {
    let (events, results) = blocking_reduce(ReduceTopology::Binomial, 0);
    check(
        "reduce binomial root 0",
        &whole(&events, &results),
        REDUCE_BINOMIAL_ROOT0,
    );
}

#[test]
fn reduce_binomial_root2() {
    let (events, results) = blocking_reduce(ReduceTopology::Binomial, 2);
    check(
        "reduce binomial root 2",
        &whole(&events, &results),
        REDUCE_BINOMIAL_ROOT2,
    );
}

#[test]
fn reduce_chain_root0() {
    let (events, results) = blocking_reduce(ReduceTopology::Chain, 0);
    check(
        "reduce chain root 0",
        &whole(&events, &results),
        REDUCE_CHAIN_ROOT0,
    );
}

#[test]
fn reduce_chain_root2() {
    let (events, results) = blocking_reduce(ReduceTopology::Chain, 2);
    check(
        "reduce chain root 2",
        &whole(&events, &results),
        REDUCE_CHAIN_ROOT2,
    );
}

fn flat_reduce(root: usize) -> (Vec<Event>, String) {
    traced(|c| {
        let mine = int_chunk(c.rank());
        let out = collectives::reduce_sum(
            c,
            &mine,
            Algorithm::Standard,
            root,
            &cfg(ReduceTopology::FlatArrival),
        );
        Ok(out.map(f64::to_bits))
    })
}

#[test]
fn reduce_flat_root0() {
    let (events, results) = flat_reduce(0);
    check(
        "reduce flat root 0",
        &arrival_tolerant(&events, 0, &results),
        REDUCE_FLAT_ROOT0,
    );
}

#[test]
fn reduce_flat_root2() {
    let (events, results) = flat_reduce(2);
    check(
        "reduce flat root 2",
        &arrival_tolerant(&events, 2, &results),
        REDUCE_FLAT_ROOT2,
    );
}

#[test]
fn allreduce_max() {
    let (events, results) = traced(|c| {
        let x = ((c.rank() * 5) % SIZE) as f64 * 1.5;
        Ok(collectives::allreduce_max(c, x).to_bits())
    });
    check("allreduce_max", &whole(&events, &results), ALLREDUCE_MAX);
}

#[test]
fn broadcast_root3() {
    let (events, results) = traced(|c| {
        let payload = (c.rank() == 3).then_some(0xC0FFEE_u64);
        Ok(collectives::broadcast(c, 3, payload))
    });
    check(
        "broadcast root 3",
        &whole(&events, &results),
        BROADCAST_ROOT3,
    );
}

#[test]
fn adaptive_reduce_bitwise() {
    let (events, results) = traced(|c| {
        let mine = chunk(c.rank());
        let out = collectives::adaptive_reduce_sum(
            c,
            &mine,
            Tolerance::Bitwise,
            0,
            &cfg(ReduceTopology::Binomial),
        );
        Ok(out.map(|(sum, algo)| (sum.to_bits(), algo)))
    });
    check(
        "adaptive_reduce_sum bitwise",
        &whole(&events, &results),
        ADAPTIVE_BITWISE,
    );
}

#[test]
fn ft_reduce_binomial() {
    let (events, results) = ft_reduce(ReduceTopology::Binomial);
    check(
        "ft_reduce_sum binomial",
        &arrival_tolerant(&events, 0, &results),
        FT_BINOMIAL,
    );
}

#[test]
fn ft_reduce_flat() {
    let (events, results) = ft_reduce(ReduceTopology::FlatArrival);
    check(
        "ft_reduce_sum flat",
        &arrival_tolerant(&events, 0, &results),
        FT_FLAT,
    );
}

#[test]
fn ft_reduce_chain() {
    let (events, results) = ft_reduce(ReduceTopology::Chain);
    check(
        "ft_reduce_sum chain",
        &arrival_tolerant(&events, 0, &results),
        FT_CHAIN,
    );
}

const REDUCE_BINOMIAL_ROOT0: &str = r#"{"sub":"rank0","seq":0,"kind":"recv","tag":9223372036854775809,"src":1}
{"sub":"rank0","seq":1,"kind":"recv","tag":9223372036854775809,"src":2}
{"sub":"rank0","seq":2,"kind":"recv","tag":9223372036854775809,"src":4}
{"sub":"rank1","seq":0,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank2","seq":0,"kind":"recv","tag":9223372036854775809,"src":3}
{"sub":"rank2","seq":1,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank3","seq":0,"kind":"send","to":2,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank4","seq":0,"kind":"recv","tag":9223372036854775809,"src":5}
{"sub":"rank4","seq":1,"kind":"recv","tag":9223372036854775809,"src":6}
{"sub":"rank4","seq":2,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank5","seq":0,"kind":"send","to":4,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank6","seq":0,"kind":"send","to":4,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
rank0: Ok(Some(13790022059008458752))
rank1: Ok(None)
rank2: Ok(None)
rank3: Ok(None)
rank4: Ok(None)
rank5: Ok(None)
rank6: Ok(None)
"#;
const REDUCE_BINOMIAL_ROOT2: &str = r#"{"sub":"rank0","seq":0,"kind":"send","to":6,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank1","seq":0,"kind":"send","to":6,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank2","seq":0,"kind":"recv","tag":9223372036854775809,"src":3}
{"sub":"rank2","seq":1,"kind":"recv","tag":9223372036854775809,"src":4}
{"sub":"rank2","seq":2,"kind":"recv","tag":9223372036854775809,"src":6}
{"sub":"rank3","seq":0,"kind":"send","to":2,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank4","seq":0,"kind":"recv","tag":9223372036854775809,"src":5}
{"sub":"rank4","seq":1,"kind":"send","to":2,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank5","seq":0,"kind":"send","to":4,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank6","seq":0,"kind":"recv","tag":9223372036854775809,"src":0}
{"sub":"rank6","seq":1,"kind":"recv","tag":9223372036854775809,"src":1}
{"sub":"rank6","seq":2,"kind":"send","to":2,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
rank0: Ok(None)
rank1: Ok(None)
rank2: Ok(Some(13790022059008458752))
rank3: Ok(None)
rank4: Ok(None)
rank5: Ok(None)
rank6: Ok(None)
"#;
const REDUCE_CHAIN_ROOT0: &str = r#"{"sub":"rank0","seq":0,"kind":"recv","tag":9223372036854775809,"src":1}
{"sub":"rank1","seq":0,"kind":"recv","tag":9223372036854775809,"src":2}
{"sub":"rank1","seq":1,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank2","seq":0,"kind":"recv","tag":9223372036854775809,"src":3}
{"sub":"rank2","seq":1,"kind":"send","to":1,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank3","seq":0,"kind":"recv","tag":9223372036854775809,"src":4}
{"sub":"rank3","seq":1,"kind":"send","to":2,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank4","seq":0,"kind":"recv","tag":9223372036854775809,"src":5}
{"sub":"rank4","seq":1,"kind":"send","to":3,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank5","seq":0,"kind":"recv","tag":9223372036854775809,"src":6}
{"sub":"rank5","seq":1,"kind":"send","to":4,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank6","seq":0,"kind":"send","to":5,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
rank0: Ok(Some(13790022059008458752))
rank1: Ok(None)
rank2: Ok(None)
rank3: Ok(None)
rank4: Ok(None)
rank5: Ok(None)
rank6: Ok(None)
"#;
const REDUCE_CHAIN_ROOT2: &str = r#"{"sub":"rank0","seq":0,"kind":"recv","tag":9223372036854775809,"src":1}
{"sub":"rank0","seq":1,"kind":"send","to":6,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank1","seq":0,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank2","seq":0,"kind":"recv","tag":9223372036854775809,"src":3}
{"sub":"rank3","seq":0,"kind":"recv","tag":9223372036854775809,"src":4}
{"sub":"rank3","seq":1,"kind":"send","to":2,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank4","seq":0,"kind":"recv","tag":9223372036854775809,"src":5}
{"sub":"rank4","seq":1,"kind":"send","to":3,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank5","seq":0,"kind":"recv","tag":9223372036854775809,"src":6}
{"sub":"rank5","seq":1,"kind":"send","to":4,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank6","seq":0,"kind":"recv","tag":9223372036854775809,"src":0}
{"sub":"rank6","seq":1,"kind":"send","to":5,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
rank0: Ok(None)
rank1: Ok(None)
rank2: Ok(Some(13790022059008458752))
rank3: Ok(None)
rank4: Ok(None)
rank5: Ok(None)
rank6: Ok(None)
"#;
const REDUCE_FLAT_ROOT0: &str = r#"{"sub":"rank1","seq":0,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank2","seq":0,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank3","seq":0,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank4","seq":0,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank5","seq":0,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank6","seq":0,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
-- root sends
-- root recvs
{"sub":"rank0","kind":"recv","tag":9223372036854775809,"src":1}
{"sub":"rank0","kind":"recv","tag":9223372036854775809,"src":2}
{"sub":"rank0","kind":"recv","tag":9223372036854775809,"src":3}
{"sub":"rank0","kind":"recv","tag":9223372036854775809,"src":4}
{"sub":"rank0","kind":"recv","tag":9223372036854775809,"src":5}
{"sub":"rank0","kind":"recv","tag":9223372036854775809,"src":6}
-- root other
rank0: Ok(Some(4675601179105820672))
rank1: Ok(None)
rank2: Ok(None)
rank3: Ok(None)
rank4: Ok(None)
rank5: Ok(None)
rank6: Ok(None)
"#;
const REDUCE_FLAT_ROOT2: &str = r#"{"sub":"rank0","seq":0,"kind":"send","to":2,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank1","seq":0,"kind":"send","to":2,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank3","seq":0,"kind":"send","to":2,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank4","seq":0,"kind":"send","to":2,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank5","seq":0,"kind":"send","to":2,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank6","seq":0,"kind":"send","to":2,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
-- root sends
-- root recvs
{"sub":"rank2","kind":"recv","tag":9223372036854775809,"src":0}
{"sub":"rank2","kind":"recv","tag":9223372036854775809,"src":1}
{"sub":"rank2","kind":"recv","tag":9223372036854775809,"src":3}
{"sub":"rank2","kind":"recv","tag":9223372036854775809,"src":4}
{"sub":"rank2","kind":"recv","tag":9223372036854775809,"src":5}
{"sub":"rank2","kind":"recv","tag":9223372036854775809,"src":6}
-- root other
rank0: Ok(None)
rank1: Ok(None)
rank2: Ok(Some(4675601179105820672))
rank3: Ok(None)
rank4: Ok(None)
rank5: Ok(None)
rank6: Ok(None)
"#;
const ALLREDUCE_MAX: &str = r#"{"sub":"rank0","seq":0,"kind":"recv","tag":9223372036854775809,"src":1}
{"sub":"rank0","seq":1,"kind":"recv","tag":9223372036854775809,"src":2}
{"sub":"rank0","seq":2,"kind":"recv","tag":9223372036854775809,"src":4}
{"sub":"rank0","seq":3,"kind":"send","to":4,"tag":9223372036854775810,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":4,"kind":"send","to":2,"tag":9223372036854775810,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":5,"kind":"send","to":1,"tag":9223372036854775810,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank1","seq":0,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank1","seq":1,"kind":"recv","tag":9223372036854775810,"src":0}
{"sub":"rank2","seq":0,"kind":"recv","tag":9223372036854775809,"src":3}
{"sub":"rank2","seq":1,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank2","seq":2,"kind":"recv","tag":9223372036854775810,"src":0}
{"sub":"rank2","seq":3,"kind":"send","to":3,"tag":9223372036854775810,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank3","seq":0,"kind":"send","to":2,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank3","seq":1,"kind":"recv","tag":9223372036854775810,"src":2}
{"sub":"rank4","seq":0,"kind":"recv","tag":9223372036854775809,"src":5}
{"sub":"rank4","seq":1,"kind":"recv","tag":9223372036854775809,"src":6}
{"sub":"rank4","seq":2,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank4","seq":3,"kind":"recv","tag":9223372036854775810,"src":0}
{"sub":"rank4","seq":4,"kind":"send","to":6,"tag":9223372036854775810,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank4","seq":5,"kind":"send","to":5,"tag":9223372036854775810,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank5","seq":0,"kind":"send","to":4,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank5","seq":1,"kind":"recv","tag":9223372036854775810,"src":4}
{"sub":"rank6","seq":0,"kind":"send","to":4,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank6","seq":1,"kind":"recv","tag":9223372036854775810,"src":4}
rank0: Ok(4621256167635550208)
rank1: Ok(4621256167635550208)
rank2: Ok(4621256167635550208)
rank3: Ok(4621256167635550208)
rank4: Ok(4621256167635550208)
rank5: Ok(4621256167635550208)
rank6: Ok(4621256167635550208)
"#;
const BROADCAST_ROOT3: &str = r#"{"sub":"rank0","seq":0,"kind":"recv","tag":9223372036854775809,"src":3}
{"sub":"rank0","seq":1,"kind":"send","to":2,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":2,"kind":"send","to":1,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank1","seq":0,"kind":"recv","tag":9223372036854775809,"src":0}
{"sub":"rank2","seq":0,"kind":"recv","tag":9223372036854775809,"src":0}
{"sub":"rank3","seq":0,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank3","seq":1,"kind":"send","to":5,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank3","seq":2,"kind":"send","to":4,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank4","seq":0,"kind":"recv","tag":9223372036854775809,"src":3}
{"sub":"rank5","seq":0,"kind":"recv","tag":9223372036854775809,"src":3}
{"sub":"rank5","seq":1,"kind":"send","to":6,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank6","seq":0,"kind":"recv","tag":9223372036854775809,"src":5}
rank0: Ok(12648430)
rank1: Ok(12648430)
rank2: Ok(12648430)
rank3: Ok(12648430)
rank4: Ok(12648430)
rank5: Ok(12648430)
rank6: Ok(12648430)
"#;
const ADAPTIVE_BITWISE: &str = r#"{"sub":"rank0","seq":0,"kind":"recv","tag":9223372036854775809,"src":1}
{"sub":"rank0","seq":1,"kind":"recv","tag":9223372036854775809,"src":2}
{"sub":"rank0","seq":2,"kind":"recv","tag":9223372036854775809,"src":4}
{"sub":"rank0","seq":3,"kind":"send","to":4,"tag":9223372036854775810,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":4,"kind":"send","to":2,"tag":9223372036854775810,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":5,"kind":"send","to":1,"tag":9223372036854775810,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":6,"kind":"recv","tag":9223372036854775811,"src":1}
{"sub":"rank0","seq":7,"kind":"recv","tag":9223372036854775811,"src":2}
{"sub":"rank0","seq":8,"kind":"recv","tag":9223372036854775811,"src":4}
{"sub":"rank1","seq":0,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank1","seq":1,"kind":"recv","tag":9223372036854775810,"src":0}
{"sub":"rank1","seq":2,"kind":"send","to":0,"tag":9223372036854775811,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank2","seq":0,"kind":"recv","tag":9223372036854775809,"src":3}
{"sub":"rank2","seq":1,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank2","seq":2,"kind":"recv","tag":9223372036854775810,"src":0}
{"sub":"rank2","seq":3,"kind":"send","to":3,"tag":9223372036854775810,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank2","seq":4,"kind":"recv","tag":9223372036854775811,"src":3}
{"sub":"rank2","seq":5,"kind":"send","to":0,"tag":9223372036854775811,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank3","seq":0,"kind":"send","to":2,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank3","seq":1,"kind":"recv","tag":9223372036854775810,"src":2}
{"sub":"rank3","seq":2,"kind":"send","to":2,"tag":9223372036854775811,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank4","seq":0,"kind":"recv","tag":9223372036854775809,"src":5}
{"sub":"rank4","seq":1,"kind":"recv","tag":9223372036854775809,"src":6}
{"sub":"rank4","seq":2,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank4","seq":3,"kind":"recv","tag":9223372036854775810,"src":0}
{"sub":"rank4","seq":4,"kind":"send","to":6,"tag":9223372036854775810,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank4","seq":5,"kind":"send","to":5,"tag":9223372036854775810,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank4","seq":6,"kind":"recv","tag":9223372036854775811,"src":5}
{"sub":"rank4","seq":7,"kind":"recv","tag":9223372036854775811,"src":6}
{"sub":"rank4","seq":8,"kind":"send","to":0,"tag":9223372036854775811,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank5","seq":0,"kind":"send","to":4,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank5","seq":1,"kind":"recv","tag":9223372036854775810,"src":4}
{"sub":"rank5","seq":2,"kind":"send","to":4,"tag":9223372036854775811,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank6","seq":0,"kind":"send","to":4,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank6","seq":1,"kind":"recv","tag":9223372036854775810,"src":4}
{"sub":"rank6","seq":2,"kind":"send","to":4,"tag":9223372036854775811,"drop":false,"delay":false,"dup":false,"reorder":false}
rank0: Ok(Some((0, Distill)))
rank1: Ok(None)
rank2: Ok(None)
rank3: Ok(None)
rank4: Ok(None)
rank5: Ok(None)
rank6: Ok(None)
"#;
const FT_BINOMIAL: &str = r#"{"sub":"rank1","seq":0,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank1","seq":1,"kind":"recv","tag":9223372105574252545,"src":0}
{"sub":"rank1","seq":2,"kind":"send","to":0,"tag":9223372174293729281,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank1","seq":3,"kind":"recv","tag":9223372243013206017,"src":0}
{"sub":"rank2","seq":0,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank2","seq":1,"kind":"recv","tag":9223372105574252545,"src":0}
{"sub":"rank2","seq":2,"kind":"recv","tag":9223372174293729281,"src":3}
{"sub":"rank2","seq":3,"kind":"send","to":0,"tag":9223372174293729281,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank2","seq":4,"kind":"recv","tag":9223372243013206017,"src":0}
{"sub":"rank3","seq":0,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank3","seq":1,"kind":"recv","tag":9223372105574252545,"src":0}
{"sub":"rank3","seq":2,"kind":"send","to":2,"tag":9223372174293729281,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank3","seq":3,"kind":"recv","tag":9223372243013206017,"src":0}
{"sub":"rank4","seq":0,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank4","seq":1,"kind":"recv","tag":9223372105574252545,"src":0}
{"sub":"rank4","seq":2,"kind":"recv","tag":9223372174293729281,"src":5}
{"sub":"rank4","seq":3,"kind":"recv","tag":9223372174293729281,"src":6}
{"sub":"rank4","seq":4,"kind":"send","to":0,"tag":9223372174293729281,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank4","seq":5,"kind":"recv","tag":9223372243013206017,"src":0}
{"sub":"rank5","seq":0,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank5","seq":1,"kind":"recv","tag":9223372105574252545,"src":0}
{"sub":"rank5","seq":2,"kind":"send","to":4,"tag":9223372174293729281,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank5","seq":3,"kind":"recv","tag":9223372243013206017,"src":0}
{"sub":"rank6","seq":0,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank6","seq":1,"kind":"recv","tag":9223372105574252545,"src":0}
{"sub":"rank6","seq":2,"kind":"send","to":4,"tag":9223372174293729281,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank6","seq":3,"kind":"recv","tag":9223372243013206017,"src":0}
-- root sends
{"sub":"rank0","seq":6,"kind":"send","to":1,"tag":9223372105574252545,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":7,"kind":"send","to":2,"tag":9223372105574252545,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":8,"kind":"send","to":3,"tag":9223372105574252545,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":9,"kind":"send","to":4,"tag":9223372105574252545,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":10,"kind":"send","to":5,"tag":9223372105574252545,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":11,"kind":"send","to":6,"tag":9223372105574252545,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":15,"kind":"send","to":1,"tag":9223372243013206017,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":16,"kind":"send","to":2,"tag":9223372243013206017,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":17,"kind":"send","to":3,"tag":9223372243013206017,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":18,"kind":"send","to":4,"tag":9223372243013206017,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":19,"kind":"send","to":5,"tag":9223372243013206017,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":20,"kind":"send","to":6,"tag":9223372243013206017,"drop":false,"delay":false,"dup":false,"reorder":false}
-- root recvs
{"sub":"rank0","kind":"recv","tag":9223372036854775809,"src":1}
{"sub":"rank0","kind":"recv","tag":9223372036854775809,"src":2}
{"sub":"rank0","kind":"recv","tag":9223372036854775809,"src":3}
{"sub":"rank0","kind":"recv","tag":9223372036854775809,"src":4}
{"sub":"rank0","kind":"recv","tag":9223372036854775809,"src":5}
{"sub":"rank0","kind":"recv","tag":9223372036854775809,"src":6}
{"sub":"rank0","kind":"recv","tag":9223372174293729281,"src":1}
{"sub":"rank0","kind":"recv","tag":9223372174293729281,"src":2}
{"sub":"rank0","kind":"recv","tag":9223372174293729281,"src":4}
-- root other
rank0: Ok((Some(13790022059008458752), [0, 1, 2, 3, 4, 5, 6], 1))
rank1: Ok((None, [0, 1, 2, 3, 4, 5, 6], 1))
rank2: Ok((None, [0, 1, 2, 3, 4, 5, 6], 1))
rank3: Ok((None, [0, 1, 2, 3, 4, 5, 6], 1))
rank4: Ok((None, [0, 1, 2, 3, 4, 5, 6], 1))
rank5: Ok((None, [0, 1, 2, 3, 4, 5, 6], 1))
rank6: Ok((None, [0, 1, 2, 3, 4, 5, 6], 1))
"#;
const FT_FLAT: &str = r#"{"sub":"rank1","seq":0,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank1","seq":1,"kind":"recv","tag":9223372105574252545,"src":0}
{"sub":"rank1","seq":2,"kind":"send","to":0,"tag":9223372174293729281,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank1","seq":3,"kind":"recv","tag":9223372243013206017,"src":0}
{"sub":"rank2","seq":0,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank2","seq":1,"kind":"recv","tag":9223372105574252545,"src":0}
{"sub":"rank2","seq":2,"kind":"send","to":0,"tag":9223372174293729281,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank2","seq":3,"kind":"recv","tag":9223372243013206017,"src":0}
{"sub":"rank3","seq":0,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank3","seq":1,"kind":"recv","tag":9223372105574252545,"src":0}
{"sub":"rank3","seq":2,"kind":"send","to":0,"tag":9223372174293729281,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank3","seq":3,"kind":"recv","tag":9223372243013206017,"src":0}
{"sub":"rank4","seq":0,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank4","seq":1,"kind":"recv","tag":9223372105574252545,"src":0}
{"sub":"rank4","seq":2,"kind":"send","to":0,"tag":9223372174293729281,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank4","seq":3,"kind":"recv","tag":9223372243013206017,"src":0}
{"sub":"rank5","seq":0,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank5","seq":1,"kind":"recv","tag":9223372105574252545,"src":0}
{"sub":"rank5","seq":2,"kind":"send","to":0,"tag":9223372174293729281,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank5","seq":3,"kind":"recv","tag":9223372243013206017,"src":0}
{"sub":"rank6","seq":0,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank6","seq":1,"kind":"recv","tag":9223372105574252545,"src":0}
{"sub":"rank6","seq":2,"kind":"send","to":0,"tag":9223372174293729281,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank6","seq":3,"kind":"recv","tag":9223372243013206017,"src":0}
-- root sends
{"sub":"rank0","seq":6,"kind":"send","to":1,"tag":9223372105574252545,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":7,"kind":"send","to":2,"tag":9223372105574252545,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":8,"kind":"send","to":3,"tag":9223372105574252545,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":9,"kind":"send","to":4,"tag":9223372105574252545,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":10,"kind":"send","to":5,"tag":9223372105574252545,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":11,"kind":"send","to":6,"tag":9223372105574252545,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":18,"kind":"send","to":1,"tag":9223372243013206017,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":19,"kind":"send","to":2,"tag":9223372243013206017,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":20,"kind":"send","to":3,"tag":9223372243013206017,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":21,"kind":"send","to":4,"tag":9223372243013206017,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":22,"kind":"send","to":5,"tag":9223372243013206017,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":23,"kind":"send","to":6,"tag":9223372243013206017,"drop":false,"delay":false,"dup":false,"reorder":false}
-- root recvs
{"sub":"rank0","kind":"recv","tag":9223372036854775809,"src":1}
{"sub":"rank0","kind":"recv","tag":9223372036854775809,"src":2}
{"sub":"rank0","kind":"recv","tag":9223372036854775809,"src":3}
{"sub":"rank0","kind":"recv","tag":9223372036854775809,"src":4}
{"sub":"rank0","kind":"recv","tag":9223372036854775809,"src":5}
{"sub":"rank0","kind":"recv","tag":9223372036854775809,"src":6}
{"sub":"rank0","kind":"recv","tag":9223372174293729281,"src":1}
{"sub":"rank0","kind":"recv","tag":9223372174293729281,"src":2}
{"sub":"rank0","kind":"recv","tag":9223372174293729281,"src":3}
{"sub":"rank0","kind":"recv","tag":9223372174293729281,"src":4}
{"sub":"rank0","kind":"recv","tag":9223372174293729281,"src":5}
{"sub":"rank0","kind":"recv","tag":9223372174293729281,"src":6}
-- root other
rank0: Ok((Some(4675601179105820672), [0, 1, 2, 3, 4, 5, 6], 1))
rank1: Ok((None, [0, 1, 2, 3, 4, 5, 6], 1))
rank2: Ok((None, [0, 1, 2, 3, 4, 5, 6], 1))
rank3: Ok((None, [0, 1, 2, 3, 4, 5, 6], 1))
rank4: Ok((None, [0, 1, 2, 3, 4, 5, 6], 1))
rank5: Ok((None, [0, 1, 2, 3, 4, 5, 6], 1))
rank6: Ok((None, [0, 1, 2, 3, 4, 5, 6], 1))
"#;
const FT_CHAIN: &str = r#"{"sub":"rank1","seq":0,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank1","seq":1,"kind":"recv","tag":9223372105574252545,"src":0}
{"sub":"rank1","seq":2,"kind":"recv","tag":9223372174293729281,"src":2}
{"sub":"rank1","seq":3,"kind":"send","to":0,"tag":9223372174293729281,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank1","seq":4,"kind":"recv","tag":9223372243013206017,"src":0}
{"sub":"rank2","seq":0,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank2","seq":1,"kind":"recv","tag":9223372105574252545,"src":0}
{"sub":"rank2","seq":2,"kind":"recv","tag":9223372174293729281,"src":3}
{"sub":"rank2","seq":3,"kind":"send","to":1,"tag":9223372174293729281,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank2","seq":4,"kind":"recv","tag":9223372243013206017,"src":0}
{"sub":"rank3","seq":0,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank3","seq":1,"kind":"recv","tag":9223372105574252545,"src":0}
{"sub":"rank3","seq":2,"kind":"recv","tag":9223372174293729281,"src":4}
{"sub":"rank3","seq":3,"kind":"send","to":2,"tag":9223372174293729281,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank3","seq":4,"kind":"recv","tag":9223372243013206017,"src":0}
{"sub":"rank4","seq":0,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank4","seq":1,"kind":"recv","tag":9223372105574252545,"src":0}
{"sub":"rank4","seq":2,"kind":"recv","tag":9223372174293729281,"src":5}
{"sub":"rank4","seq":3,"kind":"send","to":3,"tag":9223372174293729281,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank4","seq":4,"kind":"recv","tag":9223372243013206017,"src":0}
{"sub":"rank5","seq":0,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank5","seq":1,"kind":"recv","tag":9223372105574252545,"src":0}
{"sub":"rank5","seq":2,"kind":"recv","tag":9223372174293729281,"src":6}
{"sub":"rank5","seq":3,"kind":"send","to":4,"tag":9223372174293729281,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank5","seq":4,"kind":"recv","tag":9223372243013206017,"src":0}
{"sub":"rank6","seq":0,"kind":"send","to":0,"tag":9223372036854775809,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank6","seq":1,"kind":"recv","tag":9223372105574252545,"src":0}
{"sub":"rank6","seq":2,"kind":"send","to":5,"tag":9223372174293729281,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank6","seq":3,"kind":"recv","tag":9223372243013206017,"src":0}
-- root sends
{"sub":"rank0","seq":6,"kind":"send","to":1,"tag":9223372105574252545,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":7,"kind":"send","to":2,"tag":9223372105574252545,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":8,"kind":"send","to":3,"tag":9223372105574252545,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":9,"kind":"send","to":4,"tag":9223372105574252545,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":10,"kind":"send","to":5,"tag":9223372105574252545,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":11,"kind":"send","to":6,"tag":9223372105574252545,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":13,"kind":"send","to":1,"tag":9223372243013206017,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":14,"kind":"send","to":2,"tag":9223372243013206017,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":15,"kind":"send","to":3,"tag":9223372243013206017,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":16,"kind":"send","to":4,"tag":9223372243013206017,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":17,"kind":"send","to":5,"tag":9223372243013206017,"drop":false,"delay":false,"dup":false,"reorder":false}
{"sub":"rank0","seq":18,"kind":"send","to":6,"tag":9223372243013206017,"drop":false,"delay":false,"dup":false,"reorder":false}
-- root recvs
{"sub":"rank0","kind":"recv","tag":9223372036854775809,"src":1}
{"sub":"rank0","kind":"recv","tag":9223372036854775809,"src":2}
{"sub":"rank0","kind":"recv","tag":9223372036854775809,"src":3}
{"sub":"rank0","kind":"recv","tag":9223372036854775809,"src":4}
{"sub":"rank0","kind":"recv","tag":9223372036854775809,"src":5}
{"sub":"rank0","kind":"recv","tag":9223372036854775809,"src":6}
{"sub":"rank0","kind":"recv","tag":9223372174293729281,"src":1}
-- root other
rank0: Ok((Some(13790022059008458752), [0, 1, 2, 3, 4, 5, 6], 1))
rank1: Ok((None, [0, 1, 2, 3, 4, 5, 6], 1))
rank2: Ok((None, [0, 1, 2, 3, 4, 5, 6], 1))
rank3: Ok((None, [0, 1, 2, 3, 4, 5, 6], 1))
rank4: Ok((None, [0, 1, 2, 3, 4, 5, 6], 1))
rank5: Ok((None, [0, 1, 2, 3, 4, 5, 6], 1))
rank6: Ok((None, [0, 1, 2, 3, 4, 5, 6], 1))
"#;
