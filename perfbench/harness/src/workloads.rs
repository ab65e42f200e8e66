//! The four benchmark workloads. Each one is set up and run twice over:
//! through the plain public entry points (`run`) for the end-to-end
//! timings, and through the probes of [`crate::probe`] (`run_traced`) for
//! the per-layer split. Both paths must produce the same simulated digest.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use vhadoop::prelude::*;
use vhadoop::workloads::loadgen::{load_job, ArrivalProcess, JobArrival, JobMix, SyntheticLoadApp};
use vhadoop::workloads::textgen::TextCorpus;
use vhadoop::workloads::tpcxhs::{self, HsPlan, HsReport, HsValidateReport};
use vhadoop::workloads::wordcount::WordCountApp;

use crate::probe::{self, timed, Latencies, Probe};

/// What one run simulated, checked outside the timed region.
pub struct Sim {
    /// Canonical text of the simulated results: makespans in ns, job
    /// counters, output records. Two commits that only change host time
    /// must print the same digest.
    pub digest: String,
    /// The workload's correctness gate.
    pub check: Result<(), String>,
}

/// Measurements of one traced run beyond the probe tallies.
#[derive(Default)]
pub struct Traced {
    /// Host latency of each `Engine::next_wakeup`.
    pub wakeups: Latencies,
    /// Host latency of each `VHadoop::step`.
    pub steps: Latencies,
    /// Steps that grew `Controller::whatif_outcomes()`, and their time.
    pub whatif_rounds: u64,
    pub whatif_candidates: u64,
    pub whatif_round_ns: u64,
    /// `snapshot` / `restore` / `fork` timed at a fixed point of the run.
    pub persist: Option<Persist>,
    /// Probe work the plain run does not do (the persist calls), excluded
    /// from the traced `run_s`.
    pub excluded_ns: u64,
    /// Job counters summed over every job the run finished.
    pub counters: Counters,
    /// The kernel's counters at the end of the run.
    pub kernel: KernelStats,
    /// The controller's counters at the end of the run.
    pub ctrl: ControllerCounters,
}

/// `VHadoop::snapshot`, `VHadoop::restore` and `VHadoop::fork` timings, and
/// the snapshot's encoded size.
pub struct Persist {
    pub snapshot_s: f64,
    pub restore_s: f64,
    pub fork_s: f64,
    pub snapshot_mb: f64,
}

/// One benchmark workload.
pub trait Workload {
    /// Everything `setup` builds before the first submission.
    type State;
    /// Whatever `verdict` needs, returned from the timed region untouched
    /// so that checking and teardown stay outside it.
    type Out;

    /// One line describing the configuration.
    fn describe(&self) -> String;
    /// Launch, HDFS format, input registration and arrival scheduling.
    fn setup(&self) -> Self::State;
    /// From the first submission to completion, via the plain entry points.
    fn run(&self, st: Self::State) -> Self::Out;
    /// The same work through the probes.
    fn run_traced(&self, st: Self::State, tr: &mut Traced) -> Self::Out;
    /// Correctness gate and digest.
    fn verdict(&self, out: Self::Out, tr: Option<&mut Traced>) -> Sim;
}

/// FNV-1a, to fold long outputs into a digest: `fnv(bytes, FNV_SEED)`.
pub fn fnv(bytes: &[u8], mut h: u64) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn job_digest(d: &mut String, r: &JobResult) {
    let mut h = FNV_SEED;
    for rec in &r.outputs {
        h = fnv(format!("{rec:?}").as_bytes(), h);
    }
    let _ = writeln!(
        d,
        "job {} {} submitted {} finished {} outputs {} {h:016x} {:?}",
        r.id.0,
        r.name,
        r.submitted.as_nanos(),
        r.finished.as_nanos(),
        r.outputs.len(),
        r.counters,
    );
}

fn add_counters(sum: &mut Counters, c: &Counters) {
    sum.map_input_records += c.map_input_records;
    sum.map_input_bytes += c.map_input_bytes;
    sum.map_output_records += c.map_output_records;
    sum.map_output_bytes += c.map_output_bytes;
    sum.combine_output_records += c.combine_output_records;
    sum.shuffle_bytes += c.shuffle_bytes;
    sum.reduce_input_records += c.reduce_input_records;
    sum.reduce_input_groups += c.reduce_input_groups;
    sum.reduce_output_records += c.reduce_output_records;
    sum.output_bytes += c.output_bytes;
}

// ---------------------------------------------------------------- wordcount

/// Bytes of generated text: about a million words, so that one
/// repetition takes about a second.
const WORDCOUNT_BYTES: u64 = 8 << 20;
/// Maps, one block each, as in Fig. 2.
const WORDCOUNT_MAPS: u64 = 15;
const WORDCOUNT_REDUCES: u32 = 4;

/// Quickstart / Fig. 2 wordcount over Zipf text on the paper's 16-VM
/// cluster, combiner on.
pub struct Wordcount {
    seed: u64,
    /// Built once; every setup shares it, so that setup does not copy the
    /// corpus.
    text: Arc<Text>,
    /// Word counts over the same generated splits, computed once per
    /// process before anything is timed.
    reference: BTreeMap<String, i64>,
}

/// The generated input: `maps` splits of one block each (the last one
/// shorter). Every seed shares quickstart's vocabulary and draws its own
/// text: split `i` reads corpus stream `first + i`. A vocabulary per seed
/// would move the word lengths at the head of the Zipf law, and with them
/// the record count and the cost of the run, by about 8 % between seeds.
struct Text {
    corpus: TextCorpus,
    first: usize,
    bytes: u64,
    maps: u64,
}

impl Text {
    fn block(&self) -> u64 {
        self.bytes.div_ceil(self.maps)
    }

    fn split(&self, idx: usize) -> Vec<Record> {
        let last = self.maps - 1;
        let bytes =
            if idx as u64 == last { self.bytes - last * self.block() } else { self.block() };
        self.corpus.split_records(self.first.wrapping_add(idx), bytes)
    }
}

impl Wordcount {
    pub fn new(seed: u64) -> Self {
        let text = Arc::new(Text {
            corpus: TextCorpus::english_like(RootSeed(7)),
            first: (seed as usize).wrapping_mul(WORDCOUNT_MAPS as usize),
            bytes: WORDCOUNT_BYTES,
            maps: WORDCOUNT_MAPS,
        });
        let mut reference = BTreeMap::new();
        for idx in 0..WORDCOUNT_MAPS as usize {
            for (_, v) in text.split(idx) {
                for word in v.as_text().split_whitespace() {
                    *reference.entry(word.to_string()).or_insert(0) += 1;
                }
            }
        }
        Wordcount { seed, text, reference }
    }

    fn spec(&self) -> JobSpec {
        JobSpec::new("wordcount", "/books", "/counts")
            .with_config(JobConfig::default().with_reduces(WORDCOUNT_REDUCES))
    }
}

pub struct WordcountState {
    rt: MrRuntime,
    input: Box<dyn InputFormat>,
}

impl Workload for Wordcount {
    type State = WordcountState;
    type Out = (MrRuntime, JobResult);

    fn describe(&self) -> String {
        format!(
            "wordcount: {:.1} MB ({} words) of Zipf text, {} maps, {} reduces, combiner on, \
             paper_normal cluster",
            self.text.bytes as f64 / (1 << 20) as f64,
            self.reference.values().sum::<i64>(),
            self.text.maps,
            WORDCOUNT_REDUCES
        )
    }

    fn setup(&self) -> WordcountState {
        let hdfs = HdfsConfig { block_size: self.text.block(), ..HdfsConfig::default() };
        let mut rt = MrRuntime::new(ClusterSpec::paper_normal(), hdfs, RootSeed(self.seed));
        rt.register_input("/books", self.text.bytes, VmId(1));
        let blocks = rt.hdfs.stat("/books").expect("registered").blocks.len();
        assert_eq!(blocks as u64, self.text.maps, "one block per map");
        let text = Arc::clone(&self.text);
        let input = GeneratorInput::new(blocks, text.block(), move |idx| text.split(idx));
        WordcountState { rt, input: Box::new(input) }
    }

    fn run(&self, mut st: WordcountState) -> Self::Out {
        let res = st.rt.run_job(self.spec(), Box::new(WordCountApp), st.input);
        (st.rt, res)
    }

    fn run_traced(&self, mut st: WordcountState, tr: &mut Traced) -> Self::Out {
        let id = probe::submit(&mut st.rt, (self.spec(), Box::new(WordCountApp), st.input));
        let res = probe::run_until(&mut st.rt, &mut tr.wakeups, id);
        (st.rt, res)
    }

    fn verdict(&self, (rt, res): Self::Out, tr: Option<&mut Traced>) -> Sim {
        let mut digest = String::new();
        job_digest(&mut digest, &res);
        let mut counts = BTreeMap::new();
        for (k, v) in &res.outputs {
            *counts.entry(k.as_text().to_string()).or_insert(0) += v.as_int();
        }
        let check = if counts.len() != res.outputs.len() {
            Err("a word was reduced more than once".to_string())
        } else if counts != self.reference {
            Err(format!(
                "{} distinct words counted, reference has {}; counts differ",
                counts.len(),
                self.reference.len()
            ))
        } else {
            Ok(())
        };
        if let Some(tr) = tr {
            add_counters(&mut tr.counters, &res.counters);
            tr.kernel = rt.engine.kernel_stats();
        }
        Sim { digest, check }
    }
}

// ------------------------------------------------------------------- tpcxhs

/// Scale factor: 30 MB, so that one repetition takes about a second.
const TPCXHS_SF_BYTES: u64 = 30_000_000;
const TPCXHS_REDUCES: u32 = 8;
const TPCXHS_REPLICATION: u32 = 2;

/// HSGen → HSSort → HSValidate on 2 hosts × 16 cross-domain VMs.
pub struct Tpcxhs {
    plan: HsPlan,
    cluster: ClusterSpec,
}

impl Tpcxhs {
    pub fn new(seed: u64) -> Self {
        Tpcxhs {
            plan: HsPlan::new(TPCXHS_SF_BYTES, TPCXHS_REDUCES, RootSeed(seed)),
            cluster: ClusterSpec::builder()
                .hosts(2)
                .vms(16)
                .placement(Placement::CrossDomain)
                .build(),
        }
    }
}

fn secs_between(a: SimTime, b: SimTime) -> f64 {
    b.saturating_since(a).as_secs_f64()
}

impl Workload for Tpcxhs {
    type State = MrRuntime;
    type Out = (MrRuntime, HsReport);

    fn describe(&self) -> String {
        format!(
            "tpcxhs: SF {} MB, {} reduces, {} splits, 2 hosts x 16 cross-domain VMs, replication {}",
            self.plan.sf_bytes as f64 / 1e6,
            self.plan.reduces,
            self.plan.splits(),
            TPCXHS_REPLICATION
        )
    }

    fn setup(&self) -> MrRuntime {
        MrRuntime::new(
            self.cluster.clone(),
            self.plan.hdfs_config(TPCXHS_REPLICATION),
            self.plan.seed,
        )
    }

    fn run(&self, mut rt: MrRuntime) -> Self::Out {
        let rep = tpcxhs::run_tpcxhs(&mut rt, &self.plan);
        (rt, rep)
    }

    /// The stages of `run_tpcxhs`, in its order, with every job's user
    /// code wrapped and the validation work timed apart.
    fn run_traced(&self, mut rt: MrRuntime, tr: &mut Traced) -> Self::Out {
        let plan = &self.plan;
        let mut counters = Counters::default();
        let mut job = |rt: &mut MrRuntime, tr: &mut Traced, parts| {
            let id = probe::submit(rt, parts);
            let res = probe::run_until(rt, &mut tr.wakeups, id);
            add_counters(&mut counters, &res.counters);
            res
        };
        let t0 = rt.now();
        job(&mut rt, tr, tpcxhs::hsgen_job(plan));
        let t1 = rt.now();
        timed(Probe::InputGen, || tpcxhs::register_hsgen(&mut rt, plan));
        let sort = job(&mut rt, tr, tpcxhs::hssort_job(plan));
        let t2 = rt.now();
        let pre = timed(Probe::Validate, || {
            tpcxhs::record_sort_checksums(&mut rt, &sort);
            tpcxhs::integrity_prescan(&rt)
        });
        let validate = if pre.is_empty() {
            let parts = timed(Probe::Validate, || tpcxhs::hsvalidate_job(&rt, plan, &sort));
            let vres = job(&mut rt, tr, parts);
            timed(Probe::Validate, || tpcxhs::hsvalidate_verdict(&rt, plan, &vres))
        } else {
            HsValidateReport { passed: false, violations: pre, records: 0, blocks_checked: 0 }
        };
        let t3 = rt.now();
        tr.counters = counters;
        let total_s = secs_between(t0, t3);
        let rep = HsReport {
            sf_bytes: plan.sf_bytes,
            gen_s: secs_between(t0, t1),
            sort_s: secs_between(t1, t2),
            validate_s: secs_between(t2, t3),
            total_s,
            hsph: (plan.sf_bytes as f64 / 1e9) / (total_s / 3600.0),
            records: sort.outputs.len() as u64,
            validate,
        };
        (rt, rep)
    }

    fn verdict(&self, (rt, rep): Self::Out, tr: Option<&mut Traced>) -> Sim {
        let digest = format!("{rep:?}\nchecksummed_blocks {}\n", rt.hdfs.checksummed_blocks());
        let check = if !rep.validate.passed {
            Err(format!("HSValidate failed: {:?}", rep.validate.violations))
        } else if rep.records != self.plan.total_records() {
            Err(format!("{} records sorted, plan has {}", rep.records, self.plan.total_records()))
        } else {
            Ok(())
        };
        if let Some(tr) = tr {
            tr.kernel = rt.engine.kernel_stats();
        }
        Sim { digest, check }
    }
}

// --------------------------------------------------------------- datacenter

/// The cluster: 48 hosts, 768 VMs, 12 racks, so that a reallocation
/// touches hundreds of flows.
const DC_HOSTS: u32 = 48;
const DC_VMS: u32 = 768;
const DC_RACKS: u32 = 12;
/// Identical load jobs, all submitted at t = 0. At 32 × 48 the seed moves
/// the kernel's work by about 3 %; fewer, wider jobs let some seeds halve it.
const DC_JOBS: u32 = 32;
const DC_MAPS: u32 = 48;
/// Each map's CPU seconds and I/O bytes.
const DC_CPU_SECS: f64 = 1.0;
const DC_IO_BYTES: u64 = 256 << 10;

/// Many synthetic load jobs submitted at t = 0 on a large racked cluster,
/// driven through `MrRuntime`: the kernel and the scheduler at scale.
pub struct Datacenter {
    seed: u64,
    cluster: ClusterSpec,
    hdfs: HdfsConfig,
}

impl Datacenter {
    /// Identical jobs: the seed drives the cluster (HDFS replica placement),
    /// so each seed routes the same work over different flows.
    pub fn new(seed: u64) -> Self {
        Datacenter {
            seed,
            cluster: ClusterSpec::builder()
                .hosts(DC_HOSTS)
                .vms(DC_VMS)
                .racks(DC_RACKS)
                .placement(Placement::CrossDomain)
                .build(),
            hdfs: HdfsConfig { block_size: 1 << 20, replication: 2 },
        }
    }
}

/// `load_job(run, maps, cpu_secs, io_bytes)`, submitted with its user
/// code wrapped.
fn submit_load_job_traced(rt: &mut MrRuntime, run: u32, maps: u32, cpu_secs: f64, io_bytes: u64) {
    let block = rt.hdfs.config().block_size;
    let path = format!("/load/in-{run:04}");
    timed(Probe::Route, || rt.register_input(&path, u64::from(maps) * block - 1, VmId(1)));
    let records_per_map = 4u64;
    let input = GeneratorInput::new(maps as usize, block, move |idx| {
        (0..records_per_map)
            .map(|i| (K::Int((idx as u64 * records_per_map + i) as i64), V::Null))
            .collect()
    });
    let app = SyntheticLoadApp {
        cpu_per_record: cpu_secs * 2.4e9 / records_per_map as f64,
        bytes_per_record: (io_bytes / records_per_map) as usize,
    };
    let spec = JobSpec::new(format!("load-{run}"), path, format!("/load/out-{run:04}"))
        .with_config(JobConfig::default().with_combiner(false));
    probe::submit(rt, (spec, Box::new(app), Box::new(input)));
}

impl Workload for Datacenter {
    type State = MrRuntime;
    type Out = (MrRuntime, Vec<JobResult>);

    fn describe(&self) -> String {
        format!(
            "datacenter: {} load jobs x {} maps ({} KB I/O each) at t=0 on {} hosts / {} VMs / {} racks",
            DC_JOBS,
            DC_MAPS,
            DC_IO_BYTES >> 10,
            self.cluster.hosts,
            self.cluster.vms,
            self.cluster.topology.racks
        )
    }

    fn setup(&self) -> MrRuntime {
        MrRuntime::new(self.cluster.clone(), self.hdfs, RootSeed(self.seed))
    }

    fn run(&self, mut rt: MrRuntime) -> Self::Out {
        for run in 0..DC_JOBS {
            load_job(run, DC_MAPS, DC_CPU_SECS, DC_IO_BYTES).submit(&mut rt);
        }
        let done = rt.drive_all();
        (rt, done)
    }

    fn run_traced(&self, mut rt: MrRuntime, tr: &mut Traced) -> Self::Out {
        for run in 0..DC_JOBS {
            submit_load_job_traced(&mut rt, run, DC_MAPS, DC_CPU_SECS, DC_IO_BYTES);
        }
        let done = probe::drive(&mut rt, &mut tr.wakeups, |rt, _| rt.mr.active_jobs() == 0);
        (rt, done)
    }

    fn verdict(&self, (rt, done): Self::Out, tr: Option<&mut Traced>) -> Sim {
        let mut digest = format!("end {}\n", rt.now().as_nanos());
        for r in &done {
            job_digest(&mut digest, r);
        }
        let check = if done.len() == DC_JOBS as usize {
            Ok(())
        } else {
            Err(format!("{} of {} jobs finished", done.len(), DC_JOBS))
        };
        if let Some(tr) = tr {
            for r in &done {
                add_counters(&mut tr.counters, &r.counters);
            }
            tr.kernel = rt.engine.kernel_stats();
        }
        Sim { digest, check }
    }
}

// ------------------------------------------------------------------- whatif

/// Arrivals and their mean gap in simulated seconds. The stream has a
/// seed of its own: a seeded stream gave one what-if round on some seeds
/// and two on others.
const WHATIF_JOBS: u32 = 5;
const WHATIF_MEAN_GAP_S: u64 = 2;
const WHATIF_STREAM_SEED: RootSeed = RootSeed(4242);
/// Candidate destinations the first what-if round must fork, as the
/// `ablations` whatif case requires.
const WHATIF_MIN_CANDIDATES: usize = 3;

/// The `ablations` hot-host geometry under an open-loop stream of
/// shuffle-heavy arrivals, rebalanced by fork-and-measure what-if rounds.
pub struct Whatif {
    config: PlatformConfig,
    arrivals: Vec<JobArrival>,
}

impl Whatif {
    pub fn new(seed: u64) -> Self {
        let (hosts, vms) = (4u32, 16u32);
        // All but three VMs crowd host 0, hosts 1 and 2 carry one or two,
        // host 3 is empty: the candidate destinations genuinely differ.
        let map = (0..vms)
            .map(|v| {
                if v == vms - 1 {
                    2
                } else if v >= vms - 3 {
                    1
                } else {
                    0
                }
            })
            .collect();
        let mut ctrl = ControllerConfig::enabled_with(PlacementKind::Spec);
        ctrl.rebalance = Some(RebalanceConfig {
            interval: SimDuration::from_secs(1),
            hot_cpu: 0.5,
            hot_nic: 0.9,
            cold_cpu: 0.2,
            hysteresis_ticks: 2,
            max_moves: 2,
            cooldown: SimDuration::from_secs(600),
            consolidate: false,
            mode: RebalanceMode::WhatIf,
            hint: WorkloadHint::default(),
        });
        let config = PlatformConfig::builder()
            .cluster(
                ClusterSpec::builder()
                    .hosts(hosts)
                    .vms(vms)
                    .placement(Placement::Custom(map))
                    .build(),
            )
            .hdfs(HdfsConfig { block_size: 1 << 20, replication: 2 })
            .no_monitor()
            .seed(seed)
            .controller(ctrl)
            .build();
        let arrivals = ArrivalProcess::new(
            JobMix::ShuffleHeavy,
            WHATIF_JOBS,
            SimDuration::from_secs(WHATIF_MEAN_GAP_S),
            2,
            WHATIF_STREAM_SEED,
        )
        .schedule();
        Whatif { config, arrivals }
    }
}

impl Workload for Whatif {
    type State = VHadoop;
    type Out = (VHadoop, Vec<JobResult>);

    fn describe(&self) -> String {
        format!(
            "whatif: {} shuffle-heavy arrivals over {:.1} s simulated, 4 hosts x 16 VMs packed 13/2/1/0, \
             RebalanceMode::WhatIf",
            self.arrivals.len(),
            self.arrivals.last().map_or(0.0, |a| a.at.as_secs_f64())
        )
    }

    fn setup(&self) -> VHadoop {
        let mut p = VHadoop::launch(self.config.clone());
        for (run, a) in self.arrivals.iter().enumerate() {
            p.schedule_job(a.at, a.tenant, a.expected_s, a.job(run as u32));
        }
        p
    }

    fn run(&self, mut p: VHadoop) -> Self::Out {
        let done = p.drive_until_idle();
        (p, done)
    }

    /// `drive_until_idle`'s loop with each `step` timed. Right after the
    /// first what-if round, a snapshot, a restore and a fork are timed and
    /// discarded; that time is excluded from the run.
    fn run_traced(&self, mut p: VHadoop, tr: &mut Traced) -> Self::Out {
        let outcomes = |p: &VHadoop| p.controller().map_or(0, |c| c.whatif_outcomes().len());
        let mut done = Vec::new();
        loop {
            let before = outcomes(&p);
            let t = Instant::now();
            let step = p.step();
            let ns = t.elapsed().as_nanos() as u64;
            let Some((_, events)) = step else { break };
            tr.steps.0.push(ns);
            for ev in events {
                if let PlatformEvent::Job(JobEvent::JobDone(res)) = ev {
                    done.push(*res);
                }
            }
            let grown = outcomes(&p) - before;
            if grown > 0 {
                tr.whatif_rounds += 1;
                tr.whatif_candidates += grown as u64;
                tr.whatif_round_ns += ns;
                if tr.persist.is_none() {
                    let t = Instant::now();
                    tr.persist = Some(persist_probe(&mut p));
                    tr.excluded_ns += t.elapsed().as_nanos() as u64;
                }
            }
        }
        (p, done)
    }

    fn verdict(&self, (p, done): Self::Out, tr: Option<&mut Traced>) -> Sim {
        let ctrl = p.controller().expect("controller enabled");
        let outcomes = ctrl.whatif_outcomes();
        let mut digest = format!("end {}\n{:?}\n", p.now().as_nanos(), ctrl.counters());
        for o in outcomes {
            let _ = writeln!(digest, "{o:?}");
        }
        for r in &done {
            job_digest(&mut digest, r);
        }
        let mut check = Ok(());
        if done.len() != self.arrivals.len() {
            check = Err(format!("{} of {} arrivals finished", done.len(), self.arrivals.len()));
        }
        // Each round (outcomes sharing an instant) commits exactly one
        // candidate, and it is the best measured one. A run without a round,
        // or whose first round forks fewer candidates than `ablations`
        // requires, did not exercise what this workload times.
        let mut rounds: BTreeMap<SimTime, Vec<&WhatIfOutcome>> = BTreeMap::new();
        for o in outcomes {
            rounds.entry(o.at).or_default().push(o);
        }
        match rounds.values().next().map(Vec::len) {
            None => check = Err("no what-if round ran".to_string()),
            Some(n) if n < WHATIF_MIN_CANDIDATES => {
                check = Err(format!("the first what-if round forked only {n} candidates"))
            }
            Some(_) => {}
        }
        for (at, round) in &rounds {
            let chosen: Vec<_> = round.iter().filter(|o| o.chosen).collect();
            let best = round.iter().map(|o| o.measured_s).fold(f64::INFINITY, f64::min);
            if chosen.len() != 1 || chosen[0].measured_s > best {
                check = Err(format!("what-if round at {at:?} did not commit its best candidate"));
            }
        }
        if let Some(tr) = tr {
            for r in &done {
                add_counters(&mut tr.counters, &r.counters);
            }
            tr.kernel = p.rt.engine.kernel_stats();
            tr.ctrl = *ctrl.counters();
        }
        Sim { digest, check }
    }
}

fn persist_probe(p: &mut VHadoop) -> Persist {
    let t = Instant::now();
    let snap = p.snapshot();
    let snapshot_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let restored = VHadoop::restore(&snap);
    let restore_s = t.elapsed().as_secs_f64();
    assert_eq!(restored.now(), p.now(), "a restore resumes at the snapshot instant");
    let snapshot_mb = snap.bytes.len() as f64 / (1 << 20) as f64;
    drop((restored, snap));
    let t = Instant::now();
    let fork = p.fork();
    let fork_s = t.elapsed().as_secs_f64();
    drop(fork);
    Persist { snapshot_s, restore_s, fork_s, snapshot_mb }
}
