//! [`ClusterSpec`]: the one harness that starts, runs and stops an n-member
//! localhost cluster, one OS thread per member (the crate docs' *Starting a
//! cluster* section is the overview).
//!
//! The startup sequence is race-free by construction: every member's
//! listener is **bound before any thread spawns**, so a dialer can never
//! hit a peer whose port does not exist yet (it can still hit one whose
//! accept loop is not running — that is what the dial retry/backoff
//! absorbs). Ports are OS-assigned (`127.0.0.1:0`), so clusters never
//! collide with each other or with anything else on the machine. Every
//! fallible step (binding, journals) precedes the first thread,
//! so a start-up error leaves nothing running; and every node tears its own
//! mesh down when its run ends (DESIGN.md §8), so a joined cluster holds
//! no descriptor and no thread.

use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use uba_sim::{NodeId, Process};
use uba_trace::{RoundJournal, SharedRuntimeMetrics, Tracer};

use crate::byzantine::{AttackPlan, ByzReport, ByzantineNode};
use crate::node::{NetConfig, NetError, NetNode, NetReport};
use crate::wan::LinkPlan;
use crate::wire::Wire;

/// What surrounds the honest members of a cluster run. The three options
/// are orthogonal; [`Default`] — none of them — is the plain run.
pub struct ClusterSpec<P> {
    /// Shape every link of every member — honest, reborn or hostile — by
    /// one WAN [`LinkPlan`]: each member's connection readers apply the
    /// plan to the links into it, and everything above them runs
    /// unmodified (a zero-impairment plan is invisible — see
    /// [`crate::wan`]). A link's counters and trace events are the
    /// receiving member's ([`NetNode::with_links`]). Impairments that
    /// exceed the configured timeouts (a partition outlasting
    /// `give_up_after`, say) can legitimately end a run in
    /// [`NetError::RoundLimit`].
    pub wan: Option<Arc<LinkPlan>>,
    /// The crash-recovery drill (DESIGN.md §9): every member keeps a
    /// durable round journal, and the victim is killed, held down, rebuilt
    /// from its journal and rejoins over the backfill protocol — over
    /// shaped links, if there is a plan.
    pub kill: Option<KillSpec<P>>,
    /// One [`ByzantineNode`] per member of the plan's conspirator set, all
    /// executing the same seeded script (so they compute identical
    /// equivocation splits, like the simulator's adversary acting for every
    /// faulty node). An attacker reads the run's abort flag but never
    /// raises it: its thread panicking is equivalent to it going silent,
    /// which the honest side already tolerates — it reports an all-zero
    /// [`ByzReport`] and never fails the run.
    pub hostile: Option<AttackPlan>,
}

impl<P> Default for ClusterSpec<P> {
    fn default() -> Self {
        ClusterSpec {
            wan: None,
            kill: None,
            hostile: None,
        }
    }
}

/// The scripted crash of a cluster run: who dies, when, and how it comes
/// back. A cluster that finishes before `kill_at` is just a journaled run.
#[derive(Debug)]
pub struct KillSpec<P> {
    /// The member to kill (must be one of the honest members' ids).
    pub victim: NodeId,
    /// The victim's second incarnation: the same process in its **initial**
    /// state, built with the same arguments as the first — determinism of
    /// the processes makes the replayed incarnation converge to the crashed
    /// one's state. The victim's report (and tracer) is the reborn one's.
    pub reborn: P,
    /// The round at whose *start* the victim dies: its sockets close before
    /// it executes the round, so peers see EOF and round `kill_at` traffic
    /// never leaves the victim.
    pub kill_at: u64,
    /// How long the victim stays down before recovering its journal. Within
    /// one `round_timeout` the rejoin is transparent (peers are still
    /// waiting at the barrier and charge no omission); longer downtimes
    /// degrade to omissions, which the model tolerates but which break the
    /// byte-identical-to-the-simulator property.
    pub restart_delay: Duration,
    /// Directory for the per-member journals (`node-<id>.jsonl`); created
    /// if absent.
    pub journal_dir: PathBuf,
    /// Truncate the victim's journal mid-line before recovery, simulating a
    /// crash that tore the final append. Recovery then resumes one round
    /// earlier and the rejoin must still converge (requires `kill_at` late
    /// enough that at least one entry exists).
    pub tear_journal: bool,
}

/// What a cluster run returned.
#[derive(Debug)]
pub struct ClusterRun<O, T> {
    /// The honest members' reports (with their per-node eviction ledgers),
    /// keyed by id.
    pub reports: BTreeMap<NodeId, NetReport<O, T>>,
    /// Each hostile member's observations, keyed by id; empty without
    /// hostile members.
    pub byzantine: BTreeMap<NodeId, ByzReport>,
}

/// A member's id paired with its running thread.
type MemberHandle<R> = (NodeId, thread::JoinHandle<Result<R, NetError>>);

/// A cluster whose threads are running; [`join`](Self::join) waits for them.
pub struct RunningCluster<O, T> {
    members: Vec<MemberHandle<NetReport<O, T>>>,
    hostiles: Vec<MemberHandle<ByzReport>>,
}

impl<P> ClusterSpec<P>
where
    P: Process + Send,
    P::Msg: Wire,
    P::Output: Send,
{
    /// Runs one process per cluster member over localhost TCP, surrounded
    /// by whatever the spec asks for, and returns each member's report.
    ///
    /// `tracer_for` builds each member's tracer (members run on separate
    /// threads, so they cannot share one); pass `|_| NoopTracer` to trace
    /// nothing. `metrics_for` returns the wall-clock registry a member
    /// records into (share a clone with [`crate::serve_metrics`] to scrape
    /// it live), or `None` to run it uninstrumented at zero cost.
    ///
    /// # Errors
    ///
    /// Start-up I/O failures; then the first honest member failure in id
    /// order ([`NetError::RoundLimit`], a transport [`NetError::Io`]); all
    /// threads are joined either way. A member thread that *panics*
    /// surfaces as [`NetError::MemberPanicked`]: the panic aborts the
    /// surviving members (they bail out at their next barrier check
    /// instead of waiting out their timeouts) and is reported as a typed
    /// failure rather than poisoning the run.
    ///
    /// # Panics
    ///
    /// Panics if ids collide (among the processes, among the hostile ids,
    /// or across the two), or if the kill victim is not an honest member.
    pub fn run<T: Tracer + Send + 'static>(
        self,
        processes: impl IntoIterator<Item = P>,
        config: NetConfig,
        tracer_for: impl FnMut(NodeId) -> T,
        metrics_for: impl FnMut(NodeId) -> Option<SharedRuntimeMetrics>,
    ) -> Result<ClusterRun<P::Output, T>, NetError> {
        self.spawn(processes, config, tracer_for, metrics_for)?
            .join()
    }

    /// The non-blocking half of [`run`](Self::run): binds, spawns every
    /// thread and returns at once.
    ///
    /// # Errors
    ///
    /// The start-up failures of [`run`](Self::run); it panics as `run` does.
    pub fn spawn<T: Tracer + Send + 'static>(
        self,
        processes: impl IntoIterator<Item = P>,
        config: NetConfig,
        mut tracer_for: impl FnMut(NodeId) -> T,
        mut metrics_for: impl FnMut(NodeId) -> Option<SharedRuntimeMetrics>,
    ) -> Result<RunningCluster<P::Output, T>, NetError> {
        let processes: Vec<P> = processes.into_iter().collect();
        let hostile_ids = self.hostile.iter().flat_map(|plan| &plan.byzantine);
        let (listeners, roster) =
            bind_roster(processes.iter().map(P::id).chain(hostile_ids.copied()))?;
        let mut listeners = listeners.into_iter();

        let mut kill = self.kill;
        if let Some(kill) = &kill {
            assert!(
                processes.iter().any(|p| p.id() == kill.victim),
                "kill victim {} is not an honest cluster member",
                kill.victim
            );
            std::fs::create_dir_all(&kill.journal_dir)?;
        }
        let mut members = Vec::new();
        for (process, listener) in processes.into_iter().zip(&mut listeners) {
            let id = process.id();
            let journal = kill
                .as_ref()
                .map(|kill| RoundJournal::create(journal_path(&kill.journal_dir, id), id.raw()))
                .transpose()?;
            members.push((id, process, listener, journal));
        }

        let wan = self.wan;
        let abort = Arc::new(AtomicBool::new(false));
        let members = members
            .into_iter()
            .map(|(id, process, listener, journal)| {
                // Both incarnations of a victim share one registry, so a
                // scrape across the restart shows what the rejoin cost.
                let runtime = metrics_for(id);
                let mut equip = |process| {
                    let mut node = NetNode::new(process, config.clone())
                        .with_tracer(tracer_for(id))
                        .with_abort_flag(Arc::clone(&abort));
                    if let Some(runtime) = runtime.clone() {
                        node = node.with_runtime_metrics(runtime);
                    }
                    if let Some(wan) = &wan {
                        node = node.with_links(Arc::clone(wan));
                    }
                    node
                };
                let mut node = equip(process);
                if let Some(journal) = journal {
                    node = node.with_journal(journal);
                }
                let roster = roster.clone();
                let Some(kill) = kill.take_if(|kill| kill.victim == id) else {
                    return spawn_member(id, &abort, move || node.run(listener, &roster));
                };
                let node = node.kill_at_round(kill.kill_at);
                let reborn = equip(kill.reborn);
                spawn_member(id, &abort, move || match node.run(listener, &roster) {
                    Err(NetError::Killed(_)) => {
                        thread::sleep(kill.restart_delay);
                        let path = journal_path(&kill.journal_dir, id);
                        if kill.tear_journal {
                            tear_tail(&path)?;
                        }
                        let (journal, recovery) = RoundJournal::resume(&path)?;
                        reborn.with_journal(journal).resume(&recovery, &roster)
                    }
                    // Decided before the kill round: nothing to recover.
                    other => other,
                })
            })
            .collect();
        let hostiles = self
            .hostile
            .iter()
            .flat_map(|plan| plan.byzantine.iter().map(move |&id| (id, plan.clone())))
            .zip(listeners)
            .map(|((id, plan), listener)| {
                let mut node = ByzantineNode::new(id, plan, config.clone())
                    .with_abort_flag(Arc::clone(&abort));
                if let Some(wan) = &wan {
                    node = node.with_links(Arc::clone(wan));
                }
                let roster = roster.clone();
                // A panic guard of its own: the attacker's health never
                // aborts the honest members.
                spawn_member(id, &Arc::default(), move || Ok(node.run(listener, &roster)))
            })
            .collect();
        Ok(RunningCluster { members, hostiles })
    }
}

impl<O, T> RunningCluster<O, T> {
    /// Joins every thread and folds the results.
    ///
    /// # Errors
    ///
    /// As [`ClusterSpec::run`].
    pub fn join(self) -> Result<ClusterRun<O, T>, NetError> {
        let reports = collect_reports(self.members);
        let byzantine = self
            .hostiles
            .into_iter()
            .map(|(id, handle)| {
                let report = handle.join().ok().and_then(Result::ok);
                (id, report.unwrap_or_default())
            })
            .collect();
        reports.map(|reports| ClusterRun { reports, byzantine })
    }
}

/// Binds one OS-assigned localhost listener per id, in order, and builds
/// the shared roster. Panics on a duplicate id.
fn bind_roster(
    ids: impl Iterator<Item = NodeId>,
) -> io::Result<(Vec<TcpListener>, BTreeMap<NodeId, SocketAddr>)> {
    let mut listeners = Vec::new();
    let mut roster = BTreeMap::new();
    for id in ids {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        assert!(
            roster.insert(id, listener.local_addr()?).is_none(),
            "duplicate cluster member id {id}"
        );
        listeners.push(listener);
    }
    Ok((listeners, roster))
}

/// Starts one member thread, panic-guarded: a panicking body raises `abort`
/// (waking the members that share the flag, who then report
/// [`NetError::Aborted`]) and surfaces as [`NetError::MemberPanicked`]
/// instead of poisoning the join.
fn spawn_member<R: Send + 'static>(
    id: NodeId,
    abort: &Arc<AtomicBool>,
    body: impl FnOnce() -> Result<R, NetError> + Send + 'static,
) -> MemberHandle<R> {
    let abort = Arc::clone(abort);
    let handle = thread::spawn(move || {
        catch_unwind(AssertUnwindSafe(body)).unwrap_or_else(|_| {
            abort.store(true, Ordering::SeqCst);
            Err(NetError::MemberPanicked { id })
        })
    });
    (id, handle)
}

/// Joins every member thread and folds the results into the reports or the
/// most telling failure: a panic beats everything (it is the root cause),
/// any other member failure beats the collateral aborts, and among equals
/// the first in id order stands.
fn collect_reports<R>(handles: Vec<MemberHandle<R>>) -> Result<BTreeMap<NodeId, R>, NetError> {
    let severity = |err: &NetError| match err {
        NetError::MemberPanicked { .. } => 2,
        NetError::Aborted => 0,
        _ => 1,
    };
    let mut reports = BTreeMap::new();
    let mut worst: Option<NetError> = None;
    for (id, handle) in handles {
        // The guard in `spawn_member` already converts panics; join()
        // itself failing means one escaped anyway (e.g. out of a Drop) —
        // treat it the same way.
        let joined = handle.join();
        match joined.unwrap_or(Err(NetError::MemberPanicked { id })) {
            Ok(report) => {
                reports.insert(id, report);
            }
            Err(err) if worst.as_ref().is_none_or(|w| severity(&err) > severity(w)) => {
                worst = Some(err);
            }
            Err(_) => {}
        }
    }
    worst.map_or(Ok(reports), Err)
}

/// The journal file of member `id` under `dir`: where its journal is
/// created, and where its rejoin recovers it from.
pub(crate) fn journal_path(dir: &Path, id: NodeId) -> PathBuf {
    dir.join(format!("node-{}.jsonl", id.raw()))
}

/// Truncates `path` mid-way into its final line, simulating an append torn
/// by a crash (the fsync never completed).
fn tear_tail(path: &Path) -> io::Result<()> {
    let bytes = std::fs::read(path)?;
    let end = bytes.len().saturating_sub(1); // behead the trailing newline
    let line_start = bytes[..end]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1);
    let keep = line_start + (end - line_start) / 2;
    OpenOptions::new()
        .write(true)
        .open(path)?
        .set_len(keep as u64)
}

/// The plain run — [`ClusterSpec::default`]`().run(..)` without runtime
/// metrics — returning just the reports (the crate docs have an example).
///
/// # Errors
///
/// As [`ClusterSpec::run`]; like it, panics if two processes share an id.
pub fn run_local_cluster<P, T>(
    processes: impl IntoIterator<Item = P>,
    config: NetConfig,
    tracer_for: impl FnMut(NodeId) -> T,
) -> Result<BTreeMap<NodeId, NetReport<P::Output, T>>, NetError>
where
    P: Process + Send,
    P::Msg: Wire,
    P::Output: Send,
    T: Tracer + Send + 'static,
{
    run_local_cluster_with_metrics(processes, config, tracer_for, |_| None)
}

/// [`run_local_cluster`] with a runtime-metrics registry per member.
///
/// # Errors
///
/// As [`ClusterSpec::run`]; like it, panics if two processes share an id.
pub fn run_local_cluster_with_metrics<P, T>(
    processes: impl IntoIterator<Item = P>,
    config: NetConfig,
    tracer_for: impl FnMut(NodeId) -> T,
    metrics_for: impl FnMut(NodeId) -> Option<SharedRuntimeMetrics>,
) -> Result<BTreeMap<NodeId, NetReport<P::Output, T>>, NetError>
where
    P: Process + Send,
    P::Msg: Wire,
    P::Output: Send,
    T: Tracer + Send + 'static,
{
    ClusterSpec::default()
        .run(processes, config, tracer_for, metrics_for)
        .map(|run| run.reports)
}

/// The figures every table of a cluster run starts from, folded over the
/// members' reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Rounds executed by the member that ran longest.
    pub rounds: u64,
    /// The last round in which a member decided (0 if none did).
    pub decided_round: u64,
    /// Barrier timeouts (omissions) charged, summed across members.
    pub timeouts: u64,
    /// Peers evicted for misbehavior, summed across members.
    pub evictions: u64,
    /// Mean wall-clock round duration over all members' rounds, in
    /// microseconds (0 without rounds).
    pub mean_us: u64,
    /// The slowest round of any member, in microseconds.
    pub max_us: u64,
}

impl RunSummary {
    /// Summarises `reports`.
    pub fn of<O, T>(reports: &BTreeMap<NodeId, NetReport<O, T>>) -> Self {
        let round_micros = || {
            reports
                .values()
                .flat_map(|r| r.round_micros.iter().copied())
        };
        let each = |field: fn(&NetReport<O, T>) -> u64| reports.values().map(field);
        RunSummary {
            rounds: each(|r| r.rounds).max().unwrap_or(0),
            decided_round: each(|r| r.decided_round.unwrap_or(0)).max().unwrap_or(0),
            timeouts: each(|r| r.timeouts).sum(),
            evictions: each(|r| r.evicted.len() as u64).sum(),
            mean_us: (round_micros().sum::<u64>())
                .checked_div(round_micros().count() as u64)
                .unwrap_or(0),
            max_us: round_micros().max().unwrap_or(0),
        }
    }
}

/// The decisions of a cluster run: each member's output, keyed by id, for
/// members that decided.
pub fn decisions<O: Clone, T>(reports: &BTreeMap<NodeId, NetReport<O, T>>) -> BTreeMap<NodeId, O> {
    reports
        .iter()
        .filter_map(|(&id, report)| report.output.clone().map(|o| (id, o)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_summary_folds_every_member() {
        let report =
            |rounds, decided_round: Option<u64>, timeouts, evicted: &[u64], micros: &[u64]| {
                NetReport {
                    output: decided_round.map(|_| 1u64),
                    decided_round,
                    rounds,
                    timeouts,
                    round_micros: micros.to_vec(),
                    tracer: (),
                    evicted: evicted.to_vec(),
                }
            };
        let reports = BTreeMap::from([
            (NodeId::new(1), report(12, Some(11), 2, &[9], &[10, 30])),
            (NodeId::new(2), report(13, Some(12), 1, &[9, 8], &[20])),
            (NodeId::new(3), report(7, None, 0, &[], &[])),
        ]);
        let expected = RunSummary {
            rounds: 13,
            decided_round: 12,
            timeouts: 3,
            evictions: 3,
            mean_us: 20,
            max_us: 30,
        };
        assert_eq!(RunSummary::of(&reports), expected);
        let nothing = BTreeMap::<NodeId, NetReport<u64, ()>>::new();
        assert_eq!(RunSummary::of(&nothing), RunSummary::default());
    }
}
