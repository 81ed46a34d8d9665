//! Layered replays for the traced run.
//!
//! Each replay performs the same sequence of public layer calls as one
//! study build in `dcnr-core` (`IntraDcStudy::run`, `RoutesStudy::run`,
//! `InterDcStudy::run`), with a harness span around every layer call.
//! The replay's results are checked against the study the program
//! built for the same scenario, so a replay that drifts from the study
//! it mirrors fails the run instead of timing something else.

use crate::trace::Tracer;
use dcnr_core::backbone::sim::BackboneSimOutput;
use dcnr_core::backbone::topo::{BackboneParams, BackboneTopology, FiberLinkId};
use dcnr_core::backbone::wan::PathSetSurvival;
use dcnr_core::backbone::{parse_email, BackboneMetrics, BackboneSim, BackboneSimConfig, TicketDb};
use dcnr_core::faults::calibration::TYPE_ORDER;
use dcnr_core::faults::{FleetGrowth, HazardModel, IssueGenerator, RootCauseModel};
use dcnr_core::remediation::{RemediationEngine, RemediationOutcome};
use dcnr_core::routes::{
    BlastBench, EquivalenceSample, RoutesConfig, TierCapacity, WanSample, WorkloadPoint,
};
use dcnr_core::service::{
    EmergentSeverityModel, ImpactEngine, ImpactModel, Placement, SevGenerator,
};
use dcnr_core::sev::{SevDb, SevLevel};
use dcnr_core::sim::{derive_indexed_seed, derive_seed, stream_rng};
use dcnr_core::topology::routing::reachable_from;
use dcnr_core::topology::{
    BlastRadius, BlastScratch, ClusterParams, DeviceId, DeviceType, FabricParams, FailureSet,
    ForwardingState, Region, RegionBuilder,
};
use dcnr_core::{InterDcStudy, IntraDcStudy, RoutesStudy, StudyConfig};
use rand::Rng;
use std::collections::HashSet;

/// What the intra replay produced. The caller drops it after closing
/// the study span: the study keeps these alive too, so freeing them is
/// not study time.
pub struct IntraReplay {
    pub issues: usize,
    pub sevs: usize,
    outcomes: Vec<RemediationOutcome>,
}

impl IntraReplay {
    /// Issues automation repaired without an incident.
    pub fn auto_repaired(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, RemediationOutcome::AutoRepaired(_)))
            .count()
    }

    /// Checks the replay against the study built for the same config.
    pub fn check(&self, study: &IntraDcStudy) -> Result<(), String> {
        let want = (study.outcomes().len(), study.db().len());
        if (self.issues, self.sevs) != want {
            return Err(format!(
                "intra replay gave {} issues / {} SEVs, IntraDcStudy::run gave {} / {}",
                self.issues, self.sevs, want.0, want.1
            ));
        }
        Ok(())
    }
}

/// `IntraDcStudy::run` as layer calls: faults → remediation → sevgen.
pub fn intra(t: &mut Tracer, id: u64, root: usize, config: StudyConfig) -> IntraReplay {
    let generator = t.span("faults.model_build", id, root, || {
        IssueGenerator::new(
            FleetGrowth::scaled(config.scale),
            HazardModel::with_config(config.hazard),
            RootCauseModel::paper(),
            config.seed,
        )
    });
    let gen = t.open("faults.issue_gen", id, Some(root));
    let mut issues = Vec::new();
    for dt in DeviceType::INTRA_DC {
        let name = if dt == DeviceType::Rsw {
            "faults.issue_gen.rsw"
        } else {
            "faults.issue_gen.other"
        };
        issues.extend(t.span(name, id, gen, || generator.generate_type(dt, config.window)));
    }
    issues.sort_by_key(|i| i.at);
    t.close(gen);
    let n_issues = issues.len();
    let outcomes = t.span("remediation.triage", id, root, || {
        RemediationEngine::new(generator.hazard().clone(), config.seed).triage_all(issues)
    });
    let db = t.span("sev.ingest", id, root, || {
        let mut db = SevDb::new();
        SevGenerator::new(config.seed).ingest(&outcomes, &mut db);
        db
    });
    IntraReplay {
        issues: n_issues,
        sevs: db.len(),
        outcomes,
    }
}

/// What the backbone replay produced; dropped by the caller, like
/// [`IntraReplay`].
pub struct BackboneReplay {
    pub emails: usize,
    pub tickets: usize,
    pub parse_failures: u64,
    _kept: (BackboneSimOutput, TicketDb),
}

impl BackboneReplay {
    /// Checks the replay against the study built for the same config.
    pub fn check(&self, study: &InterDcStudy) -> Result<(), String> {
        let want = (study.tickets().len(), study.ingest_failures);
        if (self.tickets, self.parse_failures) != want {
            return Err(format!(
                "backbone replay gave {} tickets / {} failures, InterDcStudy::run gave {} / {}",
                self.tickets, self.parse_failures, want.0, want.1
            ));
        }
        Ok(())
    }
}

/// `InterDcStudy::run` as layer calls: simulate → parse and ingest the
/// vendor e-mails → compute the metrics.
pub fn backbone(t: &mut Tracer, id: u64, root: usize, config: BackboneSimConfig) -> BackboneReplay {
    let output = t.span("backbone.sim", id, root, || BackboneSim::new(config).run());
    let (tickets, parse_failures) = t.span("backbone.ingest", id, root, || {
        let mut tickets = TicketDb::new();
        let mut failures = 0u64;
        for (_, raw) in &output.emails {
            match parse_email(raw) {
                Ok(email) if tickets.ingest(&email) => {}
                _ => failures += 1,
            }
        }
        (tickets, failures)
    });
    let computed = t.span("backbone.metrics", id, root, || {
        BackboneMetrics::compute(&tickets, &output.topology, config.window).is_some()
    });
    BackboneReplay {
        emails: output.emails.len(),
        tickets: if computed { tickets.len() } else { 0 },
        parse_failures,
        _kept: (output, tickets),
    }
}

/// What the routes replay produced, in the study's own types.
pub struct RoutesReplay {
    pub capacity: Vec<TierCapacity>,
    pub equivalence: EquivalenceSample,
    pub blast: BlastBench,
    pub workload: Vec<WorkloadPoint>,
    pub wan: WanSample,
    pub aggregate: [f64; 3],
}

impl RoutesReplay {
    /// Checks every replayed result against the study built for the
    /// same config.
    pub fn check(&self, study: &RoutesStudy) -> Result<(), String> {
        let same = self.capacity == study.capacity()
            && self.equivalence == study.equivalence()
            && self.blast == study.blast()
            && self.workload == study.workload()
            && &self.wan == study.wan()
            && self.aggregate == study.severity_aggregate();
        if same {
            Ok(())
        } else {
            Err("routes replay differs from RoutesStudy::run".into())
        }
    }
}

/// The routes study region: the reference mixed region with racks per
/// cluster/pod multiplied by `scale`.
fn scaled_region(scale: f64) -> Region {
    let f = scale.clamp(0.05, 100.0);
    let cluster = ClusterParams {
        racks_per_cluster: ((64.0 * f).round() as u32).max(4),
        ..ClusterParams::default()
    };
    let fabric = FabricParams {
        racks_per_pod: ((48.0 * f).round() as u32).max(4),
        ..FabricParams::default()
    };
    RegionBuilder::new()
        .cluster_dc(cluster)
        .fabric_dc(fabric)
        .bbrs(2)
        .build()
}

fn of_type(region: &Region, pred: impl Fn(DeviceType) -> bool) -> Vec<DeviceId> {
    region
        .topology
        .devices()
        .iter()
        .filter(|d| pred(d.device_type))
        .map(|d| d.id)
        .collect()
}

/// `RoutesStudy::run` as layer calls into `topology`, `service` and the
/// backbone WAN model.
pub fn routes(t: &mut Tracer, id: u64, root: usize, config: RoutesConfig) -> RoutesReplay {
    let region = t.span("topology.region_build", id, root, || {
        scaled_region(config.scale)
    });
    let topo = &region.topology;
    let placement = t.span("service.placement", id, root, || {
        Placement::default_mix(topo)
    });
    let racks = of_type(&region, |d| d == DeviceType::Rsw);
    let mut forwarding = t.span("topology.forwarding_build", id, root, || {
        ForwardingState::new(topo)
    });

    // Capacity sweep: single failures per type through the impact engine.
    let capacity = t.span("service.impact", id, root, || {
        const MAX_PER_TIER: usize = 32;
        let mut engine = ImpactEngine::new(ImpactModel::default(), topo);
        let base = FailureSet::new(topo);
        let mut rows = Vec::with_capacity(TYPE_ORDER.len());
        for &dt in &TYPE_ORDER {
            let instances = of_type(&region, |d| d == dt);
            let step = instances.len().div_ceil(MAX_PER_TIER).max(1);
            let mut row = TierCapacity {
                device_type: dt,
                assessed: 0,
                mean_loss: 0.0,
                max_loss: 0.0,
                max_disconnected: 0,
                sev_counts: [0; 3],
            };
            for &victim in instances.iter().step_by(step) {
                let a = engine.assess(&placement, victim, &base);
                row.assessed += 1;
                row.mean_loss += a.blast.capacity_loss_fraction;
                row.max_loss = row.max_loss.max(a.blast.capacity_loss_fraction);
                row.max_disconnected = row.max_disconnected.max(a.blast.racks_disconnected);
                row.sev_counts[match a.severity {
                    SevLevel::Sev3 => 0,
                    SevLevel::Sev2 => 1,
                    SevLevel::Sev1 => 2,
                }] += 1;
            }
            if row.assessed > 0 {
                row.mean_loss /= row.assessed as f64;
            }
            rows.push(row);
        }
        rows
    });

    let equivalence = equivalence(t, id, root, &region, config.seed);
    let blast = blast(t, id, root, &region, config.seed);
    let workload = workload(t, id, root, &region, &racks, &mut forwarding, config.seed);

    let aggregate = t.span("service.emergent", id, root, || {
        let emergent = EmergentSeverityModel::reference();
        for &dt in &TYPE_ORDER {
            std::hint::black_box(emergent.mix(dt));
        }
        emergent.aggregate_2017()
    });
    let wan = t.span("backbone.wan", id, root, || {
        wan(config.backbone, config.seed)
    });
    RoutesReplay {
        capacity,
        equivalence,
        blast,
        workload,
        wan,
        aggregate,
    }
}

fn equivalence(
    t: &mut Tracer,
    id: u64,
    root: usize,
    region: &Region,
    seed: u64,
) -> EquivalenceSample {
    const ROUNDS: usize = 6;
    const SOURCES: usize = 8;
    const TARGETS: usize = 8;
    let topo = &region.topology;
    let n = topo.device_count();
    let mut fs = t.span("topology.forwarding_build", id, root, || {
        ForwardingState::new(topo)
    });
    let mut sample = EquivalenceSample {
        pairs: 0,
        agreements: 0,
        max_ecmp_sum_error: 0.0,
    };
    for round in 0..ROUNDS {
        let mut rng = stream_rng(
            derive_indexed_seed(seed, "routes.equivalence", round as u64),
            "routes.equivalence.round",
        );
        let mut failed = FailureSet::new(topo);
        for _ in 0..rng.gen_range(0..4usize) {
            failed.fail(topo.devices()[rng.gen_range(0..n)].id);
        }
        t.span("topology.forwarding_apply", id, root, || {
            fs.apply(topo, &failed)
        });
        for _ in 0..SOURCES {
            let src = topo.devices()[rng.gen_range(0..n)].id;
            let seen = t.span("topology.bfs", id, root, || {
                reachable_from(topo, src, &failed)
            });
            for _ in 0..TARGETS {
                let dst = topo.devices()[rng.gen_range(0..n)].id;
                sample.pairs += 1;
                if fs.reachable(src, dst) == seen[dst.index()] {
                    sample.agreements += 1;
                }
            }
        }
        let err = t.span("topology.ecmp_check", id, root, || {
            let mut err = 0.0f64;
            for d in topo.devices() {
                if d.device_type != DeviceType::Core && fs.has_core_route(d.id) {
                    let sum: f64 = fs.ecmp_fractions(d.id).iter().map(|&(_, f)| f).sum();
                    err = err.max((sum - 1.0).abs());
                }
            }
            err
        });
        sample.max_ecmp_sum_error = sample.max_ecmp_sum_error.max(err);
    }
    sample
}

fn blast(t: &mut Tracer, id: u64, root: usize, region: &Region, seed: u64) -> BlastBench {
    const MAX_RSW_VICTIMS: usize = 64;
    let topo = &region.topology;
    let mut victims = of_type(region, |d| d != DeviceType::Rsw);
    let rsws = of_type(region, |d| d == DeviceType::Rsw);
    let step = rsws.len().div_ceil(MAX_RSW_VICTIMS).max(1);
    victims.extend(rsws.iter().copied().step_by(step));
    let mut base = FailureSet::new(topo);
    let mut rng = stream_rng(seed, "routes.blast.base");
    base.fail(topo.devices()[rng.gen_range(0..topo.device_count())].id);

    let legacy: Vec<BlastRadius> = t.span("topology.blast_oracle", id, root, || {
        victims
            .iter()
            .map(|&v| BlastRadius::of_failure(topo, v, &base))
            .collect()
    });
    let reused: Vec<BlastRadius> = t.span("topology.blast_scratch", id, root, || {
        let mut scratch = BlastScratch::new(topo, &base);
        victims
            .iter()
            .map(|&v| BlastRadius::of_failure_with(topo, v, &mut scratch))
            .collect()
    });
    BlastBench {
        candidates: victims.len(),
        identical: legacy == reused,
    }
}

#[allow(clippy::too_many_arguments)]
fn workload(
    t: &mut Tracer,
    id: u64,
    root: usize,
    region: &Region,
    racks: &[DeviceId],
    forwarding: &mut ForwardingState,
    seed: u64,
) -> Vec<WorkloadPoint> {
    const KS: [usize; 5] = [1, 2, 4, 8, 16];
    const TRIALS: usize = 4;
    const JOB_RACKS: usize = 8;
    let topo = &region.topology;
    let candidates = of_type(region, |d| d != DeviceType::Bbr);
    let jobs: Vec<&[DeviceId]> = racks.chunks(JOB_RACKS).collect();
    let mut failed = FailureSet::new(topo);
    let mut curve = Vec::with_capacity(KS.len());
    for (ki, &k) in KS.iter().enumerate() {
        let mut slowdown_sum = 0.0;
        let mut surviving_jobs = 0usize;
        let mut failed_jobs = 0usize;
        for trial in 0..TRIALS {
            let mut rng = stream_rng(
                derive_indexed_seed(seed, "routes.workload", (ki * 100 + trial) as u64),
                "routes.workload.trial",
            );
            failed.clear();
            for _ in 0..k {
                failed.fail(candidates[rng.gen_range(0..candidates.len())]);
            }
            t.span("topology.forwarding_apply", id, root, || {
                forwarding.apply(topo, &failed)
            });
            for job in &jobs {
                let mut bottleneck = 1.0f64;
                for &rack in *job {
                    bottleneck = bottleneck.min(forwarding.core_path_fraction(rack));
                }
                if bottleneck <= 0.0 {
                    failed_jobs += 1;
                } else {
                    surviving_jobs += 1;
                    slowdown_sum += 1.0 / bottleneck;
                }
            }
        }
        failed.clear();
        t.span("topology.forwarding_apply", id, root, || {
            forwarding.apply(topo, &failed)
        });
        let total_jobs = surviving_jobs + failed_jobs;
        curve.push(WorkloadPoint {
            failures: k,
            trials: TRIALS,
            mean_slowdown: if surviving_jobs > 0 {
                slowdown_sum / surviving_jobs as f64
            } else {
                0.0
            },
            failed_job_fraction: if total_jobs > 0 {
                failed_jobs as f64 / total_jobs as f64
            } else {
                0.0
            },
        });
    }
    curve
}

fn wan(params: BackboneParams, seed: u64) -> WanSample {
    let topo = BackboneTopology::build(params, derive_seed(seed, "routes.wan"));
    let mut rng = stream_rng(seed, "routes.wan.cut");
    let mut cut: HashSet<FiberLinkId> = HashSet::new();
    let links = topo.links().len();
    while cut.len() < 2.min(links) {
        cut.insert(FiberLinkId::from_index(rng.gen_range(0..links) as u32));
    }
    WanSample {
        cut_links: cut.len(),
        cut: PathSetSurvival::of_cut(&topo, &cut),
        empty: PathSetSurvival::of_cut(&topo, &HashSet::new()),
    }
}
