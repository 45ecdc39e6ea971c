//! Seeded workload generation. Every request a run sends is generated
//! here, from the run's `--seed`, before timing starts; the program
//! under test only ever sees the generated request bytes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use repliflow_core::comm::CommModel;
use repliflow_core::gen::Gen;
use repliflow_core::instance::{CostModel, Objective, ProblemInstance};
use repliflow_core::rational::Rat;
use repliflow_solver::{Budget, EnginePref, SolveRequest};

/// What a generated instance is built to exercise (and, for solve
/// requests, the engine `Auto` is expected to route it to).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// A polynomial Table 1 cell: the paper's algorithms.
    Paper,
    /// A small NP-hard simplified-model cell: the exact Pareto DP.
    Exact,
    /// A small comm-aware instance inside the comm-exact enumeration guard.
    CommExact,
    /// A fork-join at the scale of the `forkjoin_large_heuristic` golden:
    /// beyond the exact guard, so the heuristic portfolio answers.
    Heuristic,
    /// A comm-aware pipeline above the comm-exact guard and inside the
    /// comm-bb guard, sized so the branch-and-bound completes.
    CommBb,
    /// A reliability-bounded instance on a failure-prone platform.
    Reliability,
    /// A (period, latency) Pareto front request.
    Front,
}

impl Kind {
    /// Stable lower-case name (used in reports).
    pub fn name(self) -> &'static str {
        match self {
            Kind::Paper => "paper",
            Kind::Exact => "exact",
            Kind::CommExact => "comm-exact",
            Kind::Heuristic => "heuristic",
            Kind::CommBb => "comm-bb",
            Kind::Reliability => "reliability",
            Kind::Front => "front",
        }
    }
}

/// The daemon verb a request uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    Solve,
    Pareto,
}

/// One generated request: the instance, how it is asked, and its JSON
/// body exactly as it goes on the wire or into the in-process parser.
#[derive(Clone, Debug)]
pub struct Req {
    pub kind: Kind,
    pub verb: Verb,
    pub engine: EnginePref,
    pub instance: ProblemInstance,
    /// `serde_json::to_string(&instance)`: the request body.
    pub body: String,
}

impl Req {
    fn new(kind: Kind, verb: Verb, engine: EnginePref, instance: ProblemInstance) -> Req {
        let body = serde_json::to_string(&instance).expect("instances serialize");
        Req {
            kind,
            verb,
            engine,
            instance,
            body,
        }
    }

    /// The in-process solve request (default budget, as the daemon and
    /// the CLI build it).
    pub fn solve_request(&self, instance: ProblemInstance) -> SolveRequest {
        SolveRequest::new(instance)
            .engine(self.engine)
            .budget(Budget::default())
    }

    /// The service cache key of this request.
    #[cfg(test)]
    pub fn fingerprint(&self) -> repliflow_solver::InstanceFingerprint {
        self.solve_request(self.instance.clone()).fingerprint()
    }

    /// One protocol line (without the newline) carrying this request.
    pub fn wire_line(&self, id: u64) -> String {
        let verb = match self.verb {
            Verb::Solve => "solve",
            Verb::Pareto => "pareto",
        };
        let engine = match (self.verb, self.engine) {
            (Verb::Solve, EnginePref::Hedged) => ",\"engine\":\"hedged\"",
            _ => "",
        };
        format!(
            "{{\"v\":1,\"id\":{id},\"verb\":\"{verb}\",\"instance\":{}{engine}}}",
            self.body
        )
    }
}

/// A seeded source of instances of every [`Kind`].
pub struct Generator {
    gen: Gen,
    rng: StdRng,
}

impl Generator {
    pub fn new(seed: u64) -> Generator {
        Generator {
            gen: Gen::new(seed ^ 0x9E37_79B9_7F4A_7C15),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// A uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// An exponential draw with the given mean (Poisson inter-arrivals).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    fn objective(&mut self) -> Objective {
        if self.gen.flip(0.5) {
            Objective::Period
        } else {
            Objective::Latency
        }
    }

    fn comm(&mut self, p: usize) -> CostModel {
        let network = if self.gen.flip(0.5) {
            self.gen.uniform_network(p, 1, 4)
        } else {
            self.gen.het_network(p, 1, 4)
        };
        CostModel::WithComm {
            network,
            comm: if self.gen.flip(0.5) {
                CommModel::OnePort
            } else {
                CommModel::BoundedMultiPort
            },
            overlap: self.gen.flip(0.5),
        }
    }

    /// A polynomial-cell instance with `n` stages: pipelines on
    /// homogeneous platforms (Theorems 1-3), forks on homogeneous
    /// platforms (Theorem 10), pipelines on heterogeneous platforms
    /// without data-parallelism (latency, Theorem 6; period of a
    /// homogeneous pipeline, Theorem 7).
    pub fn paper(&mut self, n: usize) -> ProblemInstance {
        let p = self.gen.size(2, 12);
        match self.gen.size(0, 3) {
            0 => ProblemInstance::new(
                self.gen.pipeline(n, 1, 30),
                self.gen.hom_platform(p, 1, 5),
                self.gen.flip(0.5),
                self.objective(),
            ),
            1 => ProblemInstance::new(
                self.gen.fork(n.max(2) - 1, 1, 30),
                self.gen.hom_platform(p, 1, 5),
                self.gen.flip(0.5),
                Objective::Period,
            ),
            2 => ProblemInstance::new(
                self.gen.pipeline(n, 1, 30),
                self.gen.het_platform(p, 1, 8),
                false,
                Objective::Latency,
            ),
            // Theorem 7's search grows steeply with the stage count
            _ => ProblemInstance::new(
                self.gen.uniform_pipeline(n.min(40), 1, 30),
                self.gen.het_platform(p, 1, 8),
                false,
                Objective::Period,
            ),
        }
    }

    /// A small NP-hard simplified-model instance (within the exact guard).
    pub fn exact(&mut self) -> ProblemInstance {
        let n = 6;
        let p = 4;
        ProblemInstance::new(
            self.gen.pipeline(n, 1, 30),
            self.gen.het_platform(p, 1, 8),
            self.gen.flip(0.5),
            Objective::Period,
        )
    }

    /// A small comm-aware instance within the comm-exact guard.
    pub fn comm_exact(&mut self) -> ProblemInstance {
        let n = self.gen.size(2, 4);
        let p = self.gen.size(2, 4);
        let data = self.gen.positive_ints(n + 1, 1, 8);
        let weights = self.gen.positive_ints(n, 1, 20);
        let pipe = repliflow_core::workflow::Pipeline::with_data_sizes(weights, data);
        ProblemInstance::new(
            pipe,
            self.gen.het_platform(p, 1, 4),
            false,
            self.objective(),
        )
        .with_cost_model(self.comm(p))
    }

    /// A heterogeneous fork-join at the `forkjoin_large_heuristic` scale
    /// (12 leaves on 6 processors): past the exact guard, so `Auto`
    /// routes it to the heuristic portfolio.
    pub fn heuristic(&mut self) -> ProblemInstance {
        ProblemInstance::new(
            self.gen.forkjoin(12, 5, 15),
            self.gen.het_platform(6, 1, 6),
            false,
            Objective::Latency,
        )
    }

    /// A comm-aware pipeline above the comm-exact guard (6 stages / 5
    /// processors) and inside the comm-bb guard (12 / 8).
    pub fn comm_bb(&mut self) -> ProblemInstance {
        let n = self.gen.size(7, 8);
        let p = 6;
        let data = self.gen.positive_ints(n + 1, 1, 8);
        let weights = self.gen.positive_ints(n, 1, 20);
        let pipe = repliflow_core::workflow::Pipeline::with_data_sizes(weights, data);
        ProblemInstance::new(
            pipe,
            self.gen.het_platform(p, 1, 4),
            false,
            self.objective(),
        )
        .with_cost_model(self.comm(p))
    }

    /// A latency-under-reliability instance whose bound binds: a
    /// comm-aware pipeline on a platform where every processor can fail,
    /// which `Auto` hands to the comm heuristic (comm-bb cannot enforce a
    /// mapping-level bound).
    pub fn reliability(&mut self) -> ProblemInstance {
        let n = 8;
        let p = 6;
        let failure = (0..p)
            .map(|_| Rat::new(self.gen.int(1, 15) as i128, 100))
            .collect();
        let platform = self.gen.het_platform(p, 1, 6).with_failure_probs(failure);
        let data = self.gen.positive_ints(n + 1, 1, 8);
        let weights = self.gen.positive_ints(n, 1, 20);
        let pipe = repliflow_core::workflow::Pipeline::with_data_sizes(weights, data);
        ProblemInstance::new(
            pipe,
            platform,
            false,
            Objective::LatencyUnderReliability(Rat::new(self.gen.int(97, 99) as i128, 100)),
        )
        .with_cost_model(self.comm(p))
    }

    /// A small instance whose Pareto front is traced exactly.
    pub fn front(&mut self) -> ProblemInstance {
        let n = 5;
        let p = 3;
        ProblemInstance::new(
            self.gen.pipeline(n, 1, 30),
            self.gen.het_platform(p, 1, 8),
            self.gen.flip(0.5),
            Objective::Period,
        )
    }

    /// A fresh instance of `kind`, wrapped as the request that kind uses.
    pub fn request(&mut self, kind: Kind) -> Req {
        let instance = match kind {
            Kind::Paper => {
                let n = self.gen.size(4, 40);
                self.paper(n)
            }
            Kind::Exact => self.exact(),
            Kind::CommExact => self.comm_exact(),
            Kind::Heuristic => self.heuristic(),
            Kind::CommBb => self.comm_bb(),
            Kind::Reliability => self.reliability(),
            Kind::Front => self.front(),
        };
        let verb = if kind == Kind::Front {
            Verb::Pareto
        } else {
            Verb::Solve
        };
        Req::new(kind, verb, EnginePref::Auto, instance)
    }

    /// The hedged variant of a fresh comm-bb-sized request.
    pub fn hedged(&mut self) -> Req {
        Req::new(
            Kind::CommBb,
            Verb::Solve,
            EnginePref::Hedged,
            self.comm_bb(),
        )
    }

    /// A cache-resident working set: polynomial cells from 3 stages to
    /// `max_stages` (log-uniform), with small exact and comm-exact
    /// instances mixed in by rank.
    pub fn working_set(&mut self, count: usize, max_stages: usize) -> Vec<Req> {
        (0..count)
            .map(|rank| match rank % 8 {
                3 => Req::new(Kind::Exact, Verb::Solve, EnginePref::Auto, self.exact()),
                6 => Req::new(
                    Kind::CommExact,
                    Verb::Solve,
                    EnginePref::Auto,
                    self.comm_exact(),
                ),
                _ => {
                    let span = max_stages as f64 / 3.0;
                    let n = (3.0 * span.powf(self.unit())).round() as usize;
                    Req::new(Kind::Paper, Verb::Solve, EnginePref::Auto, self.paper(n))
                }
            })
            .collect()
    }
}

/// Cumulative Zipf(s) weights over `n` ranks, for [`zipf_pick`].
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|r| {
            acc += 1.0 / (r as f64).powf(s);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

/// The rank a uniform draw `u` in `[0, 1)` selects under `cdf`.
pub fn zipf_pick(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}
