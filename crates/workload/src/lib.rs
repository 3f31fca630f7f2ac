//! # mafic-workload
//!
//! Scenario generation and execution for the MAFIC reproduction: builds
//! the protected domain, provisions legitimate TCP flows and spoofing
//! attack zombies per the paper's parameter surface (`Vt`, `Γ`, `R`,
//! `Pd`, `N`), installs the LogLog taps and the defense filters, and
//! runs the periodic pushback monitor that turns sketch epochs into
//! `PushbackStart` control messages.
//!
//! With `domains >= 2` the spec builds a multi-domain internet instead:
//! remote stubs flood the victim across a transit tier, and the
//! inter-domain cascaded pushback (`mafic-pushback`) escalates the
//! defense up to `pushback_depth` hops toward the zombies. Each domain
//! runs the [`mafic::DefensePolicy`] the spec resolves for it — a
//! transit-tier default and a seeded `participation_fraction`
//! placement — so heterogeneous and partially
//! deployed federations are first-class scenarios: non-participating
//! domains deploy nothing and escalation requests route *through* them
//! to the nearest cooperating domain.
//!
//! # Example
//!
//! ```no_run
//! use mafic_workload::{run_spec, ScenarioSpec};
//!
//! let outcome = run_spec(ScenarioSpec::default()).unwrap();
//! println!("{}", outcome.report);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(unreachable_pub)]

mod error;
mod runner;
mod scenario;
mod spec;

pub use error::WorkloadError;
pub use mafic_adversary::{AdversarySpec, StrategyKind};
pub use runner::{
    encode_checkpoint, restore_run, resume_scenario, run_scenario, run_spec, RunOutcome, RunState,
};
pub use scenario::{
    FlowInfo, PushbackDomainControl, PushbackPlan, PushbackUpstream, Scenario, SpoofMode,
};
pub use spec::{DetectionMode, NominalRate, ScenarioSpec};
