//! Experiment workloads.
//!
//! The paper's motivating application is a parallelised data-stream
//! processing system (TidalRace): DAGs of streaming operators with
//! heavy-tailed communication volumes pinned onto multicore servers.
//! [`stream`] generates synthetic operator graphs of that shape;
//! [`suite`] packages them — together with the scientific-mesh and
//! power-law service-graph families — into the named instances the
//! experiment harness sweeps over. [`elastic`] draws demand-churn streams
//! to replay against a session, and [`requests`] scripts wire requests
//! for the load client.

#![warn(missing_docs)]

pub mod elastic;
pub mod requests;
pub mod stream;
pub mod suite;

pub use elastic::{demand_churn, ChurnOpts};
pub use requests::{request_script, substitute_session, RequestScriptOpts};
pub use stream::{stream_dag, StreamOpts};
pub use suite::{machines, standard_suite, NamedInstance};
