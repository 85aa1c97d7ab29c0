//! `pmorph-serve`: the fabric-compilation job server.
//!
//! A long-running daemon that turns the workspace's compile/simulate
//! flows into a service: clients POST job specs over a minimal
//! HTTP/1.1 + JSON protocol, a persistent worker pool (the same
//! `pmorph-exec` sharded engine underneath) runs them, and a
//! content-addressed artifact cache makes a repeated submission a
//! byte-identical instant hit. The whole thing is `std`-only — the
//! HTTP layer, JSON, hashing and pool all come from this workspace,
//! per the hermetic-build policy.
//!
//! | module | carries |
//! |---|---|
//! | [`http`] | minimal HTTP/1.1 parser/writer + the in-repo test client |
//! | [`job`] | job spec schema, canonical form, cache keys, execution |
//! | [`cache`] | content-addressed artifact cache (results + mapped designs) |
//! | [`registry`] | job lifecycle state machine, worker queue, drain |
//! | [`server`] | routing, submit hold, accept loop + reused handler threads, graceful shutdown |
//!
//! Start one in-process (the e2e suite does exactly this):
//!
//! ```
//! use pmorph_util::json::{self, Value};
//!
//! let cfg = pmorph_serve::ServeConfig { addr: "127.0.0.1:0".into(), workers: 2 };
//! let server = pmorph_serve::serve(&cfg).unwrap();
//! let spec = json::parse(
//!     r#"{"type":"truth_sweep","circuit":"parity_tree","size":4}"#).unwrap();
//! let resp = pmorph_serve::http::request(
//!     server.addr(), "POST", "/jobs", Some(&spec)).unwrap();
//! assert_eq!(resp.status, 200);
//! let id = resp.json().unwrap().get("id").unwrap().as_str().unwrap().to_string();
//! # let id_num = pmorph_serve::registry::parse_job_id(&id).unwrap();
//! # assert!(server.registry().wait_terminal(id_num, std::time::Duration::from_secs(60)));
//! let result = pmorph_serve::http::request(
//!     server.addr(), "GET", &format!("/jobs/{id}/result"), None).unwrap();
//! assert_eq!(result.status, 200);
//! server.shutdown(true);
//! ```

pub mod cache;
pub mod http;
pub mod job;
pub mod registry;
pub mod server;

pub use cache::{ArtifactCache, CacheStats};
pub use job::{JobSpec, SpecError};
pub use registry::{JobState, Receipt, Registry, WorkerPool};
pub use server::{serve, ServeConfig, ServerHandle};
