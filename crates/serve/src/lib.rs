//! `wfomc-serve`: a plan-registry query service over HTTP.
//!
//! The library's plan-then-execute split (`Problem` → [`wfomc_core::Plan`])
//! amortizes sentence analysis across evaluations; this crate amortizes it
//! across *processes*: a daemon keeps planned sentences in a sharded,
//! LRU-bounded registry keyed by the canonical sentence hash, serves counts
//! over a hand-rolled HTTP/1.1 API (std-only — no framework, no async
//! runtime, no new dependencies), and persists registrations to a JSONL log
//! so a restart replays straight back to the same plan ids.
//!
//! # Quickstart
//!
//! Boot an in-process server, register a sentence, and count:
//!
//! ```
//! use wfomc_serve::http::{Server, ServerConfig};
//!
//! let server = Server::bind(&ServerConfig {
//!     addr: "127.0.0.1:0".into(),
//!     workers: 2,
//!     capacity: 64,
//!     registry_path: None, // no persistence for this example
//! })
//! .unwrap();
//! let handle = server.handle();
//! let addr = server.local_addr();
//! let daemon = std::thread::spawn(move || server.run());
//!
//! // POST /v1/plans {"sentence": "..."} → {"id": "...", ...}
//! let sentence = "forall x. forall y. S(x) | N(x,y) | S(y)";
//! let body = format!(r#"{{"sentence": "{sentence}"}}"#);
//! let reply = wfomc_serve::client::post(addr, "/v1/plans", &body).unwrap();
//! assert_eq!(reply.status, 201);
//! let id = reply.json().unwrap().get("id").unwrap().as_str().unwrap().to_string();
//!
//! // POST /v1/plans/{id}/count {"n": 5} → {"value": "...", "report": {...}}
//! let reply =
//!     wfomc_serve::client::post(addr, &format!("/v1/plans/{id}/count"), r#"{"n": 5}"#).unwrap();
//! let value = reply.json().unwrap().get("value").unwrap().as_str().unwrap().to_string();
//!
//! // Served values are bit-identical to a direct `Plan::count`.
//! let plan = wfomc_core::Problem::new(wfomc_logic::parser::parse(sentence).unwrap())
//!     .plan()
//!     .unwrap();
//! let direct = plan.count(5, plan.default_weights()).unwrap();
//! assert_eq!(value, direct.value.to_string());
//!
//! handle.shutdown();
//! daemon.join().unwrap().unwrap();
//! ```
//!
//! Per-request [`wfomc_guard::ExecutionLimits`] map from `timeout_ms`,
//! `work_cap`, and `mem_cap` body members; a tripped limit comes back as a
//! typed 422 (`deadline_exceeded`, `work_cap_exceeded`, …) and the plan
//! stays registered and reusable. See the repository README's "Serving"
//! section for the endpoint table and curl examples.

pub mod client;
pub mod http;
pub mod json;
pub mod registry;
pub mod snap;
pub mod store;
pub mod wire;

pub use http::{Server, ServerConfig, ServerHandle};
pub use registry::{PlanRegistry, RegisteredPlan, RegistryStats};
pub use snap::{SnapStats, SnapshotStore};
pub use store::RegistryLog;
pub use wire::SCHEMA;
