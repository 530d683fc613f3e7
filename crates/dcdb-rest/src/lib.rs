//! # dcdb-rest — RESTful control plane for DCDB components
//!
//! Every DCDB component exposes a control RESTful API (paper §IV-A);
//! Wintermute forwards its ODA management requests — plugin start/stop/
//! reload and on-demand operator triggers — through it (paper §V-A).
//!
//! * [`http`] — minimal HTTP/1.1 request/response codec with one
//!   incremental (event-loop) request parser;
//! * [`json`] — the push-style writer the data routes (`/sensors`,
//!   `/query`) render their bodies with, once, without a document tree;
//! * [`router`] — pattern routing with `:param` and `*rest` captures;
//! * [`server`] — non-blocking `poll(2)` TCP server whose threads are
//!   event loops that each accept, dispatch and answer their own
//!   connections, plus a tiny blocking client helper;
//! * [`sys`] — the raw `poll(2)` binding shared by the server and the
//!   high-concurrency bench client.
//!
//! The router is usable fully in-process (no sockets) via
//! [`Router::dispatch`](router::Router::dispatch), which is how the
//! simulation harness drives on-demand operators deterministically.

#![warn(missing_docs)]

pub mod http;
pub mod json;
pub mod router;
pub mod server;
pub mod sys;

pub use http::{Method, Request, RequestParser, Response, Status};
pub use json::JsonWriter;
pub use router::{Handler, Router};
pub use server::{http_request, RestServer, ServerConfig, ServerMetricsSnapshot};
