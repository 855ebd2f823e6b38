//! The `ffisafe serve` wire protocol: u32-length-prefixed JSON frames.
//!
//! Every message is a frame of UTF-8 JSON on [`ffisafe_support::wire`],
//! the framing, handshake and session loop `cache-serve` uses too: a
//! little-endian `u32` byte length, then the body, capped at
//! [`MAX_FRAME_BYTES`]. A length prefix over the cap gets an error reply
//! and ends that session only.
//!
//! A connection starts with one HELLO round-trip pinning both the
//! protocol version ([`SERVE_PROTOCOL_VERSION`]) and the analyzer
//! version; a daemon for a different version *refuses* the session — it
//! never tears down the listener, and it never wipes anything, because
//! matching clients may be mid-flight.
//!
//! ```text
//! client → {"op":"hello","protocol":1,"analyzer":"0.2.0"}
//! server → {"status":"ok","protocol":1,"analyzer":"0.2.0"} | {"status":"error",...}
//!
//! client → {"op":"analyze","cache":"shared"|"bypass",
//!           "options":{"flow_sensitive":b,"gc_effects":b,"jobs":n},
//!           "files":[{"name":...,"src":...},...]}
//! server → {"status":"ok","errors":n,...,"rendered":...,"report":...}
//!        | {"status":"busy","running":n,"queued":n,"error":...}
//!        | {"status":"error","error":...}
//!
//! client → {"op":"metrics"}
//! server → {"status":"ok","metrics":"<Prometheus text>"}
//!
//! client → {"op":"watch"}
//! server → {"status":"ok","watching":true}
//! server → {"event":"change",...}            (stream, one frame per change)
//! ```
//!
//! Requests and replies are plain data ([`Request`], [`Reply`],
//! [`WatchEvent`]) with symmetric `to_json`/`parse` so both ends and the
//! tests speak through one codec.

use ffisafe_core::{AnalysisOptions, CacheMode, Corpus};
use ffisafe_support::json::{self, escape_into, Json};
use std::fmt::Write as _;

pub use ffisafe_support::wire::{read_frame, write_frame, MAX_FRAME_BYTES};

/// Bump when the frame layout or operation set changes. A mismatch
/// refuses the session at the handshake.
pub const SERVE_PROTOCOL_VERSION: u32 = 1;

fn quote_into(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

fn str_field(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string `{key}`"))
}

fn u64_field(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing or non-integer `{key}`"))
}

fn bool_field(doc: &Json, key: &str) -> Result<bool, String> {
    doc.get(key).and_then(Json::as_bool).ok_or_else(|| format!("missing or non-boolean `{key}`"))
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// One client → server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// The handshake: first frame of every session.
    Hello {
        /// The client's [`SERVE_PROTOCOL_VERSION`].
        protocol: u32,
        /// The client's analyzer version string.
        analyzer: String,
    },
    /// Analyze a corpus shipped inline as named sources.
    Analyze {
        /// `true` forces a cold run ([`CacheMode::Bypass`]).
        bypass: bool,
        /// Analysis options; `jobs = 0` lets the daemon assign a fair
        /// share of its cores.
        options: AnalysisOptions,
        /// `(name, source)` pairs; the kind is inferred from each name's
        /// extension, exactly as CLI arguments are.
        files: Vec<(String, String)>,
    },
    /// Scrape the daemon's metrics registry as Prometheus text.
    Metrics,
    /// Subscribe this connection to watch-mode diagnostic events.
    Watch,
}

impl Request {
    /// An [`Request::Analyze`] for `corpus` under `options`/`mode`.
    pub fn analyze(corpus: &Corpus, options: AnalysisOptions, mode: CacheMode) -> Request {
        Request::Analyze {
            bypass: mode == CacheMode::Bypass,
            options,
            files: corpus.files().map(|f| (f.name().to_string(), f.src().to_string())).collect(),
        }
    }

    /// Serializes to the wire JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        match self {
            Request::Hello { protocol, analyzer } => {
                out.push_str("{\"op\":\"hello\",\"protocol\":");
                let _ = write!(out, "{protocol}");
                out.push_str(",\"analyzer\":");
                quote_into(&mut out, analyzer);
                out.push('}');
            }
            Request::Analyze { bypass, options, files } => {
                out.push_str("{\"op\":\"analyze\",\"cache\":");
                out.push_str(if *bypass { "\"bypass\"" } else { "\"shared\"" });
                let _ = write!(
                    out,
                    ",\"options\":{{\"flow_sensitive\":{},\"gc_effects\":{},\"jobs\":{}}}",
                    options.flow_sensitive, options.gc_effects, options.jobs
                );
                out.push_str(",\"files\":[");
                for (i, (name, src)) in files.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"name\":");
                    quote_into(&mut out, name);
                    out.push_str(",\"src\":");
                    quote_into(&mut out, src);
                    out.push('}');
                }
                out.push_str("]}");
            }
            Request::Metrics => out.push_str("{\"op\":\"metrics\"}"),
            Request::Watch => out.push_str("{\"op\":\"watch\"}"),
        }
        out
    }

    /// Parses a request frame body.
    pub fn parse(body: &[u8]) -> Result<Request, String> {
        let text = std::str::from_utf8(body).map_err(|_| "request is not UTF-8".to_string())?;
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let op = str_field(&doc, "op")?;
        match op.as_str() {
            "hello" => Ok(Request::Hello {
                protocol: u64_field(&doc, "protocol")? as u32,
                analyzer: str_field(&doc, "analyzer")?,
            }),
            "analyze" => {
                let bypass = match str_field(&doc, "cache")?.as_str() {
                    "shared" => false,
                    "bypass" => true,
                    other => return Err(format!("unknown cache mode `{other}`")),
                };
                let opts = doc.get("options").ok_or("missing `options`")?;
                let options = AnalysisOptions {
                    flow_sensitive: bool_field(opts, "flow_sensitive")?,
                    gc_effects: bool_field(opts, "gc_effects")?,
                    jobs: u64_field(opts, "jobs")? as usize,
                };
                let files = doc
                    .get("files")
                    .and_then(Json::as_array)
                    .ok_or("missing `files` array")?
                    .iter()
                    .map(|f| Ok((str_field(f, "name")?, str_field(f, "src")?)))
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Request::Analyze { bypass, options, files })
            }
            "metrics" => Ok(Request::Metrics),
            "watch" => Ok(Request::Watch),
            other => Err(format!("unknown op `{other}`")),
        }
    }
}

// ---------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------

/// The result payload of a successful analyze round-trip.
///
/// `rendered_stable` is the byte-stable text report (no wall-clock
/// suffix) — the field the byte-identical-to-local-analysis contract is
/// asserted on. `report_json` is the full versioned
/// [`ffisafe_core::AnalysisReport::to_json`] document, whose
/// `seconds`-type fields are naturally volatile.
#[derive(Clone, Debug, PartialEq)]
pub struct AnalyzeOutcome {
    /// Error diagnostics in the report.
    pub errors: u64,
    /// Warning diagnostics in the report.
    pub warnings: u64,
    /// Inference workers that actually executed (0 on a warm hit).
    pub workers_executed: u64,
    /// Whether the whole report replayed from the tier-2 report cache.
    pub report_hit: bool,
    /// Worker-pool width the daemon granted this request.
    pub jobs: u64,
    /// The human report, as `ffisafe` would print it (wall-clock suffix
    /// included).
    pub rendered: String,
    /// The byte-stable human report (no timings).
    pub rendered_stable: String,
    /// The full versioned JSON report.
    pub report_json: String,
}

/// One server → client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// Handshake accepted.
    HelloOk {
        /// The server's protocol version.
        protocol: u32,
        /// The server's analyzer version.
        analyzer: String,
    },
    /// Analysis completed.
    Analyze(Box<AnalyzeOutcome>),
    /// The admission queue is full; try again later.
    Busy {
        /// Requests currently executing.
        running: u64,
        /// Requests currently queued.
        queued: u64,
    },
    /// The daemon's metrics registry as Prometheus text.
    Metrics {
        /// The exposition text.
        prometheus: String,
    },
    /// Watch subscription accepted; change events follow as their own
    /// frames.
    WatchOk {
        /// Whether the daemon is actually watching a tree (`false` when
        /// it was started without `--watch`; the subscription then never
        /// produces events).
        watching: bool,
    },
    /// The request failed.
    Error {
        /// Why.
        message: String,
    },
}

impl Reply {
    /// Serializes to the wire JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        match self {
            Reply::HelloOk { protocol, analyzer } => {
                let _ = write!(out, "{{\"status\":\"ok\",\"protocol\":{protocol},\"analyzer\":");
                quote_into(&mut out, analyzer);
                out.push('}');
            }
            Reply::Analyze(o) => {
                let _ = write!(
                    out,
                    "{{\"status\":\"ok\",\"errors\":{},\"warnings\":{},\"workers_executed\":{},\"report_hit\":{},\"jobs\":{},\"rendered\":",
                    o.errors, o.warnings, o.workers_executed, o.report_hit, o.jobs
                );
                quote_into(&mut out, &o.rendered);
                out.push_str(",\"rendered_stable\":");
                quote_into(&mut out, &o.rendered_stable);
                out.push_str(",\"report\":");
                quote_into(&mut out, &o.report_json);
                out.push('}');
            }
            Reply::Busy { running, queued } => {
                let _ = write!(
                    out,
                    "{{\"status\":\"busy\",\"running\":{running},\"queued\":{queued},\"error\":\"admission queue full\"}}"
                );
            }
            Reply::Metrics { prometheus } => {
                out.push_str("{\"status\":\"ok\",\"metrics\":");
                quote_into(&mut out, prometheus);
                out.push('}');
            }
            Reply::WatchOk { watching } => {
                let _ = write!(out, "{{\"status\":\"ok\",\"watching\":{watching}}}");
            }
            Reply::Error { message } => {
                out.push_str("{\"status\":\"error\",\"error\":");
                quote_into(&mut out, message);
                out.push('}');
            }
        }
        out
    }

    /// Parses a reply frame body. The variant is keyed on `status` plus
    /// which fields are present.
    pub fn parse(body: &[u8]) -> Result<Reply, String> {
        let text = std::str::from_utf8(body).map_err(|_| "reply is not UTF-8".to_string())?;
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        match str_field(&doc, "status")?.as_str() {
            "busy" => Ok(Reply::Busy {
                running: u64_field(&doc, "running")?,
                queued: u64_field(&doc, "queued")?,
            }),
            "error" => Ok(Reply::Error { message: str_field(&doc, "error")? }),
            "ok" => {
                if doc.get("metrics").is_some() {
                    Ok(Reply::Metrics { prometheus: str_field(&doc, "metrics")? })
                } else if doc.get("watching").is_some() {
                    Ok(Reply::WatchOk { watching: bool_field(&doc, "watching")? })
                } else if doc.get("rendered").is_some() {
                    Ok(Reply::Analyze(Box::new(AnalyzeOutcome {
                        errors: u64_field(&doc, "errors")?,
                        warnings: u64_field(&doc, "warnings")?,
                        workers_executed: u64_field(&doc, "workers_executed")?,
                        report_hit: bool_field(&doc, "report_hit")?,
                        jobs: u64_field(&doc, "jobs")?,
                        rendered: str_field(&doc, "rendered")?,
                        rendered_stable: str_field(&doc, "rendered_stable")?,
                        report_json: str_field(&doc, "report")?,
                    })))
                } else {
                    Ok(Reply::HelloOk {
                        protocol: u64_field(&doc, "protocol")? as u32,
                        analyzer: str_field(&doc, "analyzer")?,
                    })
                }
            }
            other => Err(format!("unknown status `{other}`")),
        }
    }
}

// ---------------------------------------------------------------------
// Watch events
// ---------------------------------------------------------------------

/// One watch-mode change notification, streamed to every subscribed
/// connection after the daemon re-analyzes the watched tree.
#[derive(Clone, Debug, PartialEq)]
pub struct WatchEvent {
    /// The watched root, as configured.
    pub root: String,
    /// Monotonic change counter (1 = the initial analysis at startup).
    pub generation: u64,
    /// Error diagnostics in the re-analysis.
    pub errors: u64,
    /// Warning diagnostics in the re-analysis.
    pub warnings: u64,
    /// Inference workers the re-analysis executed (0 when the change was
    /// already cached, e.g. a revert).
    pub workers_executed: u64,
    /// The byte-stable text report of the re-analysis.
    pub rendered_stable: String,
}

impl WatchEvent {
    /// Serializes to the wire JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"event\":\"change\",\"root\":");
        quote_into(&mut out, &self.root);
        let _ = write!(
            out,
            ",\"generation\":{},\"errors\":{},\"warnings\":{},\"workers_executed\":{},\"rendered_stable\":",
            self.generation, self.errors, self.warnings, self.workers_executed
        );
        quote_into(&mut out, &self.rendered_stable);
        out.push('}');
        out
    }

    /// Parses an event frame body.
    pub fn parse(body: &[u8]) -> Result<WatchEvent, String> {
        let text = std::str::from_utf8(body).map_err(|_| "event is not UTF-8".to_string())?;
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        match str_field(&doc, "event")?.as_str() {
            "change" => Ok(WatchEvent {
                root: str_field(&doc, "root")?,
                generation: u64_field(&doc, "generation")?,
                errors: u64_field(&doc, "errors")?,
                warnings: u64_field(&doc, "warnings")?,
                workers_executed: u64_field(&doc, "workers_executed")?,
                rendered_stable: str_field(&doc, "rendered_stable")?,
            }),
            other => Err(format!("unknown event `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_the_codec() {
        let corpus = Corpus::builder()
            .ml_source("lib.ml", "external f : int -> int = \"ml_f\"\n")
            .c_source("glue \"quoted\".c", "value ml_f(value n) { return n; }\n")
            .build();
        let requests = [
            Request::Hello { protocol: SERVE_PROTOCOL_VERSION, analyzer: "0.2.0".into() },
            Request::analyze(
                &corpus,
                AnalysisOptions { flow_sensitive: false, gc_effects: true, jobs: 3 },
                CacheMode::Bypass,
            ),
            Request::Metrics,
            Request::Watch,
        ];
        for request in requests {
            let parsed = Request::parse(request.to_json().as_bytes()).expect("parses");
            assert_eq!(parsed, request);
        }
    }

    #[test]
    fn replies_round_trip_through_the_codec() {
        let replies = [
            Reply::HelloOk { protocol: 1, analyzer: "0.2.0".into() },
            Reply::Analyze(Box::new(AnalyzeOutcome {
                errors: 2,
                warnings: 1,
                workers_executed: 7,
                report_hit: false,
                jobs: 4,
                rendered: "line \"one\"\n".into(),
                rendered_stable: "line one\n".into(),
                report_json: "{\n  \"schema_version\": 1\n}\n".into(),
            })),
            Reply::Busy { running: 8, queued: 16 },
            Reply::Metrics { prometheus: "# TYPE x counter\nx 1\n".into() },
            Reply::WatchOk { watching: true },
            Reply::Error { message: "nope\n\"quoted\"".into() },
        ];
        for reply in replies {
            let parsed = Reply::parse(reply.to_json().as_bytes()).expect("parses");
            assert_eq!(parsed, reply);
        }
    }

    #[test]
    fn watch_events_round_trip_through_the_codec() {
        let event = WatchEvent {
            root: "/tmp/watched".into(),
            generation: 3,
            errors: 1,
            warnings: 0,
            workers_executed: 5,
            rendered_stable: "report\n".into(),
        };
        assert_eq!(WatchEvent::parse(event.to_json().as_bytes()).unwrap(), event);
        assert!(WatchEvent::parse(b"{\"event\":\"other\"}").is_err());
    }

    #[test]
    fn malformed_requests_are_errors_not_panics() {
        for bad in [
            &b"\xff\xfe"[..],
            b"not json",
            b"{}",
            b"{\"op\":\"warp\"}",
            b"{\"op\":\"analyze\"}",
            b"{\"op\":\"analyze\",\"cache\":\"warm\",\"options\":{},\"files\":[]}",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
