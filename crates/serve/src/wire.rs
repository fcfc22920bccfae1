//! The daemon's line-delimited JSON wire format.
//!
//! One request per line, one response per line, over TCP or a Unix
//! socket. The vendored serde shim cannot derive tagged enums, so both
//! sides of the protocol are hand-mapped onto [`Value`] trees: requests
//! carry an `"op"` discriminant, responses carry `"ok"` plus an `"op"`
//! echo. Field order is fixed by construction, which keeps response
//! bytes stable — the crash-recovery smoke test diffs them verbatim.
//!
//! Requests:
//!
//! ```json
//! {"op":"decide","seed":7}
//! {"op":"observe","action":5,"cost":0.25}
//! {"op":"sync"}
//! {"op":"checkpoint"}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! ```
//!
//! A `decide` is served entirely from the currently published
//! snapshot; `seed` makes it reproducible — the same seed against the
//! same snapshot returns the same action. An `observe` enqueues one
//! learning update (`action` was taken, `cost` was observed) for the
//! writer thread; `sync` blocks until everything enqueued before it has
//! been learned and republished.

use serde::de::Error as _;
use serde::value::{self, Number, Value};
use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// A client → daemon message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Sample one action from the published snapshot, seeded.
    Decide {
        /// RNG seed for the Boltzmann draw.
        seed: u64,
    },
    /// Enqueue one learning update: `action` was taken, `cost` observed.
    Observe {
        /// Action index that was executed.
        action: usize,
        /// Observed per-step cost (USD).
        cost: f64,
    },
    /// Block until all previously enqueued updates are learned and a
    /// fresh snapshot is published.
    Sync,
    /// Force a checkpoint of the learned state to disk.
    Checkpoint,
    /// Report daemon counters.
    Stats,
    /// Checkpoint and stop the daemon.
    Shutdown,
}

/// A daemon → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The sampled decision. Every field is persisted state, so a
    /// daemon restarted from a checkpoint answers byte-identically.
    Decision {
        /// Sampled action index.
        action: usize,
        /// Decoded VM to migrate.
        vm: usize,
        /// Decoded target host.
        target: usize,
        /// Learning steps behind the snapshot.
        steps: usize,
        /// Boltzmann temperature of the snapshot.
        temperature: f64,
    },
    /// The observe was enqueued; `depth` is the queue length after it.
    Queued {
        /// Updates waiting for the writer.
        depth: usize,
    },
    /// The sync barrier completed.
    Synced {
        /// Total learning steps applied (lifetime, checkpoint-carried).
        steps: usize,
    },
    /// State was checkpointed.
    Checkpointed {
        /// Learning steps captured in the checkpoint.
        steps: usize,
    },
    /// Daemon counters.
    Stats {
        /// Total learning steps applied.
        steps: usize,
        /// Current Boltzmann temperature.
        temperature: f64,
        /// Explicit non-zeros in the learned operator.
        nnz: usize,
        /// Updates currently queued for the writer.
        queued: usize,
        /// Snapshots published since this daemon process started.
        published: u64,
        /// Bytes of learned state in the published snapshot
        /// ([`megh_core::SparseLspi::state_bytes`]).
        state_bytes: usize,
    },
    /// The daemon acknowledged shutdown.
    Bye,
    /// The request failed.
    Error {
        /// What went wrong.
        message: String,
    },
}

fn v_u64(x: u64) -> Value {
    Value::Num(Number::U(x))
}

fn v_usize(x: usize) -> Value {
    Value::Num(Number::U(x as u64))
}

fn v_f64(x: f64) -> Value {
    Value::Num(Number::F(x))
}

fn obj(pairs: &[(&str, Value)]) -> Value {
    Value::Object(
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_string(), v.clone()))
            .collect(),
    )
}

fn need_usize(pairs: &mut Vec<(String, Value)>, name: &str) -> Result<usize, String> {
    value::take_field(pairs, name)
        .as_u64()
        .and_then(|u| usize::try_from(u).ok())
        .ok_or_else(|| format!("`{name}` must be an unsigned integer"))
}

fn need_f64(pairs: &mut Vec<(String, Value)>, name: &str) -> Result<f64, String> {
    value::take_field(pairs, name)
        .as_f64()
        .ok_or_else(|| format!("`{name}` must be a number"))
}

impl Request {
    fn to_value(&self) -> Value {
        match self {
            Request::Decide { seed } => obj(&[
                ("op", Value::String("decide".to_string())),
                ("seed", v_u64(*seed)),
            ]),
            Request::Observe { action, cost } => obj(&[
                ("op", Value::String("observe".to_string())),
                ("action", v_usize(*action)),
                ("cost", v_f64(*cost)),
            ]),
            Request::Sync => obj(&[("op", Value::String("sync".to_string()))]),
            Request::Checkpoint => obj(&[("op", Value::String("checkpoint".to_string()))]),
            Request::Stats => obj(&[("op", Value::String("stats".to_string()))]),
            Request::Shutdown => obj(&[("op", Value::String("shutdown".to_string()))]),
        }
    }

    fn from_value(root: Value) -> Result<Self, String> {
        let Value::Object(mut pairs) = root else {
            return Err("request must be a JSON object".to_string());
        };
        let op_field = value::take_field(&mut pairs, "op");
        let Some(op) = op_field.as_str() else {
            return Err("request needs a string `op`".to_string());
        };
        match op {
            "decide" => {
                let seed = value::take_field(&mut pairs, "seed")
                    .as_u64()
                    .ok_or("`seed` must be an unsigned integer")?;
                Ok(Request::Decide { seed })
            }
            "observe" => Ok(Request::Observe {
                action: need_usize(&mut pairs, "action")?,
                cost: need_f64(&mut pairs, "cost")?,
            }),
            "sync" => Ok(Request::Sync),
            "checkpoint" => Ok(Request::Checkpoint),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op `{other}`")),
        }
    }
}

impl Response {
    fn to_value(&self) -> Value {
        let ok = ("ok", Value::Bool(true));
        match self {
            Response::Decision {
                action,
                vm,
                target,
                steps,
                temperature,
            } => obj(&[
                ok,
                ("op", Value::String("decision".to_string())),
                ("action", v_usize(*action)),
                ("vm", v_usize(*vm)),
                ("target", v_usize(*target)),
                ("steps", v_usize(*steps)),
                ("temperature", v_f64(*temperature)),
            ]),
            Response::Queued { depth } => obj(&[
                ok,
                ("op", Value::String("queued".to_string())),
                ("depth", v_usize(*depth)),
            ]),
            Response::Synced { steps } => obj(&[
                ok,
                ("op", Value::String("synced".to_string())),
                ("steps", v_usize(*steps)),
            ]),
            Response::Checkpointed { steps } => obj(&[
                ok,
                ("op", Value::String("checkpointed".to_string())),
                ("steps", v_usize(*steps)),
            ]),
            Response::Stats {
                steps,
                temperature,
                nnz,
                queued,
                published,
                state_bytes,
            } => obj(&[
                ok,
                ("op", Value::String("stats".to_string())),
                ("steps", v_usize(*steps)),
                ("temperature", v_f64(*temperature)),
                ("nnz", v_usize(*nnz)),
                ("queued", v_usize(*queued)),
                ("published", v_u64(*published)),
                ("state_bytes", v_usize(*state_bytes)),
            ]),
            Response::Bye => obj(&[ok, ("op", Value::String("bye".to_string()))]),
            Response::Error { message } => obj(&[
                ("ok", Value::Bool(false)),
                ("error", Value::String(message.clone())),
            ]),
        }
    }

    fn from_value(root: Value) -> Result<Self, String> {
        let Value::Object(mut pairs) = root else {
            return Err("response must be a JSON object".to_string());
        };
        let ok = value::take_field(&mut pairs, "ok")
            .as_bool()
            .ok_or("response needs a boolean `ok`")?;
        if !ok {
            let message = value::take_field(&mut pairs, "error")
                .as_str()
                .unwrap_or("unspecified error")
                .to_string();
            return Ok(Response::Error { message });
        }
        let op_field = value::take_field(&mut pairs, "op");
        let Some(op) = op_field.as_str() else {
            return Err("response needs a string `op`".to_string());
        };
        match op {
            "decision" => Ok(Response::Decision {
                action: need_usize(&mut pairs, "action")?,
                vm: need_usize(&mut pairs, "vm")?,
                target: need_usize(&mut pairs, "target")?,
                steps: need_usize(&mut pairs, "steps")?,
                temperature: need_f64(&mut pairs, "temperature")?,
            }),
            "queued" => Ok(Response::Queued {
                depth: need_usize(&mut pairs, "depth")?,
            }),
            "synced" => Ok(Response::Synced {
                steps: need_usize(&mut pairs, "steps")?,
            }),
            "checkpointed" => Ok(Response::Checkpointed {
                steps: need_usize(&mut pairs, "steps")?,
            }),
            "stats" => Ok(Response::Stats {
                steps: need_usize(&mut pairs, "steps")?,
                temperature: need_f64(&mut pairs, "temperature")?,
                nnz: need_usize(&mut pairs, "nnz")?,
                queued: need_usize(&mut pairs, "queued")?,
                published: value::take_field(&mut pairs, "published")
                    .as_u64()
                    .ok_or("`published` must be an unsigned integer")?,
                state_bytes: need_usize(&mut pairs, "state_bytes")?,
            }),
            "bye" => Ok(Response::Bye),
            other => Err(format!("unknown response op `{other}`")),
        }
    }
}

impl Serialize for Request {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.to_value().serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for Request {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Request::from_value(Value::deserialize(deserializer)?).map_err(D::Error::custom)
    }
}

impl Serialize for Response {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.to_value().serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for Response {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Response::from_value(Value::deserialize(deserializer)?).map_err(D::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_request_round_trips() {
        let requests = [
            Request::Decide { seed: 42 },
            Request::Observe {
                action: 17,
                cost: 0.125,
            },
            Request::Sync,
            Request::Checkpoint,
            Request::Stats,
            Request::Shutdown,
        ];
        for req in requests {
            let json = serde_json::to_string(&req).unwrap();
            let back: Request = serde_json::from_str(&json).unwrap();
            assert_eq!(back, req, "via {json}");
        }
    }

    #[test]
    fn every_response_round_trips() {
        let responses = [
            Response::Decision {
                action: 5,
                vm: 1,
                target: 2,
                steps: 99,
                temperature: 2.5,
            },
            Response::Queued { depth: 3 },
            Response::Synced { steps: 100 },
            Response::Checkpointed { steps: 100 },
            Response::Stats {
                steps: 7,
                temperature: 3.0,
                nnz: 12,
                queued: 0,
                published: 4,
                state_bytes: 640,
            },
            Response::Bye,
            Response::Error {
                message: "nope".to_string(),
            },
        ];
        for resp in responses {
            let json = serde_json::to_string(&resp).unwrap();
            let back: Response = serde_json::from_str(&json).unwrap();
            assert_eq!(back, resp, "via {json}");
        }
    }

    #[test]
    fn request_bytes_match_the_documented_format() {
        let json = serde_json::to_string(&Request::Decide { seed: 7 }).unwrap();
        assert_eq!(json, r#"{"op":"decide","seed":7}"#);
        let json = serde_json::to_string(&Request::Observe {
            action: 5,
            cost: 0.25,
        })
        .unwrap();
        assert_eq!(json, r#"{"op":"observe","action":5,"cost":0.25}"#);
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        for bad in [
            r#"{"seed":7}"#,
            r#"{"op":"decide"}"#,
            r#"{"op":"observe","action":1}"#,
            r#"{"op":"warp"}"#,
            r#"[1,2,3]"#,
        ] {
            assert!(
                serde_json::from_str::<Request>(bad).is_err(),
                "accepted {bad}"
            );
        }
    }

    #[test]
    fn error_responses_need_no_op() {
        let resp: Response = serde_json::from_str(r#"{"ok":false,"error":"boom"}"#).unwrap();
        assert_eq!(
            resp,
            Response::Error {
                message: "boom".to_string()
            }
        );
    }
}
