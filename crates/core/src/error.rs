//! Error type for the object/manager layer.

use std::fmt;

use alps_runtime::RuntimeError;

use crate::value::Ty;

/// Errors produced while building, calling, or managing ALPS objects.
#[derive(Debug, Clone, PartialEq)]
pub enum AlpsError {
    /// The named entry does not exist in the object.
    UnknownEntry {
        /// Object name.
        object: String,
        /// Entry name the caller used.
        entry: String,
    },
    /// An external caller invoked a procedure declared `local`.
    LocalEntryCalled {
        /// Object name.
        object: String,
        /// Local procedure name.
        entry: String,
    },
    /// Wrong number of arguments or results.
    ArityMismatch {
        /// What was being invoked (entry name, channel name, …).
        what: String,
        /// Expected arity.
        expected: usize,
        /// Provided arity.
        got: usize,
    },
    /// A value did not match the declared type.
    TypeMismatch {
        /// What was being invoked.
        what: String,
        /// Position of the offending value.
        index: usize,
        /// Declared type.
        expected: Ty,
        /// Actual type.
        got: Ty,
    },
    /// The object has been shut down.
    ObjectClosed {
        /// Object name.
        object: String,
    },
    /// An object definition was inconsistent (duplicate entries, hidden
    /// parameters without interception, interception without a manager, …).
    BadDefinition {
        /// Human-readable explanation.
        reason: String,
    },
    /// Every guard of a `select` was closed — the CSP alternative command
    /// fails (paper §2.4: semantics "similar to those in CSP").
    SelectFailed,
    /// Request combining (`finish` on an accepted-but-unstarted call)
    /// requires the manager to have intercepted the full parameter list
    /// and to supply the full result list (paper §2.7).
    BadCombining {
        /// Human-readable explanation.
        reason: String,
    },
    /// An entry-procedure body failed (returned an error or panicked).
    BodyFailed {
        /// Entry name.
        entry: String,
        /// Failure description.
        message: String,
    },
    /// The manager violated the call protocol (e.g. dropped an
    /// [`AcceptedCall`](crate::AcceptedCall) without starting or finishing
    /// it).
    ProtocolViolation {
        /// Human-readable explanation.
        reason: String,
    },
    /// An [`EntryId`](crate::EntryId) minted by one object was used to
    /// call a different object.
    ForeignEntryId {
        /// Name of the object the id was used on.
        object: String,
    },
    /// A caller's deadline-bounded wait expired before the protocol
    /// answered ([`Wait::Deadline`](crate::Wait::Deadline), or a
    /// [`Wait::Retry`](crate::Wait::Retry) whose budget ran out). A
    /// manager's waits have no deadline.
    Timeout {
        /// What was being waited for: the called entry, or the remote
        /// object a connect was for.
        what: String,
        /// The deadline budget in ticks.
        ticks: u64,
    },
    /// An entry body panicked in a poisoning object
    /// ([`ObjectBuilder::poison_on_panic`](crate::ObjectBuilder::poison_on_panic));
    /// the object's state may be corrupt, so new calls fail fast.
    ObjectPoisoned {
        /// Object name.
        object: String,
    },
    /// The object is restarting after an entry-body panic
    /// ([`ObjectBuilder::supervise`](crate::ObjectBuilder::supervise)):
    /// in-flight calls caught by the restart sweep are answered with this
    /// error instead of hanging on a generation that no longer exists.
    /// Transient by design — retry-worthy, see
    /// [`Wait::Retry`](crate::Wait::Retry).
    ObjectRestarting {
        /// Object name.
        object: String,
    },
    /// The object's intake is full and its
    /// [`AdmissionPolicy`](crate::AdmissionPolicy) sheds rather than
    /// blocks: the call was refused without being enqueued. Transient by
    /// design — retry-worthy, see
    /// [`Wait::Retry`](crate::Wait::Retry).
    Overloaded {
        /// Object name.
        object: String,
    },
    /// The network link carrying a remote call died (disconnect, frame
    /// corruption, or reconnect budget exhausted) before a reply was
    /// delivered. The call executed **at most once** — the remote server
    /// deduplicates redelivered call ids, so retrying it under
    /// [`Wait::Retry`](crate::Wait::Retry) is safe. Transient by design —
    /// retry-worthy.
    LinkLost {
        /// Remote endpoint description (address or object name).
        endpoint: String,
    },
    /// An underlying runtime error.
    Runtime(RuntimeError),
    /// Application-defined failure raised inside an entry body.
    Custom(String),
}

impl AlpsError {
    /// Whether this error is *transient*: the call was refused, or the
    /// caller stopped waiting, without a delivered answer. This is the
    /// single decision point of the one retry loop
    /// ([`RetryPolicy::run`](crate::RetryPolicy::run), behind every
    /// handle's [`Wait::Retry`](crate::Wait::Retry)) — a new transient
    /// variant slots in here, not at every match site.
    ///
    /// * [`Overloaded`](AlpsError::Overloaded) — shed before enqueueing;
    ///   the body never ran.
    /// * [`Timeout`](AlpsError::Timeout) — the wait expired. The body may
    ///   already have *started*: it runs on (cancellation is cooperative)
    ///   and its result is tombstoned, so a retry **can run the body a
    ///   second time** — in-process and through a server-side deadline
    ///   alike (DESIGN.md §10, "One accepted hole").
    /// * [`ObjectRestarting`](AlpsError::ObjectRestarting) — swept by a
    ///   supervised restart. A body the sweep found started is abandoned
    ///   the same way, so here too a retry can run it again.
    /// * [`LinkLost`](AlpsError::LinkLost) — the transport died with the
    ///   call in flight; the server's dedup cache makes the retry replay
    ///   the reply instead of re-running the body, as it does for any
    ///   duplicate delivery.
    ///
    /// Everything *delivered* — results, [`BodyFailed`](AlpsError::BodyFailed),
    /// [`ObjectClosed`](AlpsError::ObjectClosed),
    /// [`ObjectPoisoned`](AlpsError::ObjectPoisoned) — is non-retryable:
    /// the body ran, or the object will never run it.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            AlpsError::Overloaded { .. }
                | AlpsError::ObjectRestarting { .. }
                | AlpsError::Timeout { .. }
                | AlpsError::LinkLost { .. }
        )
    }
}

impl fmt::Display for AlpsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlpsError::UnknownEntry { object, entry } => {
                write!(f, "object `{object}` has no entry `{entry}`")
            }
            AlpsError::LocalEntryCalled { object, entry } => {
                write!(
                    f,
                    "`{object}.{entry}` is a local procedure, not callable from outside"
                )
            }
            AlpsError::ArityMismatch {
                what,
                expected,
                got,
            } => write!(f, "{what}: expected {expected} value(s), got {got}"),
            AlpsError::TypeMismatch {
                what,
                index,
                expected,
                got,
            } => write!(
                f,
                "{what}: value {index} has type {got}, expected {expected}"
            ),
            AlpsError::ObjectClosed { object } => write!(f, "object `{object}` is closed"),
            AlpsError::BadDefinition { reason } => write!(f, "bad object definition: {reason}"),
            AlpsError::SelectFailed => write!(f, "select failed: every guard is closed"),
            AlpsError::BadCombining { reason } => write!(f, "bad combining: {reason}"),
            AlpsError::BodyFailed { entry, message } => {
                write!(f, "entry `{entry}` failed: {message}")
            }
            AlpsError::ProtocolViolation { reason } => {
                write!(f, "manager protocol violation: {reason}")
            }
            AlpsError::ForeignEntryId { object } => {
                write!(f, "entry id does not belong to object `{object}`")
            }
            AlpsError::Timeout { what, ticks } => {
                write!(f, "`{what}` timed out after {ticks} ticks")
            }
            AlpsError::ObjectPoisoned { object } => {
                write!(f, "object `{object}` is poisoned (an entry body panicked)")
            }
            AlpsError::ObjectRestarting { object } => {
                write!(f, "object `{object}` is restarting after a body panic")
            }
            AlpsError::Overloaded { object } => {
                write!(
                    f,
                    "object `{object}` is overloaded (intake full, call shed)"
                )
            }
            AlpsError::LinkLost { endpoint } => {
                write!(f, "link to `{endpoint}` was lost with the call in flight")
            }
            AlpsError::Runtime(e) => write!(f, "runtime error: {e}"),
            AlpsError::Custom(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for AlpsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AlpsError::Runtime(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RuntimeError> for AlpsError {
    fn from(e: RuntimeError) -> Self {
        AlpsError::Runtime(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, AlpsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let cases: Vec<(AlpsError, &str)> = vec![
            (
                AlpsError::UnknownEntry {
                    object: "X".into(),
                    entry: "P".into(),
                },
                "object `X` has no entry `P`",
            ),
            (
                AlpsError::ObjectClosed { object: "X".into() },
                "object `X` is closed",
            ),
            (
                AlpsError::SelectFailed,
                "select failed: every guard is closed",
            ),
            (
                AlpsError::Timeout {
                    what: "P".into(),
                    ticks: 500,
                },
                "`P` timed out after 500 ticks",
            ),
            (
                AlpsError::ObjectPoisoned { object: "X".into() },
                "object `X` is poisoned (an entry body panicked)",
            ),
            (
                AlpsError::ObjectRestarting { object: "X".into() },
                "object `X` is restarting after a body panic",
            ),
            (
                AlpsError::Overloaded { object: "X".into() },
                "object `X` is overloaded (intake full, call shed)",
            ),
            (
                AlpsError::LinkLost {
                    endpoint: "127.0.0.1:9".into(),
                },
                "link to `127.0.0.1:9` was lost with the call in flight",
            ),
            (AlpsError::Custom("boom".into()), "boom"),
        ];
        for (e, want) in cases {
            assert_eq!(e.to_string(), want);
        }
    }

    #[test]
    fn retryable_is_exactly_the_transient_taxonomy() {
        let yes = [
            AlpsError::Overloaded { object: "X".into() },
            AlpsError::ObjectRestarting { object: "X".into() },
            AlpsError::Timeout {
                what: "P".into(),
                ticks: 1,
            },
            AlpsError::LinkLost {
                endpoint: "srv".into(),
            },
        ];
        for e in yes {
            assert!(e.is_retryable(), "{e} should be retryable");
        }
        let no = [
            AlpsError::ObjectPoisoned { object: "X".into() },
            AlpsError::ObjectClosed { object: "X".into() },
            AlpsError::BodyFailed {
                entry: "P".into(),
                message: "m".into(),
            },
            AlpsError::SelectFailed,
            AlpsError::Custom("boom".into()),
        ];
        for e in no {
            assert!(!e.is_retryable(), "{e} should not be retryable");
        }
    }

    #[test]
    fn from_runtime_error_sets_source() {
        use std::error::Error;
        let e: AlpsError = RuntimeError::Shutdown.into();
        assert!(e.source().is_some());
        assert_eq!(e.to_string(), "runtime error: runtime is shut down");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_ss<T: Send + Sync>() {}
        assert_ss::<AlpsError>();
    }
}
