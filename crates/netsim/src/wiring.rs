//! The ids wiring endpoints, links and collectors together.
//!
//! Every id is an index into what the [`crate::EngineBuilder`] has
//! registered so far, in registration order. `build()` checks that each
//! id names something registered and returns a [`WiringError`] listing
//! every id that does not.

use std::fmt;

/// Index of a directed link registered with the builder.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LinkId(pub usize);

/// Index of a sending endpoint registered with the builder.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TxId(pub usize);

/// Index of a receiving endpoint registered with the builder.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RxId(pub usize);

/// Index of a collector registered with the builder.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ColId(pub usize);

/// Either side of a protocol, where a link needs to address both
/// (senders competing for a transmitter, listeners sharing an arrival).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EndpointId {
    /// A sending endpoint.
    Tx(TxId),
    /// A receiving endpoint.
    Rx(RxId),
}

impl From<TxId> for EndpointId {
    fn from(id: TxId) -> Self {
        EndpointId::Tx(id)
    }
}

impl From<RxId> for EndpointId {
    fn from(id: RxId) -> Self {
        EndpointId::Rx(id)
    }
}

/// Every wiring inconsistency found while building a simulation.
#[derive(Debug)]
pub struct WiringError(pub Vec<String>);

impl fmt::Display for WiringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid wiring: {}", self.0.join("; "))
    }
}

impl std::error::Error for WiringError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_id_conversions() {
        assert_eq!(EndpointId::from(TxId(3)), EndpointId::Tx(TxId(3)));
        assert_eq!(EndpointId::from(RxId(0)), EndpointId::Rx(RxId(0)));
    }

    #[test]
    fn error_lists_every_problem() {
        let e = WiringError(vec!["a".into(), "b".into()]);
        let msg = e.to_string();
        assert!(msg.contains("a") && msg.contains("b"), "{msg}");
    }
}
