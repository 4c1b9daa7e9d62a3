//! Nodes, roles, directed links, and the ids wiring endpoints to them.
//!
//! A [`Topology`] is the static shape of a simulation: which nodes
//! exist, what role each plays, and which directed links connect them.
//! Endpoints, collectors and traffic sources attach to this shape
//! through a [`crate::EngineBuilder`] placed on it; `build()` validates
//! the wiring against the declared roles and returns a
//! [`TopologyError`] listing every inconsistency it finds.

use std::fmt;

/// Index of a node in a [`Topology`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

/// Index of a directed link in a [`Topology`].
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

/// What a node does in the topology — validated against its wiring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeRole {
    /// Originates traffic: hosts a sender fed by a traffic source.
    Source,
    /// Terminates traffic: hosts a receiver delivering to a collector.
    Sink,
    /// Store-and-forward: hosts a receiver forwarding into a co-located
    /// sender.
    Relay,
    /// Full-duplex endpoint: originates *and* terminates a flow (its
    /// receiver's control frames share the node's transmitter with its
    /// sender's I-frames).
    Duplex,
}

/// One directed link: frames flow `from → to`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkSpec {
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Direction label for channel-drop trace records (`"fwd"`/`"rev"`).
    pub dir: &'static str,
}

/// The static shape of a simulation: node roles plus directed links.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    /// Role of each node, indexed by [`NodeId`].
    pub roles: Vec<NodeRole>,
    /// The directed links, indexed by [`LinkId`].
    pub links: Vec<LinkSpec>,
}

impl Topology {
    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.roles.len()
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Add a node with the given role.
    pub fn node(&mut self, role: NodeRole) -> NodeId {
        self.roles.push(role);
        NodeId(self.roles.len() - 1)
    }

    /// Add a directed link `from → to`; `dir` labels channel-drop
    /// trace records.
    pub fn link(&mut self, from: NodeId, to: NodeId, dir: &'static str) -> LinkId {
        self.links.push(LinkSpec { from, to, dir });
        LinkId(self.links.len() - 1)
    }

    /// Every link that references an unknown node or loops back to its
    /// own origin.
    pub fn problems(&self) -> Vec<String> {
        let nodes = self.nodes();
        let mut errors = Vec::new();
        for (i, l) in self.links.iter().enumerate() {
            if l.from.0 >= nodes || l.to.0 >= nodes {
                errors.push(format!("link {i} references an unknown node"));
            } else if l.from == l.to {
                errors.push(format!("link {i} is a self-loop"));
            }
        }
        errors
    }
}

/// Every wiring inconsistency found while building a simulation.
#[derive(Debug)]
pub struct TopologyError(pub Vec<String>);

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid topology: {}", self.0.join("; "))
    }
}

impl std::error::Error for TopologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_id_conversions() {
        assert_eq!(EndpointId::from(TxId(3)), EndpointId::Tx(TxId(3)));
        assert_eq!(EndpointId::from(RxId(0)), EndpointId::Rx(RxId(0)));
    }

    #[test]
    fn problems_name_unknown_nodes_and_self_loops() {
        let mut t = Topology::default();
        let a = t.node(NodeRole::Source);
        let z = t.node(NodeRole::Sink);
        t.link(a, z, "fwd");
        assert!(t.problems().is_empty());
        t.link(a, a, "rev");
        t.link(z, NodeId(7), "rev");
        assert_eq!(
            t.problems(),
            vec![
                "link 1 is a self-loop".to_string(),
                "link 2 references an unknown node".to_string()
            ]
        );
    }

    #[test]
    fn error_lists_every_problem() {
        let e = TopologyError(vec!["a".into(), "b".into()]);
        let msg = e.to_string();
        assert!(msg.contains("a") && msg.contains("b"), "{msg}");
    }
}
