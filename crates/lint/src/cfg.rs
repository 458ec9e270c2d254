//! Control-flow-graph extraction by exhaustive abstract resumption.
//!
//! A [`Machine`] is an opaque coroutine: the only way to learn its
//! control structure is to run it. This module runs it
//! *abstractly*: from the initial state it resumes clones of the machine
//! with every read result drawn from a caller-supplied finite **value
//! domain**, deduplicating machine states, until the reachable state space
//! is exhausted. The result is a per-process control-flow graph whose nodes
//! are machine states and whose edges are the steps the machine emitted —
//! the object all the lints in this crate analyze.
//!
//! The domain is an abstraction choice, not a soundness claim: a lint
//! verdict is exhaustive *over the chosen domain*. For the paper's
//! algorithms small domains suffice because the machines branch on
//! equality with their own identifier, not on value magnitude (the
//! symmetry restriction of §2), so `{initial, own-id, other-id}` already
//! drives every branch.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};

use anonreg_model::{Machine, Step};

/// Parameters of an abstract resumption.
#[derive(Clone, Debug)]
pub struct CfgConfig<V> {
    /// Finite set of values a `Read` may return. Should include the
    /// register initial value (`V::default()`) — a solo process always
    /// reads it first — plus every value the algorithm can write.
    pub domain: Vec<V>,
    /// Exploration cap on CFG nodes; extraction fails with
    /// [`CfgError::StateSpaceExceeded`] beyond it.
    pub max_nodes: usize,
}

impl<V> CfgConfig<V> {
    /// A configuration over `domain` with the default node cap (100 000).
    #[must_use]
    pub fn new(domain: Vec<V>) -> Self {
        CfgConfig {
            domain,
            max_nodes: 100_000,
        }
    }
}

/// Why extraction could not complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CfgError {
    /// The reachable abstract state space exceeded
    /// [`CfgConfig::max_nodes`].
    StateSpaceExceeded {
        /// The cap that was hit.
        max_nodes: usize,
    },
    /// The value domain is empty but the machine asked to read.
    EmptyDomain,
}

impl std::fmt::Display for CfgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CfgError::StateSpaceExceeded { max_nodes } => {
                write!(f, "abstract state space exceeds {max_nodes} nodes")
            }
            CfgError::EmptyDomain => {
                write!(f, "machine reads, but the value domain is empty")
            }
        }
    }
}

impl std::error::Error for CfgError {}

/// One transition of the extracted graph.
#[derive(Clone, Debug)]
pub struct CfgEdge<M: Machine> {
    /// The read result fed to `resume` (`None` everywhere except after a
    /// `Read` step).
    pub input: Option<M::Value>,
    /// What the machine did.
    pub kind: EdgeKind<M>,
}

/// The observed outcome of one abstract `resume` call.
#[derive(Clone, Debug)]
pub enum EdgeKind<M: Machine> {
    /// A normal step to a successor node.
    Step {
        /// The emitted step.
        step: Step<M::Value, M::Event>,
        /// Index of the successor node in [`Cfg::nodes`].
        target: usize,
    },
    /// `resume` panicked on protocol-correct input.
    Panicked {
        /// Rendered panic payload.
        message: String,
    },
    /// Two resumptions of clones of the same state with the same input
    /// produced different outcomes — `resume` is not a pure function of
    /// (state, input).
    NonDeterministic {
        /// Rendered first outcome.
        first: String,
        /// Rendered second outcome.
        second: String,
    },
}

/// One node of the extracted graph: a distinct (machine state, mode) pair.
#[derive(Clone, Debug)]
pub struct CfgNode<M: Machine> {
    /// The machine state at this node, *before* its next `resume`.
    pub state: M,
    /// `true` if the last step was a `Read` — the next resume takes
    /// `Some(value)` for each domain value.
    pub awaiting_read: bool,
    /// `true` if the machine emitted `Halt`; halted nodes have no edges.
    pub halted: bool,
    /// Outgoing transitions, one per protocol-correct input.
    pub edges: Vec<CfgEdge<M>>,
    /// `(node, edge)` that first reached this node (`None` for the root);
    /// following parents to the root yields a replayable witness path.
    pub parent: Option<(usize, usize)>,
}

/// The control-flow graph of one machine over a finite value domain.
#[derive(Clone, Debug)]
pub struct Cfg<M: Machine> {
    nodes: Vec<CfgNode<M>>,
}

impl<M> Cfg<M>
where
    M: Machine + Eq + Hash,
{
    /// Extracts the CFG of `machine` by exhaustive abstract resumption
    /// over `config.domain`.
    ///
    /// Protocol anomalies (panics, nondeterminism) do not abort
    /// extraction; they are recorded as [`EdgeKind::Panicked`] /
    /// [`EdgeKind::NonDeterministic`] edges and left to the lints to
    /// interpret.
    ///
    /// # Errors
    ///
    /// [`CfgError::StateSpaceExceeded`] if the reachable state space is
    /// larger than `config.max_nodes`; [`CfgError::EmptyDomain`] if the
    /// machine reads and the domain is empty.
    pub fn extract(machine: M, config: &CfgConfig<M::Value>) -> Result<Self, CfgError> {
        let mut nodes: Vec<CfgNode<M>> = vec![CfgNode {
            state: machine.clone(),
            awaiting_read: false,
            halted: false,
            edges: Vec::new(),
            parent: None,
        }];
        let mut index: HashMap<(M, bool, bool), usize> = HashMap::new();
        index.insert((machine, false, false), 0);
        let mut queue: VecDeque<usize> = VecDeque::from([0]);

        while let Some(at) = queue.pop_front() {
            if nodes[at].halted {
                continue;
            }
            let inputs: Vec<Option<M::Value>> = if nodes[at].awaiting_read {
                if config.domain.is_empty() {
                    return Err(CfgError::EmptyDomain);
                }
                config.domain.iter().cloned().map(Some).collect()
            } else {
                vec![None]
            };
            for input in inputs {
                let kind = Self::observe(&nodes[at].state, input.clone());
                let kind = match kind {
                    Observed::Step { step, next } => {
                        let halted = matches!(step, Step::Halt);
                        let awaiting = matches!(step, Step::Read(_));
                        let edge_idx = nodes[at].edges.len();
                        let target = match index.entry((next.clone(), awaiting, halted)) {
                            Entry::Occupied(o) => *o.get(),
                            Entry::Vacant(v) => {
                                if nodes.len() >= config.max_nodes {
                                    return Err(CfgError::StateSpaceExceeded {
                                        max_nodes: config.max_nodes,
                                    });
                                }
                                let id = nodes.len();
                                nodes.push(CfgNode {
                                    state: next,
                                    awaiting_read: awaiting,
                                    halted,
                                    edges: Vec::new(),
                                    parent: Some((at, edge_idx)),
                                });
                                queue.push_back(id);
                                v.insert(id);
                                id
                            }
                        };
                        EdgeKind::Step { step, target }
                    }
                    Observed::Panicked { message } => EdgeKind::Panicked { message },
                    Observed::NonDeterministic { first, second } => {
                        EdgeKind::NonDeterministic { first, second }
                    }
                };
                nodes[at].edges.push(CfgEdge {
                    input: input.clone(),
                    kind,
                });
            }
        }
        Ok(Cfg { nodes })
    }

    /// Resumes two fresh clones of `state` with `input` and reports what
    /// happened, flagging divergence between the two runs.
    fn observe(state: &M, input: Option<M::Value>) -> Observed<M> {
        let run = |mut m: M, input: Option<M::Value>| {
            catch_unwind(AssertUnwindSafe(move || {
                let step = m.resume(input);
                (step, m)
            }))
        };
        let first = run(state.clone(), input.clone());
        let second = run(state.clone(), input);
        match (first, second) {
            (Ok((step_a, next_a)), Ok((step_b, next_b))) => {
                if step_a == step_b && next_a == next_b {
                    Observed::Step {
                        step: step_a,
                        next: next_a,
                    }
                } else {
                    Observed::NonDeterministic {
                        first: format!("{step_a:?} -> {next_a:?}"),
                        second: format!("{step_b:?} -> {next_b:?}"),
                    }
                }
            }
            (Err(payload), _) | (_, Err(payload)) => Observed::Panicked {
                message: panic_message(&payload),
            },
        }
    }

    /// All nodes; index 0 is the initial state.
    #[must_use]
    pub fn nodes(&self) -> &[CfgNode<M>] {
        &self.nodes
    }

    /// The node count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `false` — a CFG always contains at least the initial node.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The replayable path from the root to `node`: the `(input, step)`
    /// pairs, rendered, that a driver would feed/observe to reproduce the
    /// state. Empty for the root.
    #[must_use]
    pub fn witness_to(&self, node: usize) -> Vec<String> {
        let mut path = Vec::new();
        let mut at = node;
        while let Some((parent, edge)) = self.nodes[at].parent {
            path.push(render_edge(&self.nodes[parent].edges[edge]));
            at = parent;
        }
        path.reverse();
        path
    }

    /// Like [`witness_to`](Cfg::witness_to), extended with one final
    /// rendered transition (for failures that happen *on* an edge).
    #[must_use]
    pub fn witness_through(&self, node: usize, edge: usize) -> Vec<String> {
        let mut path = self.witness_to(node);
        path.push(render_edge(&self.nodes[node].edges[edge]));
        path
    }
}

/// Renders one transition for witness output.
fn render_edge<M: Machine>(edge: &CfgEdge<M>) -> String {
    let input = match &edge.input {
        Some(v) => format!("resume(Some({v:?}))"),
        None => "resume(None)".to_string(),
    };
    match &edge.kind {
        EdgeKind::Step { step, .. } => format!("{input} => {step:?}"),
        EdgeKind::Panicked { message } => format!("{input} => panic: {message}"),
        EdgeKind::NonDeterministic { first, second } => {
            format!("{input} => nondeterministic: {first} vs {second}")
        }
    }
}

enum Observed<M: Machine> {
    Step {
        step: Step<M::Value, M::Event>,
        next: M,
    },
    Panicked {
        message: String,
    },
    NonDeterministic {
        first: String,
        second: String,
    },
}

/// Best-effort rendering of a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonreg_model::Pid;

    /// Reads register 0, writes the value + 1 back if it is < 2, halts.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Bumper {
        pid: Pid,
        awaiting: bool,
        done: bool,
    }

    impl Machine for Bumper {
        type Value = u64;
        type Event = ();

        fn pid(&self) -> Pid {
            self.pid
        }

        fn register_count(&self) -> usize {
            1
        }

        fn resume(&mut self, read: Option<u64>) -> Step<u64, ()> {
            if self.done {
                return Step::Halt;
            }
            if self.awaiting {
                self.awaiting = false;
                self.done = true;
                let v = read.expect("read result");
                if v < 2 {
                    Step::Write(0, v + 1)
                } else {
                    Step::Halt
                }
            } else {
                self.awaiting = true;
                Step::Read(0)
            }
        }
    }

    fn bumper() -> Bumper {
        Bumper {
            pid: Pid::new(1).unwrap(),
            awaiting: false,
            done: false,
        }
    }

    #[test]
    fn extracts_branching_on_the_domain() {
        let cfg = Cfg::extract(bumper(), &CfgConfig::new(vec![0, 1, 2])).unwrap();
        // Root --Read--> awaiting node with 3 edges (one per domain value).
        let awaiting = cfg
            .nodes()
            .iter()
            .find(|n| n.awaiting_read)
            .expect("awaiting node");
        assert_eq!(awaiting.edges.len(), 3);
        // Values 0 and 1 write, value 2 halts directly.
        let steps: Vec<_> = awaiting
            .edges
            .iter()
            .map(|e| match &e.kind {
                EdgeKind::Step { step, .. } => step.clone(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(steps[0], Step::Write(0, 1));
        assert_eq!(steps[1], Step::Write(0, 2));
        assert_eq!(steps[2], Step::Halt);
    }

    #[test]
    fn witness_paths_replay_from_the_root() {
        let cfg = Cfg::extract(bumper(), &CfgConfig::new(vec![0])).unwrap();
        let halted = cfg
            .nodes()
            .iter()
            .position(|n| n.halted)
            .expect("halt is reachable");
        let witness = cfg.witness_to(halted);
        assert!(!witness.is_empty());
        assert!(witness[0].contains("Read(0)"), "{witness:?}");
    }

    #[test]
    fn node_cap_is_enforced() {
        let err = Cfg::extract(
            bumper(),
            &CfgConfig {
                domain: vec![0, 1, 2],
                max_nodes: 2,
            },
        )
        .unwrap_err();
        assert_eq!(err, CfgError::StateSpaceExceeded { max_nodes: 2 });
    }

    #[test]
    fn empty_domain_is_rejected_when_reads_happen() {
        let err = Cfg::extract(bumper(), &CfgConfig::new(vec![])).unwrap_err();
        assert_eq!(err, CfgError::EmptyDomain);
    }
}
