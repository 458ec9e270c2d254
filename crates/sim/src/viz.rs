//! Graphviz export for explored state graphs.
//!
//! Small instances of the paper's algorithms have state graphs worth
//! *looking at* — the even-`m` livelock of Theorem 3.1 is a visible cycle,
//! the covering runs are visible corridors. [`to_dot`] renders a
//! [`StateGraph`] in DOT format for `dot -Tsvg`; a labeling callback
//! controls what each state displays.

use std::fmt::Write as _;
use std::hash::Hash;

use anonreg_model::Machine;

use crate::explore::StateGraph;
use crate::Simulation;

/// Options for [`to_dot`].
#[derive(Clone, Debug)]
pub struct DotOptions {
    /// Graph name.
    pub name: String,
    /// Cap on rendered states (graphs beyond a few hundred nodes are
    /// unreadable); states with ids beyond the cap are omitted, and edges
    /// to them are dropped.
    pub max_states: usize,
    /// Highlight these states (e.g. a livelock component) with a fill.
    pub highlight: Vec<usize>,
}

impl Default for DotOptions {
    fn default() -> Self {
        DotOptions {
            name: "states".into(),
            max_states: 400,
            highlight: Vec::new(),
        }
    }
}

/// What [`to_dot_with_stats`] left out of a rendering.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DotStats {
    /// States actually rendered.
    pub shown_states: usize,
    /// States omitted because their id was at or beyond
    /// [`DotOptions::max_states`].
    pub dropped_states: usize,
    /// Edges omitted because either endpoint was an omitted state.
    pub dropped_edges: usize,
}

impl DotStats {
    /// `true` when the rendering is the whole graph.
    #[must_use]
    pub fn complete(&self) -> bool {
        self.dropped_states == 0 && self.dropped_edges == 0
    }
}

/// Renders the graph in DOT format. `label` produces each state's node
/// text; event-bearing edges are annotated with their events, crash edges
/// are dashed.
///
/// Equivalent to [`to_dot_with_stats`] with the stats discarded; the
/// rendered output still carries the truncation comment, so even a caller
/// that ignores the stats cannot mistake a truncated graph for the whole
/// state space.
///
/// # Example
///
/// ```
/// use anonreg_model::{Machine, Pid, Step, View};
/// use anonreg_sim::prelude::*;
/// use anonreg_sim::viz::{to_dot, DotOptions};
/// use anonreg_sim::Simulation;
///
/// #[derive(Clone, Debug, PartialEq, Eq, Hash)]
/// struct Once(Pid, bool);
/// impl Machine for Once {
///     type Value = u64;
///     type Event = ();
///     fn pid(&self) -> Pid { self.0 }
///     fn register_count(&self) -> usize { 1 }
///     fn resume(&mut self, _r: Option<u64>) -> Step<u64, ()> {
///         if self.1 { Step::Halt } else { self.1 = true; Step::Write(0, 1) }
///     }
/// }
///
/// let sim = Simulation::builder()
///     .process(Once(Pid::new(1).unwrap(), false), View::identity(1))
///     .build()?;
/// let graph = Explorer::new(sim).run().unwrap();
/// let dot = to_dot(&graph, &DotOptions::default(), |s| format!("{:?}", s.registers()));
/// assert!(dot.starts_with("digraph"));
/// # Ok::<(), anonreg_sim::SimError>(())
/// ```
pub fn to_dot<M, F>(graph: &StateGraph<M>, options: &DotOptions, label: F) -> String
where
    M: Machine + Eq + Hash,
    F: FnMut(&Simulation<M>) -> String,
{
    to_dot_with_stats(graph, options, label).0
}

/// Like [`to_dot`], but also reports what was dropped to honor
/// [`DotOptions::max_states`]. A truncated rendering additionally carries
/// a `// truncated: …` comment before the closing brace, so the DOT file
/// itself documents its own incompleteness.
pub fn to_dot_with_stats<M, F>(
    graph: &StateGraph<M>,
    options: &DotOptions,
    mut label: F,
) -> (String, DotStats)
where
    M: Machine + Eq + Hash,
    F: FnMut(&Simulation<M>) -> String,
{
    let shown = graph.state_count().min(options.max_states);
    let mut stats = DotStats {
        shown_states: shown,
        dropped_states: graph.state_count() - shown,
        dropped_edges: 0,
    };
    let mut out = String::new();
    let _ = writeln!(out, "digraph {} {{", options.name);
    let _ = writeln!(out, "  rankdir=LR;");
    let _ = writeln!(out, "  node [shape=box, fontsize=9];");
    // Labels come from one regenerating walk; every descendant of a
    // state has a larger id, so the walk skips each subtree rooted at an
    // id that is not shown.
    let mut labels = vec![(String::new(), false); shown];
    graph.visit(|id, state| {
        let Some(slot) = labels.get_mut(id) else {
            return false;
        };
        *slot = (label(state).replace('"', "'"), state.all_halted());
        true
    });
    for (id, (text, halted)) in labels.iter().enumerate() {
        let fill = if options.highlight.contains(&id) {
            ", style=filled, fillcolor=\"#ffd9d9\""
        } else if *halted {
            ", style=filled, fillcolor=\"#d9ffd9\""
        } else {
            ""
        };
        let _ = writeln!(out, "  s{id} [label=\"{id}: {text}\"{fill}];");
    }
    for id in 0..shown {
        for edge in graph.edges(id) {
            if edge.target >= shown {
                stats.dropped_edges += 1;
                continue;
            }
            let mut attrs = vec![format!("label=\"p{}\"", edge.proc)];
            if let Some(event) = &edge.events {
                attrs.push(format!(
                    "color=blue, fontcolor=blue, label=\"p{} [{event:?}]\"",
                    edge.proc
                ));
            }
            if edge.crash {
                attrs.push("style=dashed, color=red".into());
            }
            let _ = writeln!(out, "  s{id} -> s{} [{}];", edge.target, attrs.join(", "));
        }
    }
    // Edges *from* omitted states are dropped wholesale.
    for id in shown..graph.state_count() {
        stats.dropped_edges += graph.edges(id).len();
    }
    if !stats.complete() {
        let _ = writeln!(
            out,
            "  // truncated: {} of {} states and {} of {} edges omitted (max_states = {})",
            stats.dropped_states,
            graph.state_count(),
            stats.dropped_edges,
            graph.edge_count(),
            options.max_states
        );
    }
    let _ = writeln!(out, "}}");
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Explorer;
    use anonreg_model::{Pid, Step, View};

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Twice {
        pid: Pid,
        left: u8,
    }

    impl Machine for Twice {
        type Value = u64;
        type Event = &'static str;

        fn pid(&self) -> Pid {
            self.pid
        }

        fn register_count(&self) -> usize {
            1
        }

        fn resume(&mut self, _read: Option<u64>) -> Step<u64, &'static str> {
            match self.left {
                0 => Step::Halt,
                1 => {
                    self.left = 0;
                    Step::Event("done")
                }
                n => {
                    self.left = n - 1;
                    Step::Write(0, self.pid.get())
                }
            }
        }
    }

    fn graph() -> StateGraph<Twice> {
        let sim = Simulation::builder()
            .process(
                Twice {
                    pid: Pid::new(1).unwrap(),
                    left: 2,
                },
                View::identity(1),
            )
            .build()
            .unwrap();
        Explorer::new(sim).run().unwrap()
    }

    #[test]
    fn dot_renders_nodes_edges_and_events() {
        let g = graph();
        let dot = to_dot(&g, &DotOptions::default(), |s| {
            format!("r={:?}", s.registers())
        });
        assert!(dot.starts_with("digraph states {"));
        assert!(dot.trim_end().ends_with('}'));
        assert!(dot.contains("s0 ["));
        assert!(dot.contains("->"));
        assert!(dot.contains("done"), "event labels present");
        // Terminal states get the halted fill.
        assert!(dot.contains("#d9ffd9"));
    }

    #[test]
    fn highlight_and_cap_are_respected() {
        let g = graph();
        let dot = to_dot(
            &g,
            &DotOptions {
                name: "demo".into(),
                max_states: 1,
                highlight: vec![0],
            },
            |_| "x".into(),
        );
        assert!(dot.contains("digraph demo"));
        assert!(dot.contains("#ffd9d9"));
        assert!(!dot.contains("s1 ["), "states beyond the cap are omitted");
    }

    #[test]
    fn stats_account_for_every_dropped_state_and_edge() {
        let g = graph();
        // Uncapped: everything shown, no truncation comment.
        let (dot, stats) = to_dot_with_stats(&g, &DotOptions::default(), |_| "x".into());
        assert!(stats.complete());
        assert_eq!(stats.shown_states, g.state_count());
        assert!(!dot.contains("truncated"));
        // Capped to one state: the rest (and their edges) are counted.
        let (dot, stats) = to_dot_with_stats(
            &g,
            &DotOptions {
                max_states: 1,
                ..DotOptions::default()
            },
            |_| "x".into(),
        );
        assert!(!stats.complete());
        assert_eq!(stats.shown_states, 1);
        assert_eq!(stats.dropped_states, g.state_count() - 1);
        assert_eq!(stats.dropped_edges, g.edge_count());
        assert!(dot.contains("// truncated:"), "DOT carries the comment");
        // The comment is inside the graph body (before the closing brace),
        // so the file is still valid DOT.
        let brace = dot.rfind('}').unwrap();
        assert!(dot.find("// truncated:").unwrap() < brace);
    }

    #[test]
    fn quotes_in_labels_are_escaped() {
        let g = graph();
        let dot = to_dot(&g, &DotOptions::default(), |_| "say \"hi\"".into());
        assert!(!dot.contains("\"say \"hi\"\""));
        assert!(dot.contains("say 'hi'"));
    }
}
